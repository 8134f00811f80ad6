"""Analytic FLOP model for prefill cost comparisons.

One multiply-accumulate counts as 2 FLOPs. A row passing through one layer
costs the four d_model x d_model projections, the two feed-forward matrices,
and attention proportional to its visible context. Context is modeled as the
causal average (n+1)/2 for every charged row, which makes a full layer cost
exactly the triangular sum and lets the selective form reduce to the vanilla
form in the all-rows limit.

`prefill_flops` is the one prefill cost. A fused-prefill trace charges it
for the rows actually carried, so a budget that clamps to the document
length pays for the rows that ran; `fused_flops` is the unclamped budget.

Selection scoring cost is small and reported separately, mirroring how
timing isolates it; it is not part of the prefill figure.
"""

from __future__ import annotations

from .model import ModelConfig


def row_flops(config: ModelConfig, n: int) -> float:
    """Cost of one row through one layer with average causal context over n."""
    d, dff = config.d_model, config.d_ff
    return 8.0 * d * d + 4.0 * d * dff + 4.0 * d * (n + 1) / 2.0


def full_layer_flops(config: ModelConfig, n: int) -> float:
    return n * row_flops(config, n)


def prefill_flops(config: ModelConfig, n: int, rows: int, first: int) -> float:
    """Layers below `first` over all n rows, the rest over min(rows, n) rows.

    Vanilla is first = n_layers; the selective pipeline carries its selected
    rows plus the question from 2, and `full` the question alone from 0.
    """
    carried = (config.n_layers - first) * min(rows, n)
    return first * full_layer_flops(config, n) + carried * row_flops(config, n)


def vanilla_flops(config: ModelConfig, n: int) -> float:
    return prefill_flops(config, n, n, config.n_layers)


def fused_flops(config: ModelConfig, n: int, r: float, q_len: int) -> float:
    """Budget model of the selective pipeline: p = round(r * n) unclamped.

    The row count saturates at n, so r = 1 returns exactly the vanilla form.
    """
    return prefill_flops(config, n, round(r * n) + q_len, 2)


def scoring_flops(config: ModelConfig, n: int, q_len: int, n_doc: int, strategy: str) -> float:
    """Cost of producing the recomputation scores (reported separately)."""
    d = config.d_model
    if strategy in ("attention_aware", "none", "kv_diff", "head_tail"):
        base = 2.0 * q_len * n * d  # question-row score matrix
    else:
        base = 0.0
    if strategy == "kv_diff":
        base += 4.0 * n_doc * d  # per-token value deviation norms
    return base
