"""Analytic FLOP model for prefill cost comparisons.

One multiply-accumulate counts as 2 FLOPs. A row passing through one layer
costs the four d_model x d_model projections, the two feed-forward matrices,
and attention proportional to its visible context. Context is modeled as the
causal average (n+1)/2 for every charged row, which makes a full layer cost
exactly the triangular sum and lets the selective form reduce to the vanilla
form in the all-rows limit.

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


def vanilla_flops(config: ModelConfig, n: int) -> float:
    return config.n_layers * full_layer_flops(config, n)


def fused_flops(config: ModelConfig, n: int, r: float, q_len: int) -> float:
    """Selective pipeline: layers 0 and 1 over all rows, then p + |Q| rows.

    p = round(r * n) enters unclamped and the row count saturates at n, so
    r = 1 returns exactly the vanilla form. Actual selected-row counts (the
    clamp to document length) live in the trace, not here.
    """
    return fused_flops_rows(config, n, round(r * n) + q_len)


def fused_flops_rows(config: ModelConfig, n: int, rows: int) -> float:
    """Same form with an explicit patched-row count (head/tail selection)."""
    rows = min(rows, n)
    return 2.0 * full_layer_flops(config, n) + (config.n_layers - 2) * rows * row_flops(config, n)


def question_only_flops(config: ModelConfig, n: int, q_len: int) -> float:
    """Plain concatenation: only the question propagates, at every layer."""
    return config.n_layers * q_len * row_flops(config, n)


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
