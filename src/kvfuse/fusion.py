"""Selective recomputation over a fused chunk cache, plus the reuse baselines.

Every strategy runs one loop over the model's block from layer 0. At each
layer the carried rows write fresh keys and values into the stored layer,
whose other rows keep the stored chunk entries bitwise, and attend over
that float32 layer, so decode continues from the cache the prefill
attended to. Then one `PatchedCache`, one final-logits call and one
`FusionTrace`. Only the row schedule differs. The selective strategies
recover global positions and carry every row until layer 1's projections,
which the selection criteria read; then the selected rows (Re) plus the
question. `full` rotates each chunk locally and carries the question
alone. The trace charges `flops.prefill_flops` for the rows that ran
(every row at layers 0-1 when selecting), so a clamped budget pays for
them; `flops.fused_flops` models the unclamped budget.

Question relevance (`question_attention`) and the top-p rule (`_top_p`)
are written once, here; eviction and the harness call them too.

Strategies:
  attention_aware  top-p document tokens by summed question attention
  kv_diff          top-p by layer-1 value deviation from the true values
  head_tail        first and last k tokens of every document chunk
  none             no recomputation; position recovery only
  full             plain concatenation with per-chunk local positions,
                   question computed fresh; nothing else touched
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import flops as F
from .chunkstore import (
    SegmentMap,
    chunk_id,
    concat_chunks,
    load_chunk,
    recover_positions,
    rotate_chunk_local,
)
from .errors import ConfigError, ContractViolation, InputError, ShapeError
from .model import (
    DTYPE,
    DecodeCache,
    Model,
    _F64,
    _check_tokens,
    attention,
    attention_weights,
    block_out,
    block_qkv,
    final_logits,
)

STRATEGIES = ("attention_aware", "kv_diff", "head_tail", "none", "full")


@dataclass(frozen=True)
class FusionPlan:
    strategy: str
    r: float = 0.15
    head_tail_k: int = 20

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not (0.0 <= self.r <= 1.0):
            raise ConfigError(f"recompute ratio r must be in [0, 1], got {self.r}")
        if self.head_tail_k < 0:
            raise ConfigError(f"head_tail_k must be >= 0, got {self.head_tail_k}")


@dataclass
class InputSegments:
    """One request: system prompt, document chunks, question. Token ids."""

    system: np.ndarray
    documents: list[np.ndarray]
    question: np.ndarray

    def all_ids(self) -> np.ndarray:
        return np.concatenate(self.context_chunks() + [np.asarray(self.question)]).astype(np.int64)

    def context_chunks(self) -> list[np.ndarray]:
        return [np.asarray(self.system)] + [np.asarray(d) for d in self.documents]

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.context_chunks()) + len(self.question)


@dataclass
class RecomputeSet:
    indices: np.ndarray  # sorted global offsets, subset of document spans
    p: int
    clamped: bool = False

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ContractViolation("recompute indices must be strictly increasing")
        self.indices = idx


@dataclass
class PatchedCache:
    """Fused cache after the pipeline ran: stored chunk entries patched at the
    carried rows (selective: every row at layers 0-1, Re and the question at
    layers >= 2; `full`: the question rows at every layer). Each layer is
    exactly what the carried rows attended to."""

    keys: np.ndarray  # (L, H, n, hd) float32
    values: np.ndarray  # (L, H, n, hd) float32
    segments: SegmentMap
    recompute: RecomputeSet
    patched_offsets: np.ndarray  # carried rows (Re plus question)
    question_queries: np.ndarray  # (L, H, |Q|, hd) float32, rotated true queries
    rope_recovered: bool  # False only for `full`, whose chunks keep local rotation

    @property
    def n(self) -> int:
        return int(self.keys.shape[2])

    def to_decode_cache(self) -> DecodeCache:
        return DecodeCache(self.keys.copy(), self.values.copy(), self.n)


@dataclass
class FusionTrace:
    strategy: str
    r: float
    p: int
    n: int
    n_ctx: int
    q_len: int
    selected: list[int]
    clamped: bool
    durations: dict[str, float] = field(default_factory=dict)
    flops: dict[str, float] = field(default_factory=dict)
    scores_doc: np.ndarray | None = None  # kept for the harness, not serialized
    eviction: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "strategy": self.strategy,
            "r": self.r,
            "p": self.p,
            "n": self.n,
            "n_ctx": self.n_ctx,
            "q_len": self.q_len,
            "selected": [int(i) for i in self.selected],
            "clamped": self.clamped,
            "durations_s": {k: float(v) for k, v in self.durations.items()},
            "flops": {k: float(v) for k, v in self.flops.items()},
        }
        if self.eviction is not None:
            out["eviction"] = self.eviction
        return out


# ---------------------------------------------------------------------------
# Scoring and selection


def question_attention(queries: np.ndarray, keys: np.ndarray,
                       segment_map: SegmentMap) -> np.ndarray:
    """Causal attention weights (H, |Q|, n), float64, of the question rows
    over every position; `queries` are the question's rows at one layer,
    `keys` cover all n positions. Selection, eviction scoring and the
    attention-map loss all read question relevance from here.
    """
    q_span = segment_map.question_span
    if q_span.length == 0 or queries.shape[1] == 0:
        raise InputError("question attention needs a non-empty question span and query rows")
    if queries.shape[1] != q_span.length:
        raise ShapeError(f"expected {q_span.length} question rows, got {queries.shape[1]}")
    if keys.shape[1] != segment_map.n:
        raise ShapeError(f"keys must cover all {segment_map.n} positions, got {keys.shape[1]}")
    q_pos = np.arange(q_span.start, q_span.stop, dtype=np.int64)
    return attention_weights(queries, keys, q_pos, np.arange(segment_map.n, dtype=np.int64))


def score_tokens(q_true: np.ndarray, k_true: np.ndarray, segment_map: SegmentMap) -> np.ndarray:
    """Question-relevance score per document token: question attention
    averaged over heads and summed over question rows. The softmax runs
    over every visible position, so a score is actual attention mass."""
    weights = question_attention(q_true, k_true, segment_map)
    return weights.mean(axis=0).sum(axis=0)[segment_map.document_offsets()]


def _top_p(scores: np.ndarray, doc_offsets: np.ndarray, p: int) -> np.ndarray:
    # Highest score first, ties toward the lower offset: lexsort's last key dominates.
    order = np.lexsort((doc_offsets, -np.asarray(scores, dtype=_F64)))
    return np.sort(doc_offsets[order[:p]])


def select_recompute(scores: np.ndarray, r: float, n: int, segment_map: SegmentMap) -> RecomputeSet:
    """Top-p document offsets by score; p = round(r * n) clamped to the documents."""
    if not (0.0 <= r <= 1.0):
        raise ConfigError(f"r must be in [0, 1], got {r}")
    doc = segment_map.document_offsets()
    scores = np.asarray(scores, dtype=_F64)
    if scores.shape != doc.shape:
        raise ShapeError(f"scores cover {scores.shape[0]} tokens, documents have {doc.shape[0]}")
    p_raw = round(r * n)
    p = min(p_raw, doc.shape[0])
    return RecomputeSet(indices=_top_p(scores, doc, p), p=p, clamped=p_raw > doc.shape[0])


def select_head_tail(segment_map: SegmentMap, k: int) -> RecomputeSet:
    """First and last k tokens of every document chunk, deduplicated."""
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    picked: list[np.ndarray] = []
    for span in segment_map.document_spans():
        local = np.union1d(np.arange(0, min(k, span.length)),
                           np.arange(max(span.length - k, 0), span.length))
        picked.append(local + span.start)
    indices = np.unique(np.concatenate(picked)) if picked else np.zeros(0, dtype=np.int64)
    return RecomputeSet(indices=indices.astype(np.int64), p=int(indices.size))


def hit_rate(selected: RecomputeSet, oracle_topk: RecomputeSet) -> float:
    """|selected intersect oracle| / p; an empty budget counts as a full hit."""
    if selected.p != oracle_topk.p:
        raise ContractViolation(
            f"budgets differ: {selected.p} vs {oracle_topk.p}; compare at matched p"
        )
    if selected.p == 0:
        return 1.0
    inter = np.intersect1d(selected.indices, oracle_topk.indices)
    return float(inter.size) / float(selected.p)


# ---------------------------------------------------------------------------
# Fused prefill


def fused_prefill(
    model: Model, segments: InputSegments, plan: FusionPlan, store_dir
) -> tuple[PatchedCache, np.ndarray, FusionTrace]:
    """Run the selective-recomputation prefill; returns first-token logits.

    The system and document chunks must already be in the store. The
    question is always computed fresh. See the module docstring for what
    each strategy does.
    """
    cfg = model.config
    if cfg.n_layers < 2:
        raise ConfigError("the selective pipeline needs at least 2 layers")
    q_ids = _check_tokens(cfg, segments.question)
    full = plan.strategy == "full"

    durations: dict[str, float] = {}
    t0 = time.perf_counter()
    fp = cfg.fingerprint()
    chunks = [load_chunk(chunk_id(part, fp), store_dir) for part in segments.context_chunks()]
    if full:
        chunks = [rotate_chunk_local(chunk, cfg) for chunk in chunks]
    durations["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused = concat_chunks(chunks)
    durations["concat"] = time.perf_counter() - t0

    n_ctx, q_len = fused.n, int(q_ids.size)
    n = n_ctx + q_len
    segmap = fused.segments.with_question_length(q_len)
    keys = np.empty((cfg.n_layers, cfg.n_heads, n, cfg.head_dim), dtype=DTYPE)
    values = np.empty_like(keys)
    question_queries = np.empty((cfg.n_layers, cfg.n_heads, q_len, cfg.head_dim), dtype=DTYPE)
    question_rows = np.arange(n_ctx, n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)

    if full:
        # Only the question is carried; the chunk rows all precede it, so
        # causality follows from the row offsets.
        rset = RecomputeSet(indices=np.zeros(0, dtype=np.int64), p=0)
        scores_doc, rows, ids = None, question_rows, q_ids
    else:
        t0 = time.perf_counter()
        recover_positions(fused, cfg)
        durations["recover"] = time.perf_counter() - t0
        rows, ids = pos, np.concatenate([fused.token_ids.astype(np.int64), q_ids])

    # The one layer loop: the carried rows write their keys and values into
    # the stored layer, then attend over it. The selection, after layer 1's
    # projections, shrinks the carried rows to Re plus the question.
    t0 = time.perf_counter()
    x = np.asarray(model.weights.embedding[ids], dtype=_F64)
    for l in range(cfg.n_layers):
        q, k, _, v = block_qkv(model, l, x, rows)
        keys[l, :, :n_ctx] = fused.keys[l]
        values[l, :, :n_ctx] = fused.values[l]
        keys[l][:, rows] = k.astype(DTYPE)
        values[l][:, rows] = v.astype(DTYPE)
        question_queries[l] = q[:, -q_len:].astype(DTYPE)
        if l == 1 and not full:
            durations["layer01"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            # Scores are recorded for every selective strategy so the harness
            # can compare any selection against the attention oracle at
            # matched budget.
            scores_doc = score_tokens(q[:, n_ctx:], k, segmap)
            if plan.strategy == "attention_aware":
                rset = select_recompute(scores_doc, plan.r, n, segmap)
            elif plan.strategy == "kv_diff":
                # Euclidean deviation of the stored layer-1 values from the
                # true ones, heads concatenated.
                doc = segmap.document_offsets()
                diff = (np.asarray(fused.values[1][:, doc], dtype=_F64)
                        - np.asarray(values[1][:, doc], dtype=_F64))
                deviation = np.sqrt(np.sum(np.square(diff), axis=(0, 2)))
                rset = select_recompute(deviation, plan.r, n, segmap)
            elif plan.strategy == "head_tail":
                rset = select_head_tail(segmap, plan.head_tail_k)
            else:  # none
                rset = RecomputeSet(indices=np.zeros(0, dtype=np.int64), p=0)
            rows = np.concatenate([rset.indices, question_rows])
            q, x = q[:, rows], x[rows]
            durations["select"] = time.perf_counter() - t0
            t0 = time.perf_counter()
        attn = attention(
            q, np.asarray(keys[l], dtype=_F64), np.asarray(values[l], dtype=_F64), rows, pos
        )
        x = block_out(model, l, x, attn)
    durations["patch"] = time.perf_counter() - t0

    patched = PatchedCache(
        keys=keys, values=values, segments=segmap, recompute=rset, patched_offsets=rows,
        question_queries=question_queries, rope_recovered=not full,
    )
    trace = FusionTrace(
        strategy=plan.strategy, r=plan.r, p=rset.p, n=n, n_ctx=n_ctx, q_len=q_len,
        selected=[int(i) for i in rset.indices], clamped=rset.clamped, durations=durations,
        flops={
            "prefill": F.prefill_flops(cfg, n, rows.size, 0 if full else 2),
            "vanilla": F.vanilla_flops(cfg, n),
            "scoring": F.scoring_flops(cfg, n, q_len, n_ctx - len(segments.system), plan.strategy),
        },
        scores_doc=scores_doc,
    )
    return patched, final_logits(model, x[-1:])[0], trace

