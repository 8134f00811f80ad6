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
alone. At the last layer only the tile that holds the last row attends,
and only that row is finished (`model._attend_out`). The trace charges
`flops.prefill_flops` for the rows that ran (every row at layers 0-1
when selecting), so a clamped budget pays for them; `flops.fused_flops`
models the unclamped budget.

Chunks come from a `chunkstore.ChunkStore`, which keeps resident, under
one LRU and byte budget (`chunkstore.RESIDENT_BYTES`), the chunks it
verified from their files and the ones `chunkstore.store_chunk` wrote
into it, and serves one again while its file's stat signature is
unchanged; so documents stored just before a request are served as
written, without a read. A path stands for the process's one store for
that directory (a write to a path keeps nothing until a load has made
that directory's store the process's). Each chunk comes through
`chunkstore.load_chunk`, resident or read, and the store's read counters
give the trace's hits and bytes read. The loop only reads the resident
arrays: concat copies them, and `full` rotates copies.

Every cached context prefix skips layer 0's attention and block, and the
system's also skips the projections of layers 0-1. A row attends only to
the rows before it, so what layers 0-1 give it depends only on the tokens
up to it and the model, and repeats whenever that prefix does. A chain of
entries in the same store holds them: one for the system and one per
document boundary but the last (the full context rarely repeats), each
keyed by the model fingerprint, its first row and the token bytes before
its end, the boundary rounded down to a whole 32-row tile; the first row
depends on how the context is cut into chunks. The system's entry covers
its whole tiles, rows [0, pre), and holds their float32 layer 0-1 keys
and values and layer 1's float64 rotated keys, which scoring reads. A
document's entry covers the rows from the previous entry's end and holds
only their float32 layer-1 inputs, exact because `block_out` rounds
through float32; a document row may be selected, and then needs its input
at layer 1. On a hit the selective strategies carry rows from `pre` at
layers 0-1 and fill the system rows from its entry. Over the unbroken
chain of document entries that hit after it they still run layer 0's
projections, which depend only on each token and its position, but take
the layer-1 inputs from the entries and run layer 0's attention and block
from the chain's end only. A miss stores the entries from the first one
missed on. Only whole attention tiles are reused: a tile that straddled a
boundary would run its value product over a longer key range, which may
sum in another order, so reusing it could change bits. `full` never uses
the entries. At the rag_shared shape the system's entry is 0.74 MB and a
document's 0.12 MB, against a chunk's 1.97 MB; all count against the
store's budget. The selective strategies recover positions from layer 2
on: the loop overwrites every stored key of layers 0-1 or takes it from
the system's entry.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import flops as F
from .chunkstore import (
    ChunkStore,
    SegmentMap,
    chunk_id,
    concat_chunks,
    load_chunk,
    recover_positions,
    rotate_chunk_local,
)
from .errors import ConfigError, ContractViolation, InputError, ShapeError
from .model import (
    _TILE_ROWS,
    DTYPE,
    DecodeCache,
    Model,
    _F64,
    _attend_out,
    _check_tokens,
    _rope_table,
    attention_weights,
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
        return DecodeCache(self.keys, self.values)


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
    prefix_rows: int = 0  # system rows whose layers 0-1 came from the system's entry
    reused_rows: int = 0  # rows whose layer-0 attention and block came from document entries
    chunk_bytes: int = 0  # bytes of the chunk files served, each verified when it was read
    chunk_hits: int = 0  # chunks served resident
    chunk_bytes_read: int = 0  # bytes of the chunk files this call read and verified
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
            "prefix_rows": self.prefix_rows,
            "reused_rows": self.reused_rows,
            "chunk_bytes": self.chunk_bytes,
            "chunk_hits": self.chunk_hits,
            "chunk_bytes_read": self.chunk_bytes_read,
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


@dataclass(frozen=True)
class _SystemPrefix:
    """Layers 0-1 of the system's whole-tile prefix, rows [0, pre)."""

    keys: np.ndarray  # (2, H, pre, hd) float32, as the loop wrote them
    values: np.ndarray  # (2, H, pre, hd) float32
    k1: np.ndarray  # (H, pre, hd) float64, layer 1's rotated keys, which scoring reads

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes + self.k1.nbytes


def _entry_key(kind: str, fp: bytes, ids: np.ndarray, start: int, end: int) -> tuple:
    # A store key of a prefix entry for rows [start, end): what it holds,
    # the model, its first row, and the int64 token bytes of rows [0, end),
    # which determine it. The first row depends on the chunking, not on
    # the tokens, so the same tokens split otherwise get other entries.
    return (kind, fp, start, ids[:end].tobytes())


def _document_chain(fp: bytes, ids: np.ndarray, lengths: list[int], pre: int) -> list[tuple]:
    """The document entries of a context whose chunks have `lengths`, after
    the system's whole tiles [0, pre): (store key, first row, end row) for
    every document boundary but the last, rounded down to a whole tile. A
    span with no whole tile is left out."""
    chain, start = [], pre
    for end in (np.cumsum(lengths[:-1]) // _TILE_ROWS * _TILE_ROWS).tolist()[1:]:
        if end > start:
            chain.append((_entry_key("layer-1 inputs", fp, ids, start, end), start, end))
            start = end
    return chain


def fused_prefill(
    model: Model, segments: InputSegments, plan: FusionPlan, store
) -> tuple[PatchedCache, np.ndarray, FusionTrace]:
    """Run the selective-recomputation prefill; returns first-token logits.

    The system and document chunks must already be in `store`, a
    `ChunkStore` or a directory path (`ChunkStore.of`). The question is
    always computed fresh. See the module docstring for what each strategy
    does.
    """
    cfg = model.config
    if cfg.n_layers < 2:
        raise ConfigError("the selective pipeline needs at least 2 layers")
    q_ids = _check_tokens(cfg, segments.question)
    # Before any load: `chunk_id` hashes ids as uint32, unchecked.
    parts = [_check_tokens(cfg, part) for part in segments.context_chunks()]
    full = plan.strategy == "full"

    if not isinstance(store, ChunkStore):
        store = ChunkStore.of(store)

    durations: dict[str, float] = {}
    t0 = time.perf_counter()
    fp = cfg.fingerprint()
    reads, bytes_read = store.reads, store.bytes_read
    chunks = [load_chunk(chunk_id(part, fp), store) for part in parts]
    chunk_hits = len(chunks) - (store.reads - reads)
    chunk_bytes = sum(chunk.file_bytes for chunk in chunks)
    chunk_bytes_read = store.bytes_read - bytes_read
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
    cos, sin = _rope_table(pos, cfg)

    # The prefix entries in use: `prefix`, the system's, fills layers 0-1
    # of rows [0, first); `reused`, the unbroken chain of document entries
    # that hit after it, the layer-1 inputs of rows [first, attend). Layer
    # 0's attention and block run from `attend`; a miss stores `chain`'s
    # entries from the first one missed on.
    prefix, chain, reused, first, attend = None, [], [], 0, 0
    if full:
        # Only the question is carried; the chunk rows all precede it, so
        # causality follows from the row offsets.
        rset = RecomputeSet(indices=np.zeros(0, dtype=np.int64), p=0)
        scores_doc, rows, ids = None, question_rows, q_ids
    else:
        t0 = time.perf_counter()
        # Layers 0-1 of every stored key are overwritten or come from the system's entry.
        recover_positions(replace(fused, keys=fused.keys[2:]), cfg)
        durations["recover"] = time.perf_counter() - t0
        ids = np.concatenate([fused.token_ids.astype(np.int64), q_ids])
        pre = len(segments.system) // _TILE_ROWS * _TILE_ROWS
        prefix_key = _entry_key("layers 0-1", fp, ids, 0, pre)
        prefix = store.get(prefix_key) if pre else None
        first = pre if prefix is not None else 0
        chain = _document_chain(fp, ids, [chunk.length for chunk in chunks], pre)
        if first == pre:  # the system's entry hit, or there is none
            for key, _, _ in chain:
                inputs = store.get(key)
                if inputs is None:
                    break
                reused.append(inputs)
        attend = chain[len(reused) - 1][2] if reused else first
        rows, ids = pos[first:], ids[first:]

    # The one layer loop: the carried rows write their keys and values into
    # the stored layer, then attend over it. The selection, after layer 1's
    # projections, shrinks the carried rows to Re plus the question.
    t0 = time.perf_counter()
    # Layer 0 attends from `attend`; the rows before it take their layer-1
    # inputs from `reused`. Later layers attend from every carried row.
    skip = attend - first
    x, rope = model.weights.embedding[ids], (cos[rows], sin[rows])
    for l in range(cfg.n_layers):
        q, k, _, v = block_qkv(model, l, x, rope)
        if prefix is not None and l < 2:  # the rows before `first` come from the entry
            keys[l, :, :first] = prefix.keys[l]
            values[l, :, :first] = prefix.values[l]
        elif rows.size < n:  # else every stored entry is overwritten below
            keys[l, :, :n_ctx] = fused.keys[l]
            values[l, :, :n_ctx] = fused.values[l]
        keys[l][:, rows] = k.astype(DTYPE)
        values[l][:, rows] = v.astype(DTYPE)
        question_queries[l] = q[:, -q_len:].astype(DTYPE)
        if l == 1 and not full:
            if prefix is not None:
                k = np.concatenate([prefix.k1, k], axis=1)
            elif pre:
                made = _SystemPrefix(keys[:2, :, :pre].copy(), values[:2, :, :pre].copy(),
                                     k[:, :pre].copy())
                store.put(prefix_key, made, made.nbytes)
            durations["layer01"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            # Scores are recorded for every selective strategy so the harness
            # can compare any selection against the attention oracle at
            # matched budget.
            scores_doc = score_tokens(q[:, -q_len:], k, segmap)
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
            # Selected rows are documents or question, all at `first` or later.
            q, x, rope = q[:, rows - first], x[rows - first], (cos[rows], sin[rows])
            durations["select"] = time.perf_counter() - t0
            t0 = time.perf_counter()
        out = _attend_out(model, l, x[skip:], q[:, skip:], keys[l], values[l], rows[skip:], pos)
        x = np.concatenate(reused + [out]) if reused else out
        if l == 0:
            for key, start, end in chain[len(reused):]:
                inputs = x[start - first:end - first].astype(DTYPE)
                inputs.flags.writeable = False
                store.put(key, inputs, inputs.nbytes)
            skip, reused = 0, []
    durations["patch"] = time.perf_counter() - t0

    patched = PatchedCache(
        keys=keys, values=values, segments=segmap, recompute=rset, patched_offsets=rows,
        question_queries=question_queries, rope_recovered=not full,
    )
    trace = FusionTrace(
        strategy=plan.strategy, r=plan.r, p=rset.p, n=n, n_ctx=n_ctx, q_len=q_len,
        selected=[int(i) for i in rset.indices], clamped=rset.clamped, prefix_rows=first,
        reused_rows=attend - first,
        chunk_bytes=chunk_bytes, chunk_hits=chunk_hits,
        chunk_bytes_read=chunk_bytes_read, durations=durations,
        flops={
            "prefill": F.prefill_flops(cfg, n, rows.size, 0 if full else 2),
            "vanilla": F.vanilla_flops(cfg, n),
            "scoring": F.scoring_flops(cfg, n, q_len, n_ctx - len(segments.system), plan.strategy),
        },
        scores_doc=scores_doc,
    )
    return patched, final_logits(model, x[-1:])[0], trace

