"""Selective recomputation over a fused chunk cache, plus the reuse baselines.

Every strategy runs the one prefill loop, `model._prefill_layers`, which
`prefill_forward` runs too, over the one pair of float32 buffers
`concat_chunks` lays out in `model.kv_buffers`' layout (column i is
position i): the chunks, then zeroed question rows. At each layer the
carried rows write fresh keys and values into it, whose other rows keep
the stored chunk entries bitwise, and attend over that layer as it lies;
the decode cache adopts the same buffers, so decode continues from the
cache the prefill attended to. Then one final-logits call and one
`FusionTrace`; concat's `chunkstore.FusedCache` is returned, its
selection, carried rows and question queries set. Only the row schedule
differs, and the loop takes it as its arguments. A request holds the
cache once plus one layer's scratch. The selective strategies recover
global positions and carry the rows from the system's last whole 32-row
tile on until layer 1's projections, which their selection step reads;
then the selected rows (Re) plus the question. The rows before keep
their stored entries at every layer, and the rest of the system span from
layer 2 on, a full prefill's bit for bit (see `model` on tile-aligned key
cuts). `full` rotates each chunk's columns of the buffer in place at its
local positions and carries the question alone, with no prefix and no
selection. The trace charges `flops.prefill_flops` for every row at
layers 0-1 when selecting, though not every row runs them, and for the
rows carried after, so a clamped budget pays for them;
`flops.fused_flops` models the unclamped budget.

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
arrays: concat copies them into the buffer, which each strategy rotates.

Every cached context prefix skips layer 0. A row attends only to the
rows before it, so its layer-1 input depends only on the tokens up to it
and the model, and repeats whenever that prefix does. A chain of entries
in the same store holds them, from the system's last whole tile: one per
document boundary but the last (the full context rarely repeats), each
rounded down to a whole 32-row tile and keyed by the model fingerprint,
its first row and the token bytes before its end; the first row depends
on how the context is cut into chunks. An entry holds only its rows'
float32 layer-1 inputs, exact because `block_out` returns float32.
The rows of the unbroken chain of entries that hit take those inputs and
run nothing at layer 0, whose keys and values depend only on each token
and its position and are the recovered stored ones. On a miss the
selection step, which sees every carried row's layer-1 input, stores the
entries from the first one missed on. Only whole attention tiles are
reused: a tile that straddled a boundary would run its value product over
a longer key range, which may sum in another order, so reusing it could
change bits. `full` never uses the entries. At the rag_shared shape an
entry is 0.12 MB (480 rows), against a chunk's 1.97 MB; both count
against the store's budget. The loop overwrites layers 0-1 of every
carried row, so `kv_diff` copies the stored layer-1 document values
before the loop.

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
    ChunkStore,
    FusedCache,
    SegmentMap,
    _rotate_keys,
    chunk_id,
    concat_chunks,
    load_chunk,
    recover_positions,
)
from .errors import ConfigError, ContractViolation, FingerprintError, InputError, ShapeError
from .model import (
    _TILE_ROWS,
    DTYPE,
    Model,
    _F64,
    _check_tokens,
    _prefill_layers,
    attention_weights,
    final_logits,
    tile_end,
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
class FusionTrace:
    strategy: str
    r: float
    p: int
    n: int
    n_ctx: int
    q_len: int
    selected: list[int]
    clamped: bool
    reused_rows: int = 0  # rows of the prefix entries that hit, which skip layer 0
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
    `keys` cover all n positions. A segment map puts the question last, so
    its rows sit at the last |Q| key positions, the layout
    `attention_weights` masks. Selection, eviction scoring and the
    attention-map loss all read question relevance from here.
    """
    q_span = segment_map.question_span
    if q_span.length == 0 or queries.shape[1] == 0:
        raise InputError("question attention needs a non-empty question span and query rows")
    if queries.shape[1] != q_span.length:
        raise ShapeError(f"expected {q_span.length} question rows, got {queries.shape[1]}")
    if keys.shape[1] != segment_map.n:
        raise ShapeError(f"keys must cover all {segment_map.n} positions, got {keys.shape[1]}")
    return attention_weights(queries, keys)


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


def _prefix_chain(fp: bytes, ids: np.ndarray, lengths: list[int]) -> list[tuple]:
    """The prefix entries of a context whose chunks have `lengths`: (store
    key, first row, end row) for every document boundary but the last,
    each rounded down to a whole tile, from the system's last whole tile,
    where the carried rows start. A span with no whole tile is left out.
    A key holds the model, the first row and the int64 token bytes of rows
    [0, end), which determine the entry; the first row depends on the
    chunking, not on the tokens, so the same tokens cut otherwise get
    other entries."""
    chain, start = [], lengths[0] // _TILE_ROWS * _TILE_ROWS
    for end in (np.cumsum(lengths)[1:-1] // _TILE_ROWS * _TILE_ROWS).tolist():
        if end > start:
            chain.append(((fp, start, ids[:end].tobytes()), start, end))
            start = end
    return chain


def fused_prefill(
    model: Model, segments: InputSegments, plan: FusionPlan, store
) -> tuple[FusedCache, np.ndarray, FusionTrace]:
    """Run the selective-recomputation prefill; returns the cache
    `concat_chunks` laid out, patched, the first-token logits and a trace.

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
    # A digest and id vouch for no shape, and a stored chunk is unrotated.
    want = (cfg.n_layers, cfg.n_heads, cfg.head_dim, False)
    for chunk in chunks:
        if chunk.keys.shape[:3] + (chunk.rope_applied,) != want:
            raise FingerprintError(f"chunk {chunk.chunk_id.hex()} does not have the model's "
                                   f"(layers, heads, head_dim) {want[:3]} and unrotated keys")
    chunk_bytes = sum(chunk.file_bytes for chunk in chunks)
    chunk_bytes_read = store.bytes_read - bytes_read
    durations["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused = concat_chunks(chunks, q_ids.size)
    if full:
        local = np.concatenate([np.arange(chunk.length, dtype=np.int64) for chunk in chunks])
        _rotate_keys(fused.key_buffer[..., :local.size], local, cfg)
    durations["concat"] = time.perf_counter() - t0

    k_buf, v_buf, segmap = fused.key_buffer, fused.value_buffer, fused.segments
    n, q_len = fused.n, int(q_ids.size)
    n_ctx = n - q_len
    question_queries = np.empty((cfg.n_layers, cfg.n_heads, q_len, cfg.head_dim), dtype=DTYPE)
    question_rows = np.arange(n_ctx, n, dtype=np.int64)

    # The schedule of the one prefill loop. `full` carries only the
    # question; the chunk rows all precede it, so causality follows from
    # the row offsets. The selective strategies carry the rows from the
    # system's last whole tile, take the layer-1 inputs of the unbroken
    # chain of entries that hit (`prefix`) and select after layer 1.
    prefix, select, scores_doc = [], None, None
    rset = RecomputeSet(indices=np.zeros(0, dtype=np.int64), p=0)  # `full` and `none`
    if full:
        rows, ids = question_rows, q_ids
    else:
        t0 = time.perf_counter()
        recover_positions(fused, cfg)
        durations["recover"] = time.perf_counter() - t0
        if plan.strategy == "kv_diff":
            # Layer 1's write below overwrites the stored values.
            stored = np.asarray(fused.values[1][:, segmap.document_offsets()], _F64, order="C")
        ids = np.concatenate([fused.token_ids.astype(np.int64), q_ids])
        # `chain` keeps the entries from the first one missed on.
        chain = _prefix_chain(fp, ids, [chunk.length for chunk in chunks])
        while chain and (inputs := store.get(chain[0][0])) is not None:
            prefix.append(inputs)
            del chain[0]
        start = len(segments.system) // _TILE_ROWS * _TILE_ROWS
        rows, ids = np.arange(start, n, dtype=np.int64), ids[start:]

        def select(q, k, x):
            nonlocal t0, rset, scores_doc, rows
            for key, begin, end in chain:
                inputs = x[begin - start:end - start].astype(DTYPE)
                inputs.flags.writeable = False
                store.put(key, inputs, inputs.nbytes)
            durations["layer01"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            # Scores are recorded for every selective strategy so the harness
            # can compare any selection against the attention oracle at
            # matched budget; the rows before `start` score with their stored keys.
            keys = np.concatenate([fused.keys[1][:, :start], k], axis=1)
            scores_doc = score_tokens(q[:, -q_len:], keys, segmap)
            if plan.strategy == "attention_aware":
                rset = select_recompute(scores_doc, plan.r, n, segmap)
            elif plan.strategy == "kv_diff":
                # Euclidean deviation of the stored layer-1 values from the
                # true ones, heads concatenated.
                fresh = np.asarray(fused.values[1][:, segmap.document_offsets()], _F64, order="C")
                deviation = np.sqrt(np.sum(np.square(stored - fresh), axis=(0, 2)))
                rset = select_recompute(deviation, plan.r, n, segmap)
            elif plan.strategy == "head_tail":
                rset = select_head_tail(segmap, plan.head_tail_k)
            rows = np.concatenate([rset.indices, question_rows])
            durations["select"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            return rows

    t0 = time.perf_counter()
    end = tile_end(n)
    x = _prefill_layers(model, ids, rows, k_buf[..., :end], v_buf[..., :end], prefix, select,
                        question_queries)
    durations["patch"] = time.perf_counter() - t0

    fused.recompute, fused.patched_offsets, fused.question_queries = rset, rows, question_queries
    trace = FusionTrace(
        strategy=plan.strategy, r=plan.r, p=rset.p, n=n, n_ctx=n_ctx, q_len=q_len,
        selected=[int(i) for i in rset.indices], clamped=rset.clamped,
        reused_rows=sum(map(len, prefix)), chunk_bytes=chunk_bytes, chunk_hits=chunk_hits,
        chunk_bytes_read=chunk_bytes_read, durations=durations,
        flops={
            "prefill": F.prefill_flops(cfg, n, rows.size, 0 if full else 2),
            "vanilla": F.vanilla_flops(cfg, n),
            "scoring": F.scoring_flops(cfg, n, q_len, n_ctx - len(segments.system), plan.strategy),
        },
        scores_doc=scores_doc,
    )
    return fused, final_logits(model, x)[0], trace

