"""Deterministic toy decoder-only transformer.

Pre-norm RMS blocks with rotary position embeddings and a plain two-matrix
SiLU feed-forward. Built for reproducibility rather than speed: the same
tokens give the same numbers regardless of how the sequence was sliced.

One precision rule holds for the whole block. Values are float32: the
weights, which a counter-based generator draws per tensor as float32 and
`build_model` holds as drawn, the hidden states between layers, the
chunk, fused and decode caches and the logits. The arithmetic is float32
too: the RMS norms, the Q/K/V, output and feed-forward products and the
SiLU in `block_qkv`, `block_out` and `final_logits`, and attention's two
products and softmax core, over the float32 cache as stored in the one
layout of `kv_buffers` that a prefill writes and a `DecodeCache` adopts.
Float64 is kept only where it is needed: the RoPE table and the rotation
of the q and k heads, so that the one float32 rounding of a rotated key
is the one recovery gives a stored raw key; attention's final divide by
the sums, from the values' ones row, which `block_out` rounds to float32
once; and `attention_weights`, the question-relevance scorer, whose
weights decide the selection. `tests/block_reference.py` bounds the
blocks' float32 round-off against a float64 restatement.

Attention cuts keys on tile edges. Query rows run in tiles of 32, and
`attention` cuts a tile's keys at the end of the 32-key tile that holds
the last key some row of it sees (`tile_end`), not at that key, and runs
every tile's products over 32 rows, the last tile's padded. The prefills
pass their buffers through `tile_end` of the cache's rows, whose spare
rows `kv_buffers` zeroes. So the products a row makes depend on its tile
alone, not on the keys or rows that follow: a stored chunk's rows, its
partial last tile included, make a full prefill's products, and a
recovered stored entry wherever the stored row saw its whole context
(the system span at every layer, every chunk at layer 0) is a full
prefill's bit for bit.

The block is written once, split at the attention: `block_qkv` projects a
set of rows, the caller decides which keys they attend to, and `block_out`
finishes the layer. Two loops run it: `_prefill_layers`, the one prefill
loop, which `prefill_forward` and every strategy of `fusion` call with
their row schedules, and `decode_step` (one row over a growing cache);
`final_logits` ends both. The prefill loop runs each layer in blocks of
rows, so a layer's scratch stays one block's, and finishes only the last
row at its last layer. Each layer holds its Q, K and V weights
stacked in one (3, d_model, d_model) array, so `block_qkv` runs one
projection product and rotates the q and k heads in one call; the weights
take no more memory than three separate matrices.

A float32 product of one row takes NumPy's matrix-vector path, whose sums
differ from a many-row product's, so no product a prefill makes has one
row unless the prefill carries one: `_row_blocks` never cuts a one-row
block, and the last row is finished as a two-row product.

The norm and the rotation each have two forms with the same bits, picked
by the row count, since one row pays each array call's fixed cost in full.
The RMS norm has no gain (a unit gain multiplies by 1.0, which is exact).
Many rows finish `_rmsnorm` in float32 array calls; one row finishes its
divide, add and square root on Python floats, each result rounded to
float32: an IEEE double carries more than 2 * 24 + 2 bits, so a double
operation rounded to float32 is the float32 operation. Many rows get a
(cos, sin) table that `_rotate` applies over strided even and odd views; a
decode step's one row gets an interleaved `_RopeRow`, which `_rotate_row`
applies in three array operations and which is the slower form over many
rows. The frequencies theta_i are computed once per (rope_base, head_dim).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolation, InputError, ShapeError

# The dtype of every value and of the blocks' and attention's arithmetic;
# float64 only in the rotation, attention's divide and `attention_weights`
# (see the module doc).
DTYPE = np.float32
_F64 = np.float64

_NORM_EPS = 1e-6
_NORM_EPS32 = DTYPE(_NORM_EPS)  # what float32 arithmetic adds for _NORM_EPS

# Per-tensor stream ids for the counter-based init generator. A layer's
# block starts at _LAYER_BASE + 6 * layer_index.
_STREAM_EMBED = 0
_STREAM_UNEMBED = 1
_LAYER_BASE = 2
_STREAMS_PER_LAYER = 6


# A bool is an int to isinstance, but never a valid count, seed or number
# in a config.
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed of the toy model.

    d_model may be omitted (passed as 0); it is then derived as
    n_heads * head_dim, and must equal that product when given.
    """

    n_layers: int
    n_heads: int
    head_dim: int
    d_ff: int
    vocab_size: int
    seed: int
    d_model: int = 0
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        # An integer beyond the float range is refused before `float` overflows.
        if not (_is_number(self.rope_base) and 1.0 < self.rope_base <= sys.float_info.max):
            raise ConfigError(f"rope_base must be a finite number > 1, got {self.rope_base!r}")
        object.__setattr__(self, "rope_base", float(self.rope_base))
        for name in ("n_layers", "n_heads", "head_dim", "d_ff", "vocab_size", "d_model"):
            if name == "d_model" and self.d_model == 0:  # its factors are checked by now
                object.__setattr__(self, "d_model", self.n_heads * self.head_dim)
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary pairs, got {self.head_dim}")
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(
                f"d_model={self.d_model} != n_heads*head_dim={self.n_heads * self.head_dim}"
            )
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        required = allowed - {"d_model", "rope_base"}
        missing = required - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self) -> bytes:
        """256-bit digest of the canonical config, seed included."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).digest()


@dataclass
class LayerWeights:
    wqkv: np.ndarray  # (3, d_model, d_model): Wq, Wk, Wv stacked
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray


@dataclass
class ModelWeights:
    embedding: np.ndarray  # (vocab, d_model)
    layers: list[LayerWeights]
    unembed: np.ndarray  # (d_model, vocab)


@dataclass
class Model:
    """A config and its weights, the float32 arrays `build_model` draws."""

    config: ModelConfig
    weights: ModelWeights


def _draw_uniform(seed: int, stream: int, shape: tuple[int, ...], scale: float) -> np.ndarray:
    # Counter-based generator keyed (seed, stream): per-tensor draws are
    # independent of the order tensors are created in.
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(-scale, scale, size=shape).astype(DTYPE)


def build_model(config: ModelConfig) -> Model:
    """The model of `config`: every projection matrix drawn uniform in
    [-1/sqrt(d_model), +1/sqrt(d_model)] as float32, a pure function of the
    config, seed included, and held as drawn; the blocks multiply it in
    float32 (see the module doc).
    """
    d = config.d_model
    scale = 1.0 / np.sqrt(d)

    def draw(stream: int, shape: tuple[int, ...]) -> np.ndarray:
        return _draw_uniform(config.seed, stream, shape, scale)

    layers = []
    for l in range(config.n_layers):
        base = _LAYER_BASE + _STREAMS_PER_LAYER * l
        layers.append(
            LayerWeights(
                wqkv=np.stack([draw(base + i, (d, d)) for i in range(3)]),  # Wq, Wk, Wv
                wo=draw(base + 3, (d, d)),
                w_in=draw(base + 4, (d, config.d_ff)),
                w_out=draw(base + 5, (config.d_ff, d)),
            )
        )
    weights = ModelWeights(
        embedding=draw(_STREAM_EMBED, (config.vocab_size, d)),
        layers=layers,
        unembed=draw(_STREAM_UNEMBED, (d, config.vocab_size)),
    )
    return Model(config=config, weights=weights)


# ---------------------------------------------------------------------------
# Rotary position embedding


def rope_rotate(vectors: np.ndarray, positions, config: ModelConfig) -> np.ndarray:
    """Rotate consecutive coordinate pairs (x_2i, x_2i+1) by angle m * theta_i.

    theta_i = rope_base ** (-2i / head_dim). `vectors` has head_dim as its
    last axis; `positions` broadcasts against the second-to-last axis (a
    scalar is accepted for a single vector). Returns float64.
    """
    v = np.asarray(vectors, dtype=_F64)
    if v.shape[-1] != config.head_dim:
        raise ShapeError(f"last axis {v.shape[-1]} != head_dim {config.head_dim}")
    return _rotate(v, *_rope_table(positions, config))


@functools.lru_cache(maxsize=16)
def _theta(rope_base: float, head_dim: int) -> np.ndarray:
    # theta_i = rope_base ** (-2i / head_dim), a function of the config
    # alone, so it is computed once per (rope_base, head_dim). Read-only,
    # since every table of that config shares it.
    i = np.arange(head_dim // 2, dtype=_F64)
    theta = np.asarray(rope_base, dtype=_F64) ** (-2.0 * i / head_dim)
    theta.setflags(write=False)
    return theta


def _rope_table(positions, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    # cos and sin of m * theta_i, (..., n, head_dim / 2) float64.
    pos = np.asarray(positions, dtype=_F64)
    if (pos < 0).any():
        raise InputError("positions must be >= 0")
    angles = pos[..., None] * _theta(config.rope_base, config.head_dim)
    return np.cos(angles), np.sin(angles)


class _RopeRow(NamedTuple):
    """The table of one position in interleaved form, for `_rotate_row`:
    `c` (head_dim,) holds cos_i at both coordinates of pair i, and `s`
    (head_dim / 2, 2) holds the pair (-sin_i, +sin_i)."""

    c: np.ndarray
    s: np.ndarray


# Signs of the (-sin, +sin) pair; multiplying by -1.0 negates exactly.
_PAIR_SIGNS = np.array([-1.0, 1.0])


def _rope_row(position: int, config: ModelConfig) -> _RopeRow:
    # `_rope_table([position])`'s check and angles without its arrays: the
    # same double position and rounded products, so the same values.
    if position < 0:
        raise InputError("positions must be >= 0")
    angles = float(position) * _theta(config.rope_base, config.head_dim)
    return _RopeRow(np.cos(angles).repeat(2), np.sin(angles)[:, None] * _PAIR_SIGNS)


def _rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # out_even = even * cos - odd * sin, out_odd = even * sin + odd * cos,
    # the same rounded products and sums as those expressions, built in
    # `out` so that only one temporary of half v's size is made: rotating
    # q and k together would otherwise double the temporaries' peak. `out`
    # is float64 whatever v's dtype, so float32 heads rotate as their
    # exact float64 values do.
    even, odd = v[..., 0::2], v[..., 1::2]
    out = np.empty(v.shape, dtype=_F64)
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    np.multiply(even, cos, out=out_even)
    out_even -= np.multiply(odd, sin, out=out_odd)
    np.multiply(odd, cos, out=out_odd)
    out_odd += even * sin
    return out


def _rotate_row(v: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # `_rotate` by a `_RopeRow` table in three array operations:
    # out_even = even * cos + odd * (-sin) and out_odd = odd * cos +
    # even * sin, the same rounded products and sums, since a + (-b) is
    # a - b and a sum does not depend on the order of its two terms. The
    # pair axis reversed makes NumPy loop over runs of two, which costs
    # more than `_rotate`'s calls over many rows but less for one.
    out = v * c
    pairs = out.reshape(out.shape[:-1] + s.shape[-2:])  # a view: the last axis split
    pairs += v.reshape(pairs.shape)[..., ::-1] * s
    return out


# ---------------------------------------------------------------------------
# Attention


# Query rows per attention tile, and the bytes of float32 scores one pass
# over a tile may hold. `attention` runs the tiles over groups of heads,
# the most heads whose tile score blocks fit `_GROUP_BYTES`, at least one,
# so a pass's scores, keys and values stay in a 2 MB L2 cache through
# every pass of the softmax. At the rag_shared shape (4 heads, 1464 keys)
# one head's 32-row block is 183 KiB, so two heads share a pass, which
# beat one head a pass there; at 1024 keys or fewer all 4 heads run in
# one pass.
_TILE_ROWS = 32
_GROUP_BYTES = 2**19

_HEADROOM = 64  # spare rows of a new cache buffer, and a decode cache's least growth


def tile_end(n):
    """The end of the 32-key tile that holds key n - 1: n rounded up to a
    multiple of 32. Works on integers and integer arrays alike."""
    return -(-n // _TILE_ROWS) * _TILE_ROWS


def kv_buffers(n_layers: int, n_heads: int, head_dim: int, rows: int):
    """Float32 buffers for `rows` rows, which the caller writes, and
    `_HEADROOM` zeroed spare, in the one layout prefill and decode attention
    read, a row per column: keys (L, H, head_dim, capacity) and values (L,
    H, head_dim + 1, capacity) whose last row is ones, so one product gives
    the outputs and their sums. The spare rows through `tile_end(rows)` are
    the zero rows `attention` reads past the last key."""
    keys = np.empty((n_layers, n_heads, head_dim, rows + _HEADROOM), dtype=DTYPE)
    values = np.empty((n_layers, n_heads, head_dim + 1, rows + _HEADROOM), dtype=DTYPE)
    keys[..., rows:] = 0
    values[..., rows:] = 0
    values[:, :, head_dim] = 1.0
    return keys, values


def kv_rows(buffer: np.ndarray, n: int, head_dim: int) -> np.ndarray:
    """The first `n` rows of a `kv_buffers` buffer, a (..., n, head_dim) view."""
    return buffer[..., :head_dim, :n].swapaxes(-1, -2)


def kv_layout(keys, values):
    """New `kv_buffers` holding the (L, H, n, hd) rows `keys`/`values`."""
    h, n, hd = keys[0].shape
    k_buf, v_buf = kv_buffers(len(keys), h, hd, n)
    for l in range(len(keys)):
        kv_rows(k_buf[l], n, hd)[...] = keys[l]
        kv_rows(v_buf[l], n, hd)[...] = values[l]
    return k_buf, v_buf


def attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    q_positions: np.ndarray,
) -> np.ndarray:
    """Causal scaled dot-product attention over keys at positions 0..n-1.

    Queries are (n_heads, rows, head_dim); keys (n_heads, head_dim, n) and
    values (n_heads, head_dim + 1, n) are one layer of the cache as
    `kv_buffers` lays it out, float32, read where they are: key row j sits
    at position j, and the causal mask admits j <= query position. Query
    rows are processed in tiles of 32, so the score matrix never
    materializes at full n x n, and every tile's products run 32 rows: the
    last tile is padded with zero queries, since the float32 value product
    gives a row other bits in a partial block of rows (BLAS handles the
    rows past a multiple of its block with other kernels), and a row must
    not change its bits with the rows that follow it. A tile
    scores the keys through the end of the 32-key tile that holds the last
    key some row of it can see, min(`tile_end`(latest row + 1), n), since
    every later tile is hidden from all its rows (the block skipping of
    FlashAttention), and masks only the band from the first key hidden
    from some row of it. The cut depends only on the latest row's tile, not
    on how many keys follow, so a row's products are the same whether the
    keys past that tile's end exist or not: the prefills pass the buffer
    through `tile_end` of their key count, whose spare rows `kv_buffers`
    zeroes (a hidden key then adds an exact zero). The call checks once
    that every row sees a key: that there is one and no position is
    negative.

    The tiles then run over groups of heads: the most heads whose tile
    score blocks together fit `_GROUP_BYTES`, at least one, so a tile's
    scores stay in cache. Every head makes the same products, with the same
    shapes and strides, whatever its group, so the grouping never changes a
    bit. The queries are scaled by 1/sqrt(head_dim) and rounded to float32
    once. The score product, the shared max shift and exponential and the
    product with the values, ones row included, run in float32; that
    product gives both the unnormalised outputs and, from the ones row, the
    row sums, so a tile divides once over (rows, head_dim), in float64, and
    never sums or scales its score block. This is `DecodeCache.attend`'s
    precision rule. Returns float64.
    """
    q = np.asarray(queries, dtype=_F64)
    k = np.asarray(keys, dtype=DTYPE)
    v = np.asarray(values, dtype=DTYPE)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("queries, keys and values must be 3-D")
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeError(f"head counts differ: {q.shape[0]}, {k.shape[0]}, {v.shape[0]}")
    if k.shape[2] != v.shape[2] or k.shape[1] != q.shape[2] or v.shape[1] != q.shape[2] + 1:
        raise ShapeError("keys/values misaligned with queries")
    rows = q.shape[1]
    if rows == 0:
        return np.empty_like(q)
    qpos = np.asarray(q_positions, dtype=np.int64)
    h, hd, n = k.shape
    if n == 0 or qpos.min() < 0:
        raise ContractViolation("a query row has no visible key")
    starts = np.arange(0, rows, _TILE_ROWS)
    cuts = np.minimum(tile_end(np.maximum.reduceat(qpos, starts) + 1), n)
    bands = np.minimum(np.minimum.reduceat(qpos, starts) + 1, cuts)
    # Each tile's rows, key cut, band start and the mask of its band, whose
    # rows are the tile's: a partial last tile's padding is never masked.
    tiles = [(slice(start, start + _TILE_ROWS), cut, band,
              np.arange(band, cut)[None, :] > qpos[start:start + _TILE_ROWS, None])
             for start, cut, band in zip(starts.tolist(), cuts.tolist(), bands.tolist())]
    group = max(1, _GROUP_BYTES // (_TILE_ROWS * n * np.dtype(DTYPE).itemsize))
    # Zero queries pad the last tile to 32 rows; their scores, all zero, are
    # never exponentiated, and their outputs are dropped.
    scaled = np.zeros((h, tile_end(rows), hd), dtype=DTYPE)
    scaled[:, :rows] = q * (1.0 / np.sqrt(hd))
    out = np.empty_like(q)
    for first in range(0, h, group):
        heads = slice(first, first + group)
        for tile, cut, band, hidden in tiles:
            scores = np.matmul(scaled[heads, tile], k[heads, :, :cut])
            seen = scores[:, :hidden.shape[0]]
            if band < cut:
                np.copyto(seen[..., band:], -np.inf, where=hidden)
            _softmax_exp(seen)
            ext = scores @ v[heads, :, :cut].swapaxes(1, 2)
            np.divide(ext[:, :seen.shape[1], :hd], ext[:, :seen.shape[1], hd:],
                      out=out[heads, tile], dtype=_F64)
    return out


def attention_weights(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Causal softmax weight matrices (n_heads, rows, keys), float64, of
    query rows at the last `rows` of key positions 0..keys-1, so every row
    sees key 0 and the mask is a strict upper triangle over the last
    `rows` keys.

    The masked softmax of `attention`, kept in float64 since the weights
    decide the selection; `fusion.question_attention` reads them. It
    scales the scores and sums their exponentials itself, so the weights
    are bit for bit those of one `np.where` mask over the whole scaled
    score matrix.
    """
    # C order: a cache's row view converts in its buffer's order otherwise,
    # and the product would read other strides.
    q = np.asarray(queries, dtype=_F64, order="C")
    k = np.asarray(keys, dtype=_F64, order="C")
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"head counts differ: {q.shape[0]} vs {k.shape[0]}")
    rows, n = q.shape[1], k.shape[1]
    scores = np.matmul(q, k.transpose(0, 2, 1))
    np.copyto(scores[..., n - rows:], -np.inf, where=np.triu(np.ones((rows, rows), bool), 1))
    scores *= 1.0 / np.sqrt(q.shape[-1])
    exp = _softmax_exp(scores)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def _softmax_exp(scores: np.ndarray) -> np.ndarray:
    # The one softmax core of prefill and decode: shift each row by its
    # maximum and exponentiate, in place in `scores`, which it returns.
    # Callers scale before it and normalise after it.
    scores -= scores.max(axis=-1, keepdims=True)
    return np.exp(scores, out=scores)


# ---------------------------------------------------------------------------
# Layers


@dataclass
class LayerKV:
    keys: np.ndarray  # (n_heads, n, head_dim) float32
    values: np.ndarray  # (n_heads, n, head_dim) float32
    rope_applied: bool

    @property
    def length(self) -> int:
        return self.keys.shape[1]


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    # Over float32 rows. np.mean is this reduction and the divide; called
    # directly it gives the same bits without mean's dispatch. One row
    # finishes on Python floats, with the same bits (see the module doc).
    ss = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    if ss.size == 1:
        mean = DTYPE(ss.item() / x.shape[-1])
        return x / DTYPE(math.sqrt(mean + _NORM_EPS32))
    return x / np.sqrt(ss / x.shape[-1] + _NORM_EPS)


def _silu(x: np.ndarray) -> np.ndarray:
    # x / (1 + exp(-x)), the same ops in the same order, in one temporary.
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t)


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    # (..., n, d_model) -> (..., n_heads, n, head_dim)
    return x.reshape(*x.shape[:-1], n_heads, head_dim).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (n_heads, n, head_dim) -> (n, d_model) float32, rounded in one pass.
    h, n, d = x.shape
    return x.transpose(1, 0, 2).astype(DTYPE, order="C").reshape(n, h * d)


def block_qkv(model: Model, layer: int, x: np.ndarray, rope: tuple[np.ndarray, np.ndarray]):
    """First half of a pre-norm block over the given rows: norm1, one
    product with the stacked Q/K/V weights, and one rotation of the q and k
    heads by `rope`, the rows' table, which a forward builds once for all
    its layers: the (cos, sin) `_rope_table` of many rows, rotated by
    `_rotate`, or the `_RopeRow` of a decode step's one row, rotated by
    `_rotate_row`. Both give the same bits. The norm and the product run
    in float32; the rotation runs in float64 (see the module doc).

    Returns (q_rot, k_rot, k_raw, v), each (n_heads, rows, head_dim): the
    rotated heads float64, the raw keys and the values float32. What the
    rows attend to is the caller's choice; `block_out` finishes.
    """
    cfg, lw = model.config, model.weights.layers[layer]
    # (3, rows, d_model): q, k and v each one contiguous block, the layout
    # of three separate products, so the rotation reads them as fast.
    qkv = _split_heads(_rmsnorm(np.asarray(x, dtype=DTYPE)) @ lw.wqkv, cfg.n_heads, cfg.head_dim)
    rotate = _rotate_row if isinstance(rope, _RopeRow) else _rotate
    q_rot, k_rot = rotate(qkv[:2], *rope)
    return q_rot, k_rot, qkv[1], qkv[2]


def block_out(model: Model, layer: int, x: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """Second half of the block: t = x + Wo(attn); out = t + FFN(norm2(t)).

    `attn` is (n_heads, rows, head_dim), attention's float64 output, which
    is rounded to float32 once; the rest runs in float32 and returns the
    float32 layer output, so every path that carries a row sees the same
    layer inputs.
    """
    lw = model.weights.layers[layer]
    t = np.asarray(x, dtype=DTYPE) + _merge_heads(attn) @ lw.wo
    t += _silu(_rmsnorm(t) @ lw.w_in) @ lw.w_out
    return t


# Rows per block of `_prefill_layers`. A row's products have the bits of
# one product over every row unless its block has one row, which takes
# NumPy's matrix-vector path, so no block has one.
_BLOCK_ROWS = 128


def _row_blocks(rows: int) -> list[slice]:
    ends = list(range(_BLOCK_ROWS, rows, _BLOCK_ROWS))
    if ends and rows - ends[-1] == 1:
        ends.pop()
    return [slice(a, b) for a, b in zip([0] + ends, ends + [rows])]


def _columns(rows: np.ndarray):
    # Increasing positions as buffer columns: a run of consecutive ones as
    # a slice, which a write copies as strided blocks rather than scattering
    # column by column as an index array does.
    if rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def final_logits(model: Model, x: np.ndarray) -> np.ndarray:
    """Final norm and unembedding of the given rows; (rows, vocab) float32."""
    return _rmsnorm(np.asarray(x, dtype=DTYPE)) @ model.weights.unembed


# ---------------------------------------------------------------------------
# Prefill


@dataclass
class PrefillResult:
    caches: list[LayerKV]  # rotated keys, positions 0..n-1
    logits: np.ndarray  # (vocab,) float32, last row
    queries: list[np.ndarray] | None = None  # per layer (H, n, hd) float32, rotated


def _check_tokens(config: ModelConfig, token_ids) -> np.ndarray:
    # A sequence stays Python objects until checked: NumPy would truncate
    # 1.7 to 1, turn [-1, 2**63] into floats and raise OverflowError on an
    # id beyond 64 bits.
    ids = token_ids if isinstance(token_ids, np.ndarray) else np.array(token_ids, dtype=object)
    if ids.ndim != 1 or ids.shape[0] < 1:
        raise InputError("token_ids must be a non-empty 1-D sequence")
    integers = ids.dtype.kind in "iu" or (
        ids.dtype == object and all(_is_int(i) or isinstance(i, np.integer) for i in ids))
    if not integers:
        raise InputError("token ids must be integers, not booleans, floats or strings")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(
            f"token id out of vocabulary [0, {config.vocab_size}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return ids.astype(np.int64, copy=False)


def _prefill_layers(model: Model, ids: np.ndarray, rows: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, prefix=(), select=None, queries=None,
                    raw=None) -> np.ndarray:
    """The one prefill loop; returns the last row's output of the last
    layer, (1, d_model) float32. Vanilla carries every row, `full` the
    question, the selective strategies the rows from the system's last
    whole tile on and then their selection.

    The carried rows, increasing positions `rows` that end at the last
    one, hold the tokens `ids`. `prefix` holds, in order, the float32
    layer-1 inputs of the first ones, whose layer-0 keys and values lie in
    the buffers already, so only the rows after them run layer 0. At each
    layer `block_qkv` runs over `_row_blocks` of the rows, writes each
    block's rotated keys and values into the layer of `keys`/`values`
    (`kv_buffers` cut at `tile_end` of the cache's rows; the other rows
    keep what they hold) and drops the rest but the queries. The rows
    attend over the layer as it lies and run `block_out` over the same
    blocks. After layer 1's projections `select(q, k, x)`, given the rows'
    queries, rotated keys in float64 and layer inputs, returns the
    positions that carry on. `queries` (L, H, m, hd) takes each layer's
    last m queries, `raw` (L, H, rows, hd) its raw keys.

    At the last layer only the tile that holds the last row attends, whole,
    so its products are the full call's, and only that row runs
    `block_out`, as the product of the row twice: one row would take
    NumPy's matrix-vector path, whose float32 sums differ from a many-row
    product's, so only a loop that carries one row finishes one row. The
    last row's output is then the one finishing every row gives it.
    """
    cfg = model.config
    hd, last = cfg.head_dim, cfg.n_layers - 1
    skip = sum(len(inputs) for inputs in prefix)
    x = model.weights.embedding[ids[skip:]]
    cos, sin = _rope_table(rows, cfg)
    for l in range(cfg.n_layers):
        run, c, s = rows[skip:], cos[skip:], sin[skip:]
        k64 = np.empty((cfg.n_heads, run.size, hd)) if l == 1 and select is not None else None
        q = np.empty((cfg.n_heads, run.size, hd))
        for b in _row_blocks(run.size):
            q[:, b], k, k_raw, v = block_qkv(model, l, x[b], (c[b], s[b]))
            at = _columns(run[b])
            keys[l][:, :, at] = k.swapaxes(1, 2)
            values[l][:, :hd, at] = v.swapaxes(1, 2)
            if k64 is not None:
                k64[:, b] = k
            if raw is not None:
                raw[l][:, b] = k_raw
        if queries is not None:
            queries[l] = q[:, q.shape[1] - queries.shape[2]:]
        if k64 is not None:
            run = select(q, k64, x)
            at = np.searchsorted(rows, run)
            k64, rows, q, x, cos, sin = None, run, q[:, at], x[at], cos[at], sin[at]
        if l == last:
            tail = (q.shape[1] - 1) // _TILE_ROWS * _TILE_ROWS
            attn = attention(q[:, tail:], keys[l], values[l], run[tail:])
            pick = [-1] if x.shape[0] == 1 else [-1, -1]
            return block_out(model, l, x[pick], attn[:, pick])[-1:]
        attn = attention(q, keys[l], values[l], run)
        del q
        out = np.empty_like(x)
        for b in _row_blocks(out.shape[0]):
            out[b] = block_out(model, l, x[b], attn[:, b])
        x = np.concatenate([*prefix, out]) if skip else out
        del attn, out
        skip = 0


def prefill_forward(
    model: Model,
    token_ids,
    *,
    record_queries: bool = False,
) -> PrefillResult:
    """Full forward over a token sequence at positions 0..n-1: the one
    prefill loop (`_prefill_layers`) carrying every row, with no prefix
    and no selection.

    Every layer writes the keys and values of every row into one
    `kv_buffers` pair (and, when asked, records its rotated queries); the
    caches are row views of it. Only the last row's logits are returned.
    A chunk's raw keys come from `chunkstore.precompute_chunk`, which runs
    the same loop.
    """
    cfg = model.config
    ids = _check_tokens(cfg, token_ids)
    n, h, hd = ids.shape[0], cfg.n_heads, cfg.head_dim
    keys, values = kv_buffers(cfg.n_layers, h, hd, n)
    queries = np.empty((cfg.n_layers, h, n, hd), dtype=DTYPE) if record_queries else None
    end = tile_end(n)
    x = _prefill_layers(model, ids, np.arange(n), keys[..., :end], values[..., :end],
                        queries=queries)
    caches = [LayerKV(keys=kv_rows(keys[l], n, hd), values=kv_rows(values[l], n, hd),
                      rope_applied=True) for l in range(cfg.n_layers)]
    return PrefillResult(caches=caches, logits=final_logits(model, x)[0],
                         queries=None if queries is None else list(queries))


# ---------------------------------------------------------------------------
# Decode


class DecodeCache:
    """Growable per-layer KV storage for autoregressive decoding.

    It adopts a `kv_buffers` pair, whose first `length` rows are the cache.
    That layout serves both of `attend`'s products, each a matrix-vector
    product over a row-major block per head: the query row times the keys,
    and the values times the exponentials, which gives the sums from the
    values' ones row as well. A full buffer grows by
    max(count // 2, `_HEADROOM`) rows, one layer at a time, so a growth
    never holds two copies of the whole cache. Every stored row precedes
    the decode position, so `attend` runs the softmax core unmasked.

    A step is explicit: `append` takes the layers of one position in order
    0..L-1, and the step commits (`length` and `max_position` move) with
    the last layer. `attend` for a layer needs that layer's row at
    `position` already appended. Layer count, head count and head_dim come
    from the array shapes. Appends write the buffers' spare rows, so two
    caches that adopt one pair must not both decode.
    """

    def __init__(self, keys, values, length: int):
        # Per layer buffers, an (L, ...) array or a sequence; adopted.
        self._count = length
        self._keys = list(keys)
        self._values = list(values)
        self._max_pos = length - 1
        self._scale = 1.0 / np.sqrt(self._keys[0].shape[1])  # the attention scale 1/sqrt(hd)
        self._next_layer = 0  # layer the step in progress appends next
        self._step_pos = -1  # position of the step in progress

    @classmethod
    def from_layer_kvs(cls, config: ModelConfig, caches: list[LayerKV]) -> "DecodeCache":
        if len(caches) != config.n_layers:
            raise ShapeError(f"expected {config.n_layers} layers, got {len(caches)}")
        n = caches[0].length
        for c in caches:
            if not c.rope_applied:
                raise ContractViolation("decode requires rotated caches")
            if c.length != n:
                raise ShapeError("layers disagree on cache length")
        return cls(*kv_layout([c.keys for c in caches], [c.values for c in caches]), n)

    @property
    def length(self) -> int:
        return self._count

    @property
    def max_position(self) -> int:
        return self._max_pos

    def keys_view(self, layer: int) -> np.ndarray:
        """The committed keys of `layer`, (n_heads, length, head_dim) float32."""
        keys = self._keys[layer]
        return kv_rows(keys, self._count, keys.shape[1]).copy()

    def _grow(self, layer: int) -> None:
        count = self._count
        for bufs in (self._keys, self._values):
            old = bufs[layer]
            # Ones, so the values' ones row runs on through the new rows.
            grown = np.ones(old.shape[:2] + (old.shape[2] + max(count // 2, _HEADROOM),),
                            dtype=DTYPE)
            grown[:, :, :count] = old[:, :, :count]
            bufs[layer] = grown

    def append(self, layer: int, k_row: np.ndarray, v_row: np.ndarray, position: int) -> None:
        """Store one row (n_heads, head_dim), rounded to float32, for `layer`
        at `position`; layer 0 starts a step, the last layer commits it."""
        if layer != self._next_layer:
            raise ContractViolation(
                f"append for layer {layer}, but the step expects layer {self._next_layer}"
            )
        if layer == 0 and position <= self._max_pos:
            raise ContractViolation(
                f"position {position} collides with cached maximum {self._max_pos}"
            )
        if layer > 0 and position != self._step_pos:
            raise ContractViolation(
                f"layer {layer} appends position {position} inside the step at {self._step_pos}"
            )
        if self._count == self._keys[layer].shape[2]:
            self._grow(layer)
        self._keys[layer][:, :, self._count] = k_row
        self._values[layer][:, :-1, self._count] = v_row
        self._step_pos = position
        if layer == len(self._keys) - 1:
            self._next_layer = 0
            self._count += 1
            self._max_pos = position
        else:
            self._next_layer = layer + 1

    def attend(self, layer: int, q_heads: np.ndarray, position: int) -> np.ndarray:
        """Attention of one query row (H, hd) over all stored rows of `layer`.

        The layer's row at `position` must be appended: inside the step it
        sits at index `count`, after the commit it is the last row, and the
        query attends to it as well.

        The query is scaled by 1/sqrt(head_dim) and rounded to float32 once;
        both products and the softmax core run in float32, and the outputs
        are divided by the sums, from the values' ones row, in float64,
        which `block_out` takes.
        """
        if self._next_layer > layer and position == self._step_pos:
            upto = self._count + 1
        elif self._next_layer == 0 and position == self._max_pos:
            upto = self._count
        else:
            raise ContractViolation(f"layer {layer} has no row appended at position {position}")
        q = (q_heads * self._scale).astype(DTYPE)
        scores = np.matmul(q[:, None, :], self._keys[layer][:, :, :upto])[:, 0]
        ext = np.matmul(self._values[layer][:, :, :upto], _softmax_exp(scores)[:, :, None])
        return np.divide(ext[:, :-1, 0], ext[:, -1:, 0], dtype=_F64)

    def resident_floats(self) -> int:
        h, hd, _ = self._keys[0].shape
        return len(self._keys) * h * self._count * hd * 2


def decode_step(model: Model, cache: DecodeCache, last_token: int, position: int) -> np.ndarray:
    """One autoregressive step: append the token's KV rows, return logits.

    `cache` may be any object with the DecodeCache append/attend interface
    (the eviction module supplies a compacted variant).
    """
    cfg = model.config
    if not (0 <= int(last_token) < cfg.vocab_size):
        raise InputError(f"token id {last_token} out of vocabulary")
    x = model.weights.embedding[int(last_token)][None, :]  # float32, like every layer's output
    rope = _rope_row(position, cfg)  # before any append: a bad position changes nothing
    for l in range(cfg.n_layers):
        q_rot, k_rot, _, v = block_qkv(model, l, x, rope)
        cache.append(l, k_rot[:, 0], v[:, 0], position)
        x = block_out(model, l, x, cache.attend(l, q_rot[:, 0], position)[:, None])
    return final_logits(model, x)[0]


def greedy_token(logits: np.ndarray) -> int:
    # argmax with ties to the lowest id, deterministic.
    return int(np.argmax(logits))
