"""Deterministic toy decoder-only transformer.

Pre-norm RMS blocks with rotary position embeddings and a plain two-matrix
SiLU feed-forward. Built for reproducibility rather than speed: weights come
from a counter-based generator keyed per tensor as float32, hidden states
between layers and the chunk and fused caches are float32, and arithmetic
inside a layer runs in float64 so the same tokens give the same numbers
regardless of how the sequence was sliced. A built `Model` holds its weights,
and `DecodeCache` its rows, as exact float64 upcasts of those float32 values,
so no layer call converts them again and the results are the same bit for bit.

The block is written once, split at the attention: `block_qkv` projects a
set of rows, the caller decides which keys they attend to, and `block_out`
finishes the layer. `prefill_forward` (rows attend to each other),
`decode_step` (one row over a growing cache) and the fused pipeline in
`fusion` (rows patched into stored chunk caches) are all loops over it;
`final_logits` ends each of them. The two prefill loops read only their
last row's output, so their last layer finishes that row alone
(`_attend_out`). Each layer holds its Q, K and V weights
stacked in one (3, d_model, d_model) array, so `block_qkv` runs one
projection product and rotates the q and k heads in one call; the weights
take no more memory than three separate matrices.

The norm and the rotation each have two forms with the same bits, picked
by the row count, since one row pays each array call's fixed cost in full.
The RMS norm has no gain (a unit gain multiplies by 1.0, which is exact).
Many rows finish `_rmsnorm` in array calls; one row finishes its divide,
add and square root on a Python float, an IEEE double with the same
correctly rounded operations, then needs one array divide. Many rows get a
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
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolation, InputError, ShapeError

# float32 values at every boundary (drawn weights, hidden states, caches,
# logits), float64 inside a layer. Keeps cross-path comparisons tight.
DTYPE = np.float32
_F64 = np.float64

_NORM_EPS = 1e-6

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
        if self.d_model == 0:
            object.__setattr__(self, "d_model", self.n_heads * self.head_dim)
        if not _is_number(self.rope_base):
            raise ConfigError(f"rope_base must be a number, got {self.rope_base!r}")
        object.__setattr__(self, "rope_base", float(self.rope_base))
        for name in ("n_layers", "n_heads", "head_dim", "d_ff", "vocab_size", "d_model"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary pairs, got {self.head_dim}")
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(
                f"d_model={self.d_model} != n_heads*head_dim={self.n_heads * self.head_dim}"
            )
        if not (self.rope_base > 1.0):
            raise ConfigError(f"rope_base must be > 1, got {self.rope_base}")
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
    """A config and its weights, held as float64 copies of the drawn float32
    values (see `build_model`)."""

    config: ModelConfig
    weights: ModelWeights


def _draw_uniform(seed: int, stream: int, shape: tuple[int, ...], scale: float) -> np.ndarray:
    # Counter-based generator keyed (seed, stream): per-tensor draws are
    # independent of the order tensors are created in.
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(-scale, scale, size=shape).astype(DTYPE)


def init_model(config: ModelConfig) -> ModelWeights:
    """Draw all projection matrices uniform in [-1/sqrt(d_model), +1/sqrt(d_model)].

    The result is float32 and a pure function of the config, seed included.
    """
    return _init_weights(config, DTYPE)


def _init_weights(config: ModelConfig, dtype) -> ModelWeights:
    # Each tensor is drawn as float32 and converted to `dtype` at once, so
    # float64 weights never sit beside a float32 copy of the whole set.
    d = config.d_model
    scale = 1.0 / np.sqrt(d)

    def draw(stream: int, shape: tuple[int, ...]) -> np.ndarray:
        return _draw_uniform(config.seed, stream, shape, scale).astype(dtype)

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
    return ModelWeights(
        embedding=draw(_STREAM_EMBED, (config.vocab_size, d)),
        layers=layers,
        unembed=draw(_STREAM_UNEMBED, (d, config.vocab_size)),
    )


def build_model(config: ModelConfig) -> Model:
    """The model of `config`, its weights upcast once to float64.

    The values are exactly `init_model`'s float32 draws, so every result is
    the same as with float32 weights converted at each use.
    """
    return Model(config=config, weights=_init_weights(config, _F64))


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
    # q and k together would otherwise double the temporaries' peak.
    even, odd = v[..., 0::2], v[..., 1::2]
    out = np.empty_like(v)
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


# Query rows per attention tile, and the bytes of float64 scores one pass
# over a tile may hold. `attention` runs the tiles over groups of heads,
# the most heads whose tile score blocks fit `_GROUP_BYTES`, at least one,
# so a pass's scores, keys and values stay in a 2 MB L2 cache through
# every pass of the softmax. At the rag_shared shape (4 heads, 1464 keys)
# one head's 32-row block is 366 KiB, so each head runs alone; at 512 keys
# or fewer all 4 heads run in one pass.
_TILE_ROWS = 32
_GROUP_BYTES = 2**19


def attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    q_positions: np.ndarray,
    k_positions: np.ndarray,
) -> np.ndarray:
    """Causal scaled dot-product attention.

    Shapes (n_heads, rows, head_dim); the causal mask admits key position
    <= query position. Query rows are processed in tiles of 32, so the
    score matrix never materializes at full n x n. A tile scores only the
    keys up to the last one some row of it can see, since every later key
    is hidden from all its rows (the block skipping of FlashAttention),
    and masks only the band from the first key hidden from some row of
    it. The call plans every tile's key cut and band mask at once, with
    two `searchsorted` calls over the suffix minimum and the prefix
    maximum of the key positions, which holds for keys in any order, and
    checks once that every row sees a key.

    The tiles then run over groups of heads: the most heads whose tile
    score blocks together fit `_GROUP_BYTES`, at least one, so a tile's
    scores stay in cache. Each group lays out its operands once: the keys
    copied into one contiguous float64 (heads, head_dim, keys) array, and
    the values into a float64 (heads, keys, head_dim + 1) array whose last
    column is ones. The copies upcast float32 keys and values, so callers
    pass them as stored. Every head makes the same products, with the
    same shapes and strides, whatever its group, so the grouping never
    changes a bit. After the shared max shift and exponential, one product
    with the extended values gives both the unnormalised outputs and, from
    the ones column, the row sums, so a tile divides once over (rows,
    head_dim) and never sums or scales its score block. The queries are
    scaled by 1/sqrt(head_dim) once. Returns float64.
    """
    q = np.asarray(queries, dtype=_F64)
    k = np.asarray(keys)
    v = np.asarray(values)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("queries/keys/values must be (n_heads, rows, head_dim)")
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeError(f"head counts differ: {q.shape[0]}, {k.shape[0]}, {v.shape[0]}")
    if k.shape[1] != v.shape[1] or k.shape[2] != q.shape[2] or v.shape[2] != q.shape[2]:
        raise ShapeError("keys/values misaligned with queries")
    out = np.empty_like(q)
    if q.shape[1] == 0:
        return out
    qpos = np.asarray(q_positions, dtype=np.int64)
    kpos = np.asarray(k_positions, dtype=np.int64)
    # Row r sees a key exactly when some key position is <= qpos[r].
    if kpos.size == 0 or qpos.min() < kpos.min():
        raise ContractViolation("a query row has no visible key")
    starts = np.arange(0, q.shape[1], _TILE_ROWS)
    # A tile's cut is one past the last key at or before its latest row,
    # the count of suffix minima <= that row; its band starts at the first
    # key after its earliest row, the count of prefix maxima <= that row.
    cuts = np.searchsorted(np.minimum.accumulate(kpos[::-1])[::-1],
                           np.maximum.reduceat(qpos, starts), "right")
    bands = np.searchsorted(np.maximum.accumulate(kpos),
                            np.minimum.reduceat(qpos, starts), "right")
    # Each tile's rows, key cut, band start and the mask of its band.
    tiles = [(slice(start, start + _TILE_ROWS), cut, band,
              kpos[None, band:cut] > qpos[start:start + _TILE_ROWS, None])
             for start, cut, band in zip(starts.tolist(), cuts.tolist(), bands.tolist())]
    h, n, hd = k.shape
    group = max(1, _GROUP_BYTES // (_TILE_ROWS * n * 8))
    q = q * (1.0 / np.sqrt(hd))
    for first in range(0, h, group):
        heads = slice(first, first + group)
        # Contiguous (heads, hd, n) keys: a tile's product then reads a
        # row-major slice, which BLAS runs faster than a transposed view.
        k_t = np.ascontiguousarray(k[heads].transpose(0, 2, 1), dtype=_F64)
        v_ext = np.empty((k_t.shape[0], n, hd + 1), dtype=_F64)
        v_ext[:, :, :hd] = v[heads]
        v_ext[:, :, hd] = 1.0
        for tile, cut, band, hidden in tiles:
            scores = np.matmul(q[heads, tile], k_t[:, :, :cut])
            if band < cut:
                np.copyto(scores[..., band:], -np.inf, where=hidden)
            ext = _softmax_exp(scores) @ v_ext[:, :cut]
            np.divide(ext[:, :, :hd], ext[:, :, hd:], out=out[heads, tile])
    return out


def attention_weights(
    queries: np.ndarray,
    keys: np.ndarray,
    q_positions: np.ndarray,
    k_positions: np.ndarray,
) -> np.ndarray:
    """Causal softmax weight matrices (n_heads, rows, keys), float64.

    The masked softmax behind `attention`; `fusion.question_attention`
    reads the weights themselves. It scales the scores and sums their
    exponentials itself, so the weights are bit for bit those of one
    `np.where` mask over the whole scaled score matrix.
    """
    q = np.asarray(queries, dtype=_F64)
    k = np.asarray(keys, dtype=_F64)
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"head counts differ: {q.shape[0]} vs {k.shape[0]}")
    scores = np.matmul(q, k.transpose(0, 2, 1))
    _mask_hidden(scores, np.asarray(q_positions), np.asarray(k_positions))
    scores *= 1.0 / np.sqrt(q.shape[-1])
    exp = _softmax_exp(scores)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def _mask_hidden(scores: np.ndarray, q_pos: np.ndarray, k_pos: np.ndarray) -> None:
    # Set the scores (..., rows, keys) of keys hidden from their row to
    # -inf, in place. Keys before the first one hidden from some row are
    # visible to every row, so only the band from that key on is masked.
    if q_pos.size and (k_pos.size == 0 or q_pos.min() < k_pos.min()):
        raise ContractViolation("a query row has no visible key")
    partly = np.flatnonzero(k_pos > q_pos.min()) if q_pos.size else k_pos[:0]
    if partly.size:
        band = slice(int(partly[0]), None)
        hidden = k_pos[None, band] > q_pos[:, None]
        np.copyto(scores[..., band], -np.inf, where=hidden)


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
    # Over float64 rows. np.mean is this reduction and the divide; called
    # directly it gives the same bits without mean's dispatch. One row
    # finishes on a Python float, with the same bits (see the module doc).
    ss = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    if ss.size == 1:
        return x / math.sqrt(ss.item() / x.shape[-1] + _NORM_EPS)
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
    # (n_heads, n, head_dim) -> (n, d_model)
    h, n, d = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * d)


def block_qkv(model: Model, layer: int, x64: np.ndarray, rope: tuple[np.ndarray, np.ndarray]):
    """First half of a pre-norm block over the given rows: norm1, one
    product with the stacked Q/K/V weights, and one rotation of the q and k
    heads by `rope`, the rows' table, which a forward builds once for all
    its layers: the (cos, sin) `_rope_table` of many rows, rotated by
    `_rotate`, or the `_RopeRow` of a decode step's one row, rotated by
    `_rotate_row`. Both give the same bits.

    Returns (q_rot, k_rot, k_raw, v), each (n_heads, rows, head_dim) float64.
    What the rows attend to is the caller's choice; `block_out` finishes.
    """
    cfg, lw = model.config, model.weights.layers[layer]
    # (3, rows, d_model): q, k and v each one contiguous block, the layout
    # of three separate products, so the rotation reads them as fast.
    qkv = _split_heads(_rmsnorm(x64) @ lw.wqkv, cfg.n_heads, cfg.head_dim)
    rotate = _rotate_row if isinstance(rope, _RopeRow) else _rotate
    q_rot, k_rot = rotate(qkv[:2], *rope)
    return q_rot, k_rot, qkv[1], qkv[2]


def block_out(model: Model, layer: int, x64: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """Second half of the block: t = x + Wo(attn); out = t + FFN(norm2(t)).

    `attn` is (n_heads, rows, head_dim). The result is rounded through
    float32, the boundary between layers, so every path that carries a row
    sees the same layer inputs.
    """
    lw = model.weights.layers[layer]
    t = x64 + _merge_heads(attn) @ lw.wo
    out = t + _silu(_rmsnorm(t) @ lw.w_in) @ lw.w_out
    return out.astype(DTYPE).astype(_F64)


def _attend_out(model: Model, layer: int, x64: np.ndarray, q: np.ndarray, keys: np.ndarray,
                values: np.ndarray, q_pos: np.ndarray, k_pos: np.ndarray) -> np.ndarray:
    """`attention` of the rows' queries `q` over `keys`/`values`, then
    `block_out`, for the layers before the last. At the last layer only the
    last row's output is read (`final_logits` takes it), so only the tile
    that holds it attends and only that row runs `block_out`; the result is
    then that one row.

    The tile stays whole, so its attention products are the full call's,
    bit for bit. `block_out` over the last row alone takes NumPy's
    matrix-vector path, whose float64 sums may differ from a many-row
    product's in the last place, and rounding to float32 does not always
    hide that: for some inputs the row differs from what a many-row
    `block_out` would give it. So neither prefill loop promises the bits
    that finishing every row would give its last row.
    """
    if layer < model.config.n_layers - 1:
        return block_out(model, layer, x64, attention(q, keys, values, q_pos, k_pos))
    tail = (q.shape[1] - 1) // _TILE_ROWS * _TILE_ROWS
    attn = attention(q[:, tail:], keys, values, q_pos[tail:], k_pos)
    return block_out(model, layer, x64[-1:], attn[:, -1:])


def final_logits(model: Model, x64: np.ndarray) -> np.ndarray:
    """Final norm and unembedding of the given rows; (rows, vocab) float32."""
    w = model.weights
    return (_rmsnorm(x64) @ w.unembed).astype(DTYPE)


# ---------------------------------------------------------------------------
# Prefill


@dataclass
class PrefillResult:
    caches: list[LayerKV]  # rotated keys, positions 0..n-1
    logits: np.ndarray  # (vocab,) float32, last row
    raw_keys: list[np.ndarray] | None = None  # per layer (H, n, hd) float32, pre-rotation
    queries: list[np.ndarray] | None = None  # per layer (H, n, hd) float32, rotated


def _check_tokens(config: ModelConfig, token_ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] < 1:
        raise InputError("token_ids must be a non-empty 1-D sequence")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(
            f"token id out of vocabulary [0, {config.vocab_size}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return ids


def prefill_forward(
    model: Model,
    token_ids,
    *,
    record_raw_keys: bool = False,
    record_queries: bool = False,
) -> PrefillResult:
    """Full forward over a token sequence at positions 0..n-1.

    Every layer writes the keys and values of every row (and, when asked,
    its raw keys and rotated queries). Only the last row's logits are
    returned, so at the last layer `_attend_out` attends with the final
    32-row tile alone and finishes only the last row.
    """
    cfg = model.config
    ids = _check_tokens(cfg, token_ids)
    n = ids.shape[0]
    pos = np.arange(n, dtype=np.int64)
    rope = _rope_table(pos, cfg)
    x64 = model.weights.embedding[ids]
    caches: list[LayerKV] = []
    raw_keys: list[np.ndarray] = []
    queries: list[np.ndarray] = []
    for l in range(cfg.n_layers):
        q_rot, k_rot, k_raw, v = block_qkv(model, l, x64, rope)
        caches.append(
            LayerKV(keys=k_rot.astype(DTYPE), values=v.astype(DTYPE), rope_applied=True)
        )
        if record_raw_keys:
            raw_keys.append(k_raw.astype(DTYPE))
        if record_queries:
            queries.append(q_rot.astype(DTYPE))
        x64 = _attend_out(model, l, x64, q_rot, k_rot, v, pos, pos)
    return PrefillResult(caches=caches, logits=final_logits(model, x64[-1:])[0],
                         raw_keys=raw_keys if record_raw_keys else None,
                         queries=queries if record_queries else None)


# ---------------------------------------------------------------------------
# Decode


class DecodeCache:
    """Growable per-layer KV storage for autoregressive decoding.

    Each layer holds one float64 key buffer and one value buffer of shape
    (n_heads, capacity, head_dim); rows are exact upcasts of float32 rows,
    so attention reads them without a conversion. A full buffer grows by
    max(count // 2, 64) rows, one layer at a time, so a growth never holds
    two copies of the whole cache. Every stored row precedes the decode
    position, so `attend` runs `attention`'s softmax core unmasked.

    A step is explicit: `append` takes the layers of one position in order
    0..L-1, and the step commits (`length` and `max_position` move) with
    the last layer. `attend` for a layer needs that layer's row at
    `position` already appended. Layer count, head count and head_dim come
    from the array shapes.
    """

    _HEADROOM = 64  # spare rows per layer at construction, and least growth

    def __init__(self, keys, values):
        # keys/values: per layer (n_heads, n, head_dim) float32, as a
        # (L, H, n, hd) array or a sequence of layers.
        self._count = keys[0].shape[1]
        self._keys = [self._buffer(k) for k in keys]
        self._values = [self._buffer(v) for v in values]
        self._max_pos = self._count - 1
        self._scale = 1.0 / np.sqrt(self._keys[0].shape[2])  # the attention scale 1/sqrt(hd)
        self._next_layer = 0  # layer the step in progress appends next
        self._step_pos = -1  # position of the step in progress

    @classmethod
    def _buffer(cls, rows: np.ndarray) -> np.ndarray:
        h, n, hd = rows.shape
        buf = np.empty((h, n + cls._HEADROOM, hd), dtype=_F64)
        buf[:, :n] = rows.astype(DTYPE, copy=False)
        return buf

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
        return cls([c.keys for c in caches], [c.values for c in caches])

    @property
    def length(self) -> int:
        return self._count

    @property
    def max_position(self) -> int:
        return self._max_pos

    def keys_view(self, layer: int) -> np.ndarray:
        """The committed keys of `layer`, (n_heads, length, head_dim) float32."""
        return self._keys[layer][:, : self._count].astype(DTYPE)

    def _grow(self, layer: int) -> None:
        count = self._count
        for bufs in (self._keys, self._values):
            old = bufs[layer]
            grown = np.empty((old.shape[0], old.shape[1] + max(count // 2, self._HEADROOM),
                              old.shape[2]), dtype=_F64)
            grown[:, :count] = old[:, :count]
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
        if self._count == self._keys[layer].shape[1]:
            self._grow(layer)
        self._keys[layer][:, self._count] = k_row.astype(DTYPE)
        self._values[layer][:, self._count] = v_row.astype(DTYPE)
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
        """
        if self._next_layer > layer and position == self._step_pos:
            upto = self._count + 1
        elif self._next_layer == 0 and position == self._max_pos:
            upto = self._count
        else:
            raise ContractViolation(f"layer {layer} has no row appended at position {position}")
        k = self._keys[layer][:, :upto]
        scores = np.matmul(k, q_heads[:, :, None])[:, :, 0]
        scores *= self._scale
        exp = _softmax_exp(scores)
        sums = exp.sum(axis=-1, keepdims=True)
        return np.matmul(exp[:, None, :], self._values[layer][:, :upto])[:, 0] / sums

    def resident_floats(self) -> int:
        h, _, hd = self._keys[0].shape
        return len(self._keys) * h * self._count * hd * 2


def decode_step(model: Model, cache: DecodeCache, last_token: int, position: int) -> np.ndarray:
    """One autoregressive step: append the token's KV rows, return logits.

    `cache` may be any object with the DecodeCache append/attend interface
    (the eviction module supplies a compacted variant).
    """
    cfg = model.config
    if not (0 <= int(last_token) < cfg.vocab_size):
        raise InputError(f"token id {last_token} out of vocabulary")
    x = model.weights.embedding[int(last_token)][None, :]
    rope = _rope_row(position, cfg)  # before any append: a bad position changes nothing
    for l in range(cfg.n_layers):
        q_rot, k_rot, _, v = block_qkv(model, l, x, rope)
        cache.append(l, k_rot[:, 0], v[:, 0], position)
        x = block_out(model, l, x, cache.attend(l, q_rot[:, 0], position)[:, None])
    return final_logits(model, x)[0]


def greedy_token(logits: np.ndarray) -> int:
    # argmax with ties to the lowest id, deterministic.
    return int(np.argmax(logits))
