"""Property checks of the rotary position embedding over random shapes.

`rope_rotate` rejects negative positions, so a rotation by -a is built as
F R(a) F, where F flips the sign of every odd coordinate (a reflection
that turns each rotary pair's angle around).

A forward builds one cos/sin table and every layer's `block_qkv` reads it;
the fused prefill slices the table of all positions at its carried rows.
A sliced table must rotate bit for bit like a table built on those rows,
and `_rotate`, which builds its result in place, must give the bits of the
plain two-line expression. A decode step's one row is rotated by its
interleaved `_RopeRow` table instead, which must give `rope_rotate`'s bits,
signed zeros included, at every position a long decode reaches.
`block_qkv` runs one product with a layer's stacked Q/K/V weights and one
rotation of the q and k heads; each part must equal its own float32
product, and the stacked array must be the float32 weights as drawn.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from kvfuse import model as M
from kvfuse.errors import InputError
from kvfuse.model import ModelConfig, rope_rotate

SETTINGS = settings(max_examples=40, deadline=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def rope_cases(draw):
    """A config with random head_dim and rope_base, (H, n, head_dim) vectors
    and two rows of n positions each."""
    head_dim = 2 * draw(st.integers(1, 32), label="head_dim / 2")
    rope_base = draw(st.floats(1.5, 1e6), label="rope_base")
    config = ModelConfig(n_layers=1, n_heads=1, head_dim=head_dim, d_ff=4, vocab_size=8,
                         seed=0, rope_base=rope_base)
    n_heads = draw(st.integers(1, 4), label="n_heads")
    n = draw(st.integers(1, 20), label="n")
    rng = np.random.default_rng(draw(seeds, label="seed"))
    x = rng.normal(size=(n_heads, n, head_dim))
    a, b = rng.integers(0, 50_000, size=(2, n))
    return config, x, a, b


def flip_odd(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    out[..., 1::2] *= -1.0
    return out


@SETTINGS
@given(rope_cases())
def test_rotations_compose_additively(case):
    config, x, a, b = case
    twice = rope_rotate(rope_rotate(x, a, config), b, config)
    np.testing.assert_allclose(twice, rope_rotate(x, a + b, config), rtol=0, atol=1e-9)


@SETTINGS
@given(rope_cases())
def test_rotation_inverts_exactly(case):
    config, x, a, _ = case
    rotated = rope_rotate(x, a, config)
    back = flip_odd(rope_rotate(flip_odd(rotated), a, config))  # R(-a) R(a) x
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1),
                               rtol=1e-13)


@SETTINGS
@given(rope_cases())
def test_rotate_gives_the_bits_of_the_plain_expression(case):
    config, x, a, _ = case
    cos, sin = M._rope_table(a, config)
    even, odd = x[..., 0::2], x[..., 1::2]
    expect = np.empty_like(x)
    expect[..., 0::2] = even * cos - odd * sin
    expect[..., 1::2] = even * sin + odd * cos
    assert np.array_equal(M._rotate(x, cos, sin), expect)


# Finite values of every magnitude, the signed zeros and the subnormals
# among them, bounded so that no product or sum overflows.
row_values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
                       st.floats(-1e300, 1e300, allow_subnormal=True))


@st.composite
def one_row_cases(draw):
    """A config with random head_dim and rope_base, the q and k heads of one
    row, (2, H, 1, head_dim), and its position."""
    head_dim = 2 * draw(st.integers(1, 32), label="head_dim / 2")
    config = ModelConfig(n_layers=1, n_heads=1, head_dim=head_dim, d_ff=4, vocab_size=8,
                         seed=0, rope_base=draw(st.floats(1.5, 1e6), label="rope_base"))
    n_heads = draw(st.integers(1, 4), label="n_heads")
    v = draw(npst.arrays(np.float64, (2, n_heads, 1, head_dim), elements=row_values))
    return config, v, draw(st.integers(0, 10**7), label="position")


@settings(max_examples=200, deadline=None)
@given(one_row_cases())
@example((ModelConfig(n_layers=1, n_heads=1, head_dim=4, d_ff=4, vocab_size=8, seed=0),
          np.array([-0.0, 5e-324, 1e300, -2.5]).reshape(1, 1, 1, 4), 10**7))
def test_one_row_rotation_gives_the_bits_of_rope_rotate(case):
    config, v, position = case
    got = M._rotate_row(v, *M._rope_row(position, config))
    assert got.tobytes() == rope_rotate(v, position, config).tobytes()


MODEL = M.build_model(ModelConfig(n_layers=2, n_heads=2, head_dim=8, d_ff=16, vocab_size=32,
                                  seed=5))


@st.composite
def carried_rows(draw):
    """Ascending positions of n_ctx context rows then a question, and the rows
    a selective layer carries: an unsorted subset of the context (Re) then
    every question row, with random inputs for them."""
    n_ctx = draw(st.integers(0, 300), label="n_ctx")
    q_len = draw(st.integers(1, 24), label="q_len")
    rng = np.random.default_rng(draw(seeds, label="seed"))
    gaps = rng.integers(1, 4, size=n_ctx + q_len)
    positions = draw(st.integers(0, 50_000), label="start") + np.cumsum(gaps) - gaps[0]
    re = rng.permutation(n_ctx)[: draw(st.integers(0, n_ctx), label="|Re|")]
    rows = np.concatenate([re, np.arange(n_ctx, n_ctx + q_len)])
    return positions, rows, rng.normal(size=(rows.size, MODEL.config.d_model))


@SETTINGS
@given(carried_rows(), st.integers(0, MODEL.config.n_layers - 1))
def test_sliced_table_rotates_like_a_table_of_the_rows(case, layer):
    positions, rows, x = case
    cfg = MODEL.config
    cos, sin = M._rope_table(positions, cfg)
    sliced = M.block_qkv(MODEL, layer, x, (cos[rows], sin[rows]))
    direct = M.block_qkv(MODEL, layer, x, M._rope_table(positions[rows], cfg))
    for got, expect in zip(sliced, direct):
        assert np.array_equal(got, expect)
    # At position 0 the table is cos 1, sin 0, which leaves q unrotated.
    q_raw = M.block_qkv(MODEL, layer, x, M._rope_table(np.zeros(rows.size), cfg))[0]
    q_rot, k_rot, k_raw, _ = sliced
    assert np.array_equal(q_rot, rope_rotate(q_raw, positions[rows], cfg))
    assert np.array_equal(k_rot, rope_rotate(k_raw, positions[rows], cfg))


@SETTINGS
@given(st.integers(1, 300), st.integers(0, MODEL.config.n_layers - 1), seeds)
@example(rows=1, layer=MODEL.config.n_layers - 1, seed=0)  # a decode step
def test_one_qkv_product_equals_the_three_products(rows, layer, seed):
    cfg, lw = MODEL.config, MODEL.weights.layers[layer]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cfg.d_model))
    positions = rng.integers(0, 50_000, size=rows)
    q_rot, k_rot, k_raw, v = M.block_qkv(MODEL, layer, x, M._rope_table(positions, cfg))
    h1 = M._rmsnorm(x.astype(np.float32))  # the block runs its rows in float32

    def heads(y):
        return M._split_heads(y, cfg.n_heads, cfg.head_dim)

    # The raw keys and the values are the float32 products; the heads rotate
    # in float64.
    assert k_raw.dtype == v.dtype == np.float32 and q_rot.dtype == k_rot.dtype == np.float64
    assert np.array_equal(k_raw, heads(h1 @ lw.wqkv[1]))
    assert np.array_equal(v, heads(h1 @ lw.wqkv[2]))
    assert np.array_equal(q_rot, rope_rotate(heads(h1 @ lw.wqkv[0]), positions, cfg))
    assert np.array_equal(k_rot, rope_rotate(k_raw, positions, cfg))
    if rows == 1:  # a decode step's table rotates to the same bits
        step = M.block_qkv(MODEL, layer, x, M._rope_row(int(positions[0]), cfg))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(step, (q_rot, k_rot, k_raw, v)))
    # Wq, Wk and Wv are slices of the stacked float32 array, which holds
    # the values drawn at the layer's first three streams.
    base = M._LAYER_BASE + M._STREAMS_PER_LAYER * layer
    drawn = [M._draw_uniform(cfg.seed, base + i, (cfg.d_model, cfg.d_model),
                             1.0 / np.sqrt(cfg.d_model)) for i in range(3)]
    assert all(w.dtype == np.float32 for w in drawn)
    assert lw.wqkv.dtype == np.float32
    assert np.array_equal(lw.wqkv, np.stack(drawn))
    for w in (lw.wqkv[0], lw.wqkv[1], lw.wqkv[2]):
        assert np.shares_memory(w, lw.wqkv)


@SETTINGS
@given(st.integers(-10**6, -1))
def test_decode_step_refuses_a_negative_position_before_any_append(position):
    prefill = M.prefill_forward(MODEL, [1, 2, 3])
    cache = M.DecodeCache.from_layer_kvs(MODEL.config, prefill.caches)
    keys = [cache.keys_view(l) for l in range(MODEL.config.n_layers)]
    with pytest.raises(InputError):
        M.decode_step(MODEL, cache, 4, position)
    assert (cache.length, cache.max_position) == (3, 2)
    for l, before in enumerate(keys):
        assert np.array_equal(cache.keys_view(l), before)
    M.decode_step(MODEL, cache, 4, 3)  # no step was left half done
    assert (cache.length, cache.max_position) == (4, 3)
