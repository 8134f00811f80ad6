"""Property check of the float32 blocks against the float64 reference.

`block_qkv` and `block_out` run in float32 (the rotation of the q and k
heads in float64); `block_reference` restates both in float64 and derives
how far float32 round-off may move each output. Every output of random
rows at a random layer, one row (a decode step) or many, of the test
shape and of the rag_shared shape, must lie within that bound, and have
the block's dtype.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import block_reference as R
from kvfuse import model as M

MODELS = {
    "test": M.build_model(M.ModelConfig(n_layers=2, n_heads=2, head_dim=8, d_ff=64,
                                        vocab_size=32, seed=5)),
    "rag_shared": M.build_model(M.ModelConfig(n_layers=2, n_heads=4, head_dim=16, d_ff=256,
                                              vocab_size=64, seed=101)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(1, 200), st.integers(0, 1),
       st.sampled_from([1e-3, 1.0, 30.0]), st.integers(0, 2**32 - 1))
@example("rag_shared", 1, 1, 1.0, 0)  # a decode step's one row
@example("rag_shared", 128, 0, 1.0, 0)  # one prefill row block
def test_float32_blocks_lie_within_the_round_off_bound_of_float64(name, rows, layer, scale,
                                                                  seed):
    model = MODELS[name]
    cfg = model.config
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(rows, cfg.d_model)) * scale).astype(np.float32)
    positions = rng.integers(0, 50_000, size=rows)
    cos, sin = M._rope_table(positions, cfg)
    got = M.block_qkv(model, layer, x, (cos, sin))
    expect, bounds = R.block_qkv(model, layer, x, cos, sin)
    assert [a.dtype for a in got] == [np.float64, np.float64, np.float32, np.float32]
    for a, b, bound in zip(got, expect, bounds):
        assert np.all(np.abs(a - b) <= bound)

    attn = rng.normal(size=(cfg.n_heads, rows, cfg.head_dim)) * scale
    out = M.block_out(model, layer, x, attn)
    expect, bound = R.block_out(model, layer, x, attn)
    assert out.dtype == np.float32
    assert np.all(np.abs(out - expect) <= bound)
