"""Property checks of the RMS norm over random shapes and values.

`_rmsnorm` runs in float32 in the blocks, over one row (a decode step,
a prefill's last row before the unembedding) or many. A row must
normalise to the same bits however many rows the call has, so the one row
that a decode step or `final_logits` normalises is the row a many-row call
would give, and `final_logits` of one row unembeds that row. The values
are float32 and take in the signed zeros, the float32 subnormals and
magnitudes up to 1e18, mixed within a row: below the bound at which the
sum of 96 squares would overflow float32 (3.4e38).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from kvfuse import model as M
from kvfuse.model import ModelConfig

TINY = float(np.finfo(np.float32).smallest_subnormal)
BOUND = float(np.float32(1e18))  # 96 * BOUND**2 is below float32's 3.4e38
# Finite float32 values of every magnitude up to BOUND, the signed zeros
# and the subnormals among them.
values = st.one_of(st.sampled_from([0.0, -0.0, TINY, -TINY, 1.1e-38]),
                   st.floats(-BOUND, BOUND, allow_subnormal=True, width=32))


@st.composite
def row_sets(draw, d_model=None):
    """(rows, d_model) float32 values, rows >= 2, and one row index."""
    rows = draw(st.integers(2, 6), label="rows")
    d = d_model or draw(st.integers(1, 96), label="d_model")
    x = draw(npst.arrays(np.float32, (rows, d), elements=values))
    return x, draw(st.integers(0, rows - 1), label="row")


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    # tobytes, so that -0.0 and 0.0 count as different.
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(row_sets())
@example((np.array([[0.0, -0.0, TINY], [1e18, -1e-40, 2.5]], np.float32), 0))
@example((np.array([[3.0, -0.0, TINY], [1e18, -1e-40, 2.5]], np.float32), 1))
def test_one_row_norm_gives_the_bits_of_the_many_row_norm(case):
    x, i = case
    assert M._rmsnorm(x).dtype == np.float32
    assert bits_equal(M._rmsnorm(x)[i:i + 1], M._rmsnorm(x[i:i + 1]))


MODEL = M.build_model(ModelConfig(n_layers=1, n_heads=2, head_dim=8, d_ff=16, vocab_size=64,
                                  seed=5))


@settings(max_examples=100, deadline=None)
@given(row_sets(d_model=MODEL.config.d_model))
def test_one_row_logits_are_those_of_the_many_row_norm(case):
    # Both sides unembed one row, since a one-row product takes NumPy's
    # matrix-vector path, whose sums may differ from a many-row product's
    # in the last place (see `_prefill_layers`).
    x, i = case
    expect = M._rmsnorm(x)[i:i + 1] @ MODEL.weights.unembed
    assert bits_equal(M.final_logits(MODEL, x[i:i + 1]), expect)
