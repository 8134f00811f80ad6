"""Property checks of the rotary position embedding over random shapes.

`rope_rotate` rejects negative positions, so a rotation by -a is built as
F R(a) F, where F flips the sign of every odd coordinate (a reflection
that turns each rotary pair's angle around).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
