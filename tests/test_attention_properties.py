"""Property checks of the query-tiled causal attention over random shapes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvfuse.errors import ContractViolation
from kvfuse import model as M
from kvfuse.model import _TILE_ROWS, attention, attention_weights

SETTINGS = settings(max_examples=30, deadline=None)

heads = st.integers(1, 4)
head_dims = st.sampled_from([2, 4, 8, 16])
seeds = st.integers(0, 2**32 - 1)


def where_weights(q, k, q_pos, k_pos):
    """The masked softmax written as one np.where over the whole matrix."""
    scores = np.matmul(q, k.transpose(0, 2, 1)) * (1.0 / np.sqrt(q.shape[2]))
    hidden = k_pos[None, :] > q_pos[:, None]
    scores = np.where(hidden[None, :, :], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def arrays(seed, n_heads, n_q, n_k, head_dim):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n_heads, n_q, head_dim)),
            rng.normal(size=(n_heads, n_k, head_dim)),
            rng.normal(size=(n_heads, n_k, head_dim)))


@st.composite
def ascending_positions(draw, min_size=1):
    """1 to 400 strictly ascending key positions with gaps of 1 to 3."""
    n = draw(st.integers(min_size, 400), label="n")
    gaps = np.random.default_rng(draw(seeds, label="gap seed")).integers(1, 4, size=n)
    return draw(st.integers(0, 5), label="start") + np.cumsum(gaps)


def check_against_untiled(q, k, v, q_pos, k_pos):
    out = attention(q, k, v, q_pos, k_pos)
    expect = where_weights(q, k, q_pos, k_pos) @ v
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)


@SETTINGS
@given(heads, head_dims, ascending_positions(), seeds)
@example(n_heads=2, head_dim=4, k_pos=np.arange(3, 303), seed=0)  # three tiles
def test_self_attention_matches_untiled(n_heads, head_dim, k_pos, seed):
    q, k, v = arrays(seed, n_heads, k_pos.size, k_pos.size, head_dim)
    check_against_untiled(q, k, v, k_pos, k_pos)


@st.composite
def carried_rows(draw):
    """Key positions and a sorted subset of row indices into them."""
    k_pos = draw(ascending_positions())
    n_q = draw(st.integers(1, k_pos.size), label="n_q")
    rng = np.random.default_rng(draw(seeds, label="row seed"))
    return k_pos, np.sort(rng.choice(k_pos.size, size=n_q, replace=False))


# The carried rows of rag_shared (480 system rows, two 480-row documents,
# 24 question rows; n=1464): 220 sorted document rows plus the question.
RAG_SHARED_CARRIED = (np.arange(1464), np.concatenate([
    np.sort(np.random.default_rng(8).choice(np.arange(480, 1440), size=220, replace=False)),
    np.arange(1440, 1464),
]))


@SETTINGS
@given(heads, head_dims, carried_rows(), seeds)
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0)
def test_carried_rows_match_untiled(n_heads, head_dim, case, seed):
    # A sorted subset of rows attends over every key, as the carried rows
    # of the fused pipeline do.
    k_pos, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, k_pos.size, head_dim)
    check_against_untiled(q, k, v, k_pos[rows], k_pos)


@SETTINGS
@given(heads, head_dims, ascending_positions(min_size=2), seeds, st.booleans(), st.data())
def test_unordered_keys_match_untiled(n_heads, head_dim, k_pos, seed, sort_queries, data):
    # Keys out of order; queries sit anywhere at or after the earliest key,
    # sorted or not, so a tile may still stop short of the last key.
    rng = np.random.default_rng(seed)
    k_pos = rng.permutation(k_pos)
    n_q = data.draw(st.integers(1, 400), label="n_q")
    q_pos = rng.integers(k_pos.min(), k_pos.max() + 2, size=n_q)
    if sort_queries:
        q_pos = np.sort(q_pos)
    q, k, v = arrays(seed, n_heads, n_q, k_pos.size, head_dim)
    check_against_untiled(q, k, v, q_pos, k_pos)


@SETTINGS
@given(st.integers(1, 6), head_dims, carried_rows(), seeds, st.booleans())
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0, stored=True)
def test_output_bits_do_not_depend_on_the_head_group(n_heads, head_dim, case, seed, stored):
    # The byte cap forced to 1 head, 2 heads and every head per pass; the
    # keys and values float64 or float32, as stored.
    k_pos, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, k_pos.size, head_dim)
    if stored:
        k, v = k.astype(np.float32), v.astype(np.float32)
    head_block = _TILE_ROWS * k_pos.size * 8
    outs = []
    for group in (1, 2, n_heads):
        with mock.patch.object(M, "_GROUP_BYTES", group * head_block):
            outs.append(attention(q, k, v, k_pos[rows], k_pos))
    assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


@SETTINGS
@given(heads, head_dims, carried_rows(), seeds)
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0)
def test_float32_keys_and_values_give_the_bits_of_their_upcasts(n_heads, head_dim, case, seed):
    # `fused_prefill` passes its float32 layers as stored; the copies that
    # `attention` makes upcast them exactly.
    k_pos, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, k_pos.size, head_dim)
    k32, v32 = k.astype(np.float32), v.astype(np.float32)
    got = attention(q, k32, v32, k_pos[rows], k_pos)
    expect = attention(q, k32.astype(np.float64), v32.astype(np.float64), k_pos[rows], k_pos)
    assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()


@SETTINGS
@given(heads, head_dims, ascending_positions(), seeds, st.booleans(), st.data())
def test_weights_bitwise_equal_to_where_formulation(n_heads, head_dim, k_pos, seed, shuffle,
                                                    data):
    if shuffle:
        k_pos = np.random.default_rng(seed).permutation(k_pos)
    n_q = data.draw(st.integers(1, 64), label="n_q")
    q_pos = np.random.default_rng(seed).integers(k_pos.min(), k_pos.max() + 2, size=n_q)
    q, k, _ = arrays(seed, n_heads, n_q, k_pos.size, head_dim)
    got = attention_weights(q, k, q_pos, k_pos)
    expect = where_weights(q, k, q_pos, k_pos)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


@SETTINGS
@given(heads, head_dims, st.integers(_TILE_ROWS + 1, 400), seeds, st.booleans(), st.data())
def test_row_without_visible_key_raises_in_a_later_tile(n_heads, head_dim, n, seed, shuffle,
                                                       data):
    k_pos = np.arange(1, n + 1)
    if shuffle:
        k_pos = np.random.default_rng(seed).permutation(k_pos)
    q_pos = np.arange(1, n + 1)
    q_pos[data.draw(st.integers(_TILE_ROWS, n - 1), label="blind row")] = 0
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    with pytest.raises(ContractViolation):
        attention(q, k, v, q_pos, k_pos)
    with pytest.raises(ContractViolation):
        attention_weights(q, k, q_pos, k_pos)


@SETTINGS
@given(heads, head_dims, st.integers(0, 40), seeds)
def test_zero_query_rows_give_an_empty_result(n_heads, head_dim, n_k, seed):
    q, k, v = arrays(seed, n_heads, 0, n_k, head_dim)
    out = attention(q, k, v, np.zeros(0, dtype=np.int64), np.arange(n_k))
    assert out.shape == (n_heads, 0, head_dim) and out.dtype == np.float64


@SETTINGS
@given(heads, head_dims, st.integers(1, 400), seeds, st.booleans(), st.data())
def test_row_without_visible_key_raises_in_the_first_tile(n_heads, head_dim, n, seed, shuffle,
                                                         data):
    k_pos = np.arange(1, n + 1)
    if shuffle:
        k_pos = np.random.default_rng(seed).permutation(k_pos)
    q_pos = np.arange(1, n + 1)
    q_pos[data.draw(st.integers(0, min(n, _TILE_ROWS) - 1), label="blind row")] = 0
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    with pytest.raises(ContractViolation):
        attention(q, k, v, q_pos, k_pos)
    with pytest.raises(ContractViolation):
        attention_weights(q, k, q_pos, k_pos)
