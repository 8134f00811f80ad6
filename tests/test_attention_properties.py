"""Property checks of the query-tiled causal attention over random shapes.

`attention` takes its keys at positions 0..n-1, as one layer of the
cache layout (`cache_layer`), so every check below lays them out so; the
untiled reference in `attention_reference` still takes rows and key
positions.

A tile's keys are cut at the end of the 32-key tile that holds its last
visible key, and every tile runs 32 query rows, so a row's bits depend
neither on the keys past that tile end, zero spare rows or real ones, nor
on the rows that follow it: a chunk attends alone as it does in front of
the rest of a sequence.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvfuse.errors import ContractViolation
from kvfuse import model as M
from kvfuse.model import _TILE_ROWS, attention, attention_weights

from attention_reference import cache_layer, float32_error_bound, where_attention, where_weights

SETTINGS = settings(max_examples=30, deadline=None)

heads = st.integers(1, 4)
head_dims = st.sampled_from([2, 4, 8, 16])
seeds = st.integers(0, 2**32 - 1)


def arrays(seed, n_heads, n_q, n_k, head_dim):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n_heads, n_q, head_dim)),
            rng.normal(size=(n_heads, n_k, head_dim)),
            rng.normal(size=(n_heads, n_k, head_dim)))


key_counts = st.integers(1, 400)


def check_against_untiled(q, k, v, q_pos, end=None):
    # Within float32 round-off of the float64 untiled formulation, per head
    # and row.
    out = attention(q, *cache_layer(k, v, end=end), q_pos)
    k_pos = np.arange(k.shape[1])
    error = np.abs(out - where_attention(q, k, v, q_pos, k_pos)).max(axis=-1)
    assert out.dtype == np.float64
    assert np.all(error <= float32_error_bound(q, k, v, q_pos, k_pos))


@SETTINGS
@given(heads, head_dims, key_counts, seeds)
@example(n_heads=2, head_dim=4, n=300, seed=0)  # ten tiles, the last one partly filled
def test_self_attention_matches_untiled(n_heads, head_dim, n, seed):
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    check_against_untiled(q, k, v, np.arange(n))


@st.composite
def carried_rows(draw):
    """A key count n and a sorted subset of the rows 0..n-1."""
    n = draw(key_counts, label="n")
    n_q = draw(st.integers(1, n), label="n_q")
    rng = np.random.default_rng(draw(seeds, label="row seed"))
    return n, np.sort(rng.choice(n, size=n_q, replace=False))


# The carried rows of rag_shared (480 system rows, two 480-row documents,
# 24 question rows; n=1464): 220 sorted document rows plus the question.
RAG_SHARED_CARRIED = (1464, np.concatenate([
    np.sort(np.random.default_rng(8).choice(np.arange(480, 1440), size=220, replace=False)),
    np.arange(1440, 1464),
]))


@SETTINGS
@given(heads, head_dims, carried_rows(), seeds)
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0)
def test_carried_rows_match_untiled(n_heads, head_dim, case, seed):
    # A sorted subset of rows attends over every key, as the carried rows
    # of the fused pipeline do.
    n, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, n, head_dim)
    check_against_untiled(q, k, v, rows)


@SETTINGS
@given(heads, head_dims, key_counts, seeds, st.booleans(), st.data())
def test_unordered_queries_match_untiled(n_heads, head_dim, n, seed, sort_queries, data):
    # Queries sit anywhere from the first key to one past the last, sorted
    # or not, so a tile may still stop short of the last key.
    rng = np.random.default_rng(seed)
    n_q = data.draw(st.integers(1, 400), label="n_q")
    q_pos = rng.integers(0, n + 1, size=n_q)
    if sort_queries:
        q_pos = np.sort(q_pos)
    q, k, v = arrays(seed, n_heads, n_q, n, head_dim)
    check_against_untiled(q, k, v, q_pos, end=n)


@SETTINGS
@given(st.integers(1, 6), head_dims, carried_rows(), seeds, st.booleans())
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0, stored=True)
def test_output_bits_do_not_depend_on_the_head_group(n_heads, head_dim, case, seed, stored):
    # The byte cap forced to 1 head, 2 heads and every head per pass, at
    # the size of one head's tile of float32 scores; the keys and values
    # float64, or float32 as stored, in buffers with spare rows.
    n, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, n, head_dim)
    if stored:
        k_buf, v_buf = M.kv_layout([k], [v])
        layer = k_buf[0][:, :, :n], v_buf[0][:, :, :n]
    else:
        layer = cache_layer(k, v, np.float64)
    head_block = _TILE_ROWS * n * np.dtype(M.DTYPE).itemsize
    outs = []
    for group in (1, 2, n_heads):
        with mock.patch.object(M, "_GROUP_BYTES", group * head_block):
            outs.append(attention(q, *layer, rows))
    assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


@SETTINGS
@given(heads, head_dims, carried_rows(), seeds)
@example(n_heads=4, head_dim=16, case=RAG_SHARED_CARRIED, seed=0)
def test_float64_keys_and_values_give_the_bits_of_their_float32_roundings(n_heads, head_dim,
                                                                        case, seed):
    # `attention` multiplies float32 keys and values, so float64 ones give
    # the bits of their roundings: `prefill_forward` passes the float32
    # layers it stores, where it could pass the float64 rows they round.
    n, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, n, head_dim)
    got = attention(q, *cache_layer(k, v, np.float64), rows)
    expect = attention(q, *cache_layer(k, v), rows)
    assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()


@SETTINGS
@given(heads, head_dims, carried_rows(), st.integers(1, 100), seeds)
@example(n_heads=2, head_dim=8, case=(10, np.arange(10)), extra=5, seed=0)
def test_keys_past_a_rows_tile_end_never_change_its_bits(n_heads, head_dim, case, extra, seed):
    # The rows attend over n keys laid out through `tile_end(n)`, the spare
    # rows zero, and over the same keys with `extra` real ones appended.
    n, rows = case
    q, k, v = arrays(seed, n_heads, rows.size, n + extra, head_dim)
    alone = attention(q, *cache_layer(k[:, :n], v[:, :n]), rows)
    appended = attention(q, *cache_layer(k, v), rows)
    assert alone.tobytes() == appended.tobytes()


@st.composite
def prefixes(draw):
    """A sequence length n and the length m <= n of a chunk it starts with."""
    n = draw(key_counts, label="n")
    return n, draw(st.integers(1, n), label="m")


@SETTINGS
@given(heads, head_dims, prefixes(), seeds)
@example(n_heads=2, head_dim=8, case=(15, 10), seed=0)  # 10 of a tile's 15 rows
@example(n_heads=4, head_dim=16, case=(1464, 480), seed=0)  # rag_shared's system chunk
def test_a_chunk_attends_alone_as_in_front_of_the_sequence(n_heads, head_dim, case, seed):
    # The first m rows of a sequence, laid out alone, against the whole
    # sequence: a stored chunk against a full prefill of its context.
    n, m = case
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    whole = attention(q, *cache_layer(k, v), np.arange(n))
    alone = attention(q[:, :m], *cache_layer(k[:, :m], v[:, :m]), np.arange(m))
    assert alone.tobytes() == whole[:, :m].tobytes()


@st.composite
def question_rows(draw):
    """1 to 400 keys at positions 0..n_k-1 and 1 to n_k query rows at the
    last n_q of them, the layout of a question after its context."""
    n_k = draw(st.integers(1, 400), label="n_k")
    return n_k, draw(st.integers(1, n_k), label="n_q")


@SETTINGS
@given(heads, head_dims, question_rows(), seeds)
@example(n_heads=2, head_dim=4, case=(70, 70), seed=0)  # the mask over the whole matrix
@example(n_heads=2, head_dim=4, case=(70, 1), seed=0)  # one row sees every key
def test_weights_bitwise_equal_to_where_formulation(n_heads, head_dim, case, seed):
    n_k, n_q = case
    k_pos = np.arange(n_k)
    q, k, _ = arrays(seed, n_heads, n_q, n_k, head_dim)
    got = attention_weights(q, k)
    expect = where_weights(q, k, k_pos[n_k - n_q:], k_pos)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


@SETTINGS
@given(heads, head_dims, st.integers(_TILE_ROWS + 1, 400), seeds, st.data())
def test_row_without_visible_key_raises_in_a_later_tile(n_heads, head_dim, n, seed, data):
    # Position -1 precedes key 0, so that row sees no key.
    q_pos = np.arange(n)
    q_pos[data.draw(st.integers(_TILE_ROWS, n - 1), label="blind row")] = -1
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    with pytest.raises(ContractViolation):
        attention(q, *cache_layer(k, v), q_pos)


@SETTINGS
@given(heads, head_dims, st.integers(0, 40), seeds)
def test_zero_query_rows_give_an_empty_result(n_heads, head_dim, n_k, seed):
    q, k, v = arrays(seed, n_heads, 0, n_k, head_dim)
    out = attention(q, *cache_layer(k, v), np.zeros(0, dtype=np.int64))
    assert out.shape == (n_heads, 0, head_dim) and out.dtype == np.float64


@SETTINGS
@given(heads, head_dims, st.integers(1, 400), seeds, st.data())
def test_row_without_visible_key_raises_in_the_first_tile(n_heads, head_dim, n, seed, data):
    q_pos = np.arange(n)
    q_pos[data.draw(st.integers(0, min(n, _TILE_ROWS) - 1), label="blind row")] = -1
    q, k, v = arrays(seed, n_heads, n, n, head_dim)
    with pytest.raises(ContractViolation):
        attention(q, *cache_layer(k, v), q_pos)


@SETTINGS
@given(heads, head_dims, st.integers(1, 40), seeds)
def test_rows_over_no_keys_raise(n_heads, head_dim, n_q, seed):
    q, k, v = arrays(seed, n_heads, n_q, 0, head_dim)
    with pytest.raises(ContractViolation):
        attention(q, *cache_layer(k, v), np.arange(n_q))
