"""Property checks of the decode cache over random lengths and long decodes.

A `DecodeCache` holds each layer in transposed float32 buffers with spare
rows (`kv_layout` lays the drawn rows out so) and grows them layer by
layer; a `CompactedCache` is the same storage after eviction. Over initial lengths of 1-300 rows and up to 200 appended
steps, so that runs cross several growth boundaries, the cache must hand
back exactly the float32 rows it was given and appended, in order. Its
`attend` must give, bit for bit, what a cache built in one piece from the
same rows gives, so growth never shows in a result; and it must stay
within the derived float32 round-off bound of `attention_reference` of the
float64 untiled attention over those rows. A step's layer order is a
checked contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfuse import eviction as EV
from kvfuse import model as M
from kvfuse.errors import ContractViolation

from attention_reference import float32_error_bound, where_attention

SETTINGS = settings(max_examples=30, deadline=None)

N_LAYERS, N_HEADS, HEAD_DIM = 2, 2, 4


def make_cache(kind: str, rng, n: int):
    """A plain or a compacted cache of `n` random float32 rows per layer and
    head, and the rows themselves."""
    shape = (N_LAYERS, N_HEADS, n, HEAD_DIM)
    keys = rng.normal(size=shape).astype(M.DTYPE)
    values = rng.normal(size=shape).astype(M.DTYPE)
    if kind == "plain":
        return M.DecodeCache(*M.kv_layout(keys, values), n), keys, values
    # Eviction kept n of a longer original cache, at different offsets per
    # layer and head.
    original = n + int(rng.integers(0, 20))
    index_map = np.stack([
        np.stack([np.sort(rng.choice(original, size=n, replace=False)) for _ in range(N_HEADS)])
        for _ in range(N_LAYERS)
    ])
    return EV.CompactedCache(*M.kv_layout(keys, values), index_map, original), keys, values


def reference_attention(q, k, v, position):
    """The float64 untiled attention of the query at `position` over the
    rows k, v, and the float32 round-off bound on `attend`'s distance from
    it, per head. Every stored row precedes the query, and the newest one is
    at `position`."""
    q_pos, k_pos = np.array([position]), position - np.arange(k.shape[1])[::-1]
    q = q[:, None, :]
    return (where_attention(q, k, v, q_pos, k_pos)[:, 0],
            float32_error_bound(q, k, v, q_pos, k_pos)[:, 0])


def one_piece_attend(q, k, v):
    """`attend` of a one-layer cache built in one piece from the rows k, v,
    at its newest row."""
    cache = M.DecodeCache(*M.kv_layout([k], [v]), k.shape[1])
    return cache.attend(0, q, cache.max_position)


@SETTINGS
@given(
    kind=st.sampled_from(["plain", "compacted"]),
    n=st.integers(1, 300),
    steps=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_cache_returns_its_rows_across_growth(kind, n, steps, seed):
    rng = np.random.default_rng(seed)
    cache, keys, values = make_cache(kind, rng, n)
    keys, values = list(keys), list(values)
    row_shape = (N_HEADS, 1, HEAD_DIM)

    def check_rows():
        assert cache.resident_floats() == N_LAYERS * N_HEADS * cache.length * HEAD_DIM * 2
        for l in range(N_LAYERS):
            view = cache.keys_view(l)
            assert view.dtype == M.DTYPE
            assert np.array_equal(view, keys[l])

    check_rows()
    for step in range(steps):
        position = cache.max_position + 1
        for l in range(N_LAYERS):
            k_row, v_row = rng.normal(size=row_shape), rng.normal(size=row_shape)
            cache.append(l, k_row[:, 0], v_row[:, 0], position)
            # Rows are stored rounded to float32.
            keys[l] = np.concatenate([keys[l], k_row.astype(M.DTYPE)], axis=1)
            values[l] = np.concatenate([values[l], v_row.astype(M.DTYPE)], axis=1)
            q = rng.normal(size=(N_HEADS, HEAD_DIM))
            out = cache.attend(l, q, position)
            assert out.dtype == np.float64
            assert out.tobytes() == one_piece_attend(q, keys[l], values[l]).tobytes()
            expect, bound = reference_attention(q, keys[l], values[l], position)
            assert np.all(np.abs(out - expect).max(axis=1) <= bound)
        assert cache.length == n + step + 1
        assert cache.max_position == position
        check_rows()


@pytest.mark.parametrize("kind", ["plain", "compacted"])
def test_step_layer_order_is_a_contract(kind):
    rng = np.random.default_rng(3)
    cache, _, _ = make_cache(kind, rng, 5)
    start = cache.max_position + 1
    row = rng.normal(size=(N_HEADS, HEAD_DIM))

    def refused(call, *args):
        length, max_pos = cache.length, cache.max_position
        with pytest.raises(ContractViolation):
            call(*args)
        assert (cache.length, cache.max_position) == (length, max_pos)

    refused(cache.append, 1, row, row, start)  # a step starts at layer 0
    refused(cache.attend, 0, row, start)  # nothing appended at `start` yet
    refused(cache.append, 0, row, row, start - 1)  # collides with a cached row
    cache.append(0, row, row, start)
    refused(cache.append, 0, row, row, start)  # layer 0 twice
    refused(cache.append, 1, row, row, start + 1)  # a second position inside the step
    refused(cache.attend, 1, row, start)  # layer 1 has no row at `start` yet
    cache.attend(0, row, start)
    cache.append(1, row, row, start)  # the last layer commits the step
    assert (cache.length, cache.max_position) == (6, start)
    for l in range(N_LAYERS):
        cache.attend(l, row, start)
    refused(cache.attend, 0, row, start - 1)  # a row older than the last step
    refused(cache.append, 1, row, row, start + 1)
    cache.append(0, row, row, start + 1)
