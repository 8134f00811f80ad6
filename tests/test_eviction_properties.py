"""Property checks of eviction over random chunkings, budgets and decodes.

The caches are random arrays laid out as a fused cache (a system chunk,
document chunks, the question), so the checks see many shapes quickly;
SnapKV semantics are what is checked: protected rows always stay, the
document rows kept are the top-scored ones, and rows appended during
decoding are never dropped.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from kvfuse import chunkstore as CS
from kvfuse import eviction as EV
from kvfuse import fusion as FU
from kvfuse import model as M

SETTINGS = settings(max_examples=40, deadline=None)

MODEL = M.build_model(M.ModelConfig(n_layers=3, n_heads=2, head_dim=4, d_ff=16,
                                    vocab_size=32, seed=5))


@st.composite
def instances(draw):
    """A random patched cache, an eviction capacity above its protected
    row count, and a number of decode steps."""
    sys_len = draw(st.integers(1, 6), label="system")
    doc_lens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4), label="documents")
    q_len = draw(st.integers(1, 5), label="question")
    spans, offset = [CS.Span("system", 0, sys_len)], sys_len
    for length in doc_lens:
        spans.append(CS.Span("document", offset, length))
        offset += length
    spans.append(CS.Span("question", offset, q_len))
    segments = CS.SegmentMap(spans)
    n, protected = segments.n, sys_len + q_len
    capacity = draw(st.integers(protected + 1, n + 3), label="capacity")
    steps = draw(st.integers(0, 3), label="decode steps")

    cfg = MODEL.config
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    shape = (cfg.n_layers, cfg.n_heads, n, cfg.head_dim)
    key_buffer, value_buffer = M.kv_layout(rng.normal(size=shape), rng.normal(size=shape))
    cache = CS.FusedCache(
        key_buffer=key_buffer,
        value_buffer=value_buffer,
        segments=segments,
        rope_recovered=True,
        token_ids=np.zeros(n - q_len, dtype=np.uint32),
        recompute=FU.RecomputeSet(np.zeros(0, dtype=np.int64), 0),
        patched_offsets=segments.offsets("question"),
        question_queries=rng.normal(size=shape[:2] + (q_len, cfg.head_dim)).astype(M.DTYPE),
    )
    return cache, capacity, steps


# Few distinct values, so windows hold ties; zeros of both signs included.
POOL_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.25, 0.5, 0.5 + 2**-53, 1.0, 3.0])


@st.composite
def pool_inputs(draw):
    """Rows of one length in 1-40, so some are shorter than the window."""
    n = draw(st.integers(1, 40), label="length")
    row = st.lists(POOL_VALUES | st.floats(0.0, 2.0), min_size=n, max_size=n)
    return np.asarray(draw(st.lists(row, min_size=1, max_size=3), label="rows"))


@settings(max_examples=300, deadline=None)
@given(pool_inputs())
def test_max_pool_has_the_bits_of_scipy(x):
    expect = maximum_filter1d(x, size=EV.POOL_KERNEL, axis=-1, mode="nearest")
    assert EV._max_pool(x).tobytes() == expect.tobytes()


@SETTINGS
@given(instances())
def test_evict_keeps_protected_and_top_scored_rows(instance):
    cache, capacity, _ = instance
    compacted = EV.evict(cache, EV.EvictionPolicy(capacity=capacity))
    n = cache.n
    kept = min(n, capacity)
    protected = [int(i) for i in cache.segments.protected_offsets()]
    doc = [int(i) for i in cache.segments.document_offsets()]
    budget = capacity - len(protected)
    scores = EV.snap_scores(cache)
    assert compacted.kept == kept
    for l in range(cache.keys.shape[0]):
        for h in range(cache.keys.shape[1]):
            retained = [int(i) for i in compacted.index_map[l, h]]
            assert len(retained) == kept
            assert all(a < b for a, b in zip(retained, retained[1:]))
            assert set(protected) <= set(retained)
            # Highest score first, ties to the lower offset.
            ranked = sorted(doc, key=lambda i: (-float(scores[l, h, i]), i))
            assert sorted(set(retained) - set(protected)) == sorted(ranked[:budget])
            np.testing.assert_array_equal(compacted.keys_view(l)[h], cache.keys[l, h, retained])


@SETTINGS
@given(instances())
def test_rows_appended_during_decode_are_never_dropped(instance):
    cache, capacity, steps = instance
    compacted = EV.evict(cache, EV.EvictionPolicy(capacity=capacity))
    kept = compacted.kept
    before = [compacted.keys_view(l).copy() for l in range(cache.keys.shape[0])]
    token = 0
    for step in range(steps):
        token = M.greedy_token(M.decode_step(MODEL, compacted, token, cache.n + step))
    assert compacted.length == kept + steps
    for l, rows in enumerate(before):
        np.testing.assert_array_equal(compacted.keys_view(l)[:, :kept], rows)
