"""Property check of position recovery over random chunkings.

Chunks are precomputed alone, concatenated and rotated at their global
offsets. Layer 0 saw no context in any path, and the system chunk comes
first, so at layer 0 everywhere and over the whole system span at every
layer the result must be a full prefill's of the same ids bit for bit:
every path rotates the same float32 raw keys, and `attention` cuts a
tile's keys at a 32-key tile end and runs 32 query rows, so the system's
partial last tile makes the same products alone in its chunk as in front
of the documents. Chunks of up to 100 tokens put chunk edges on both
sides of the 32-row attention tile edges.

The selective strategies keep those exact rows: their fused layers 0 and
1, and the whole system span at every layer, are a full prefill's bit
for bit, from a cold store of prefix entries and from a warm one.

Recovery, `full`'s prefill and `rotate_chunk_local` each rotate stored
keys in place in the concatenated buffer's layout, one layer at a time
from one cos/sin table. Recovery must give bit for bit what `rope_rotate`
of the stored keys at their global offsets gives; `full` and local
rotation what it gives at each chunk's positions 0..len-1. Values are
never touched, and `full`'s question rows hold what the prefill loop
writes over that rotated context.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvfuse import chunkstore as CS
from kvfuse import fusion as FU
from kvfuse import model as M

SETTINGS = settings(max_examples=30, deadline=None)

# The model shape of test_03 (tests/test_acceptance.py).
MODEL = M.build_model(M.ModelConfig(n_layers=4, n_heads=2, head_dim=8, d_ff=32,
                                    vocab_size=64, seed=300))
QUESTION = np.array([5, 9, 2, 40])


@st.composite
def chunkings(draw):
    """1 to 4 chunks of 1 to 100 token ids; the first is the system chunk."""
    lengths = draw(st.lists(st.integers(1, 100), min_size=1, max_size=4), label="lengths")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="ids seed"))
    return [rng.integers(0, MODEL.config.vocab_size, size=n) for n in lengths]


@st.composite
def edge_chunkings(draw):
    """`chunkings` whose system chunk ends just before, on or just after a
    32-row tile edge, or anywhere up to 100 tokens."""
    parts = draw(chunkings())
    edge = st.sampled_from([31, 32, 33, 63, 64, 65, 95, 96, 97])
    length = draw(st.one_of(edge, st.integers(1, 100)), label="system length")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="system seed"))
    return [rng.integers(0, MODEL.config.vocab_size, size=length)] + parts[1:]


@SETTINGS
@given(edge_chunkings())
def test_recovered_concat_matches_prefill_at_layer0_and_system_span(parts):
    fused = CS.concat_chunks([CS.precompute_chunk(p, MODEL) for p in parts])
    CS.recover_positions(fused, MODEL.config)
    oracle = M.prefill_forward(MODEL, np.concatenate(parts)).caches
    true_k = np.stack([c.keys for c in oracle])
    true_v = np.stack([c.values for c in oracle])
    assert np.array_equal(fused.keys[0], true_k[0])
    assert np.array_equal(fused.values[0], true_v[0])
    system = parts[0].size
    assert np.array_equal(fused.keys[:, :, :system], true_k[:, :, :system])
    assert np.array_equal(fused.values[:, :, :system], true_v[:, :, :system])


@settings(max_examples=40, deadline=None)
@given(edge_chunkings())
def test_selective_strategies_keep_layers_0_1_and_the_system_tiles_exact(parts):
    segments = FU.InputSegments(parts[0], parts[1:], QUESTION)
    oracle = M.prefill_forward(MODEL, segments.all_ids()).caches
    true_k = np.stack([c.keys for c in oracle])
    true_v = np.stack([c.values for c in oracle])
    system = parts[0].size
    with tempfile.TemporaryDirectory() as directory:
        store = CS.ChunkStore(directory)
        for part in parts:
            CS.store_chunk(CS.precompute_chunk(part, MODEL), store)
        for strategy in ("attention_aware", "kv_diff", "head_tail", "none"):
            for _ in ("cold", "warm"):
                fused, _, _ = FU.fused_prefill(MODEL, segments, FU.FusionPlan(strategy, r=0.3),
                                               store)
                assert np.array_equal(fused.keys[:2], true_k[:2])
                assert np.array_equal(fused.values[:2], true_v[:2])
                assert np.array_equal(fused.keys[:, :, :system], true_k[:, :, :system])
                assert np.array_equal(fused.values[:, :, :system], true_v[:, :, :system])


@SETTINGS
@given(st.sampled_from(["recovery", "full"]), chunkings())
@example("full", [np.array([3]), np.array([5, 6, 7]), np.array([9])])
def test_rotation_equals_rope_rotate_of_the_stored_keys(case, parts):
    # Recovery rotates every stored key at its global offset; `full`'s
    # prefill rotates each chunk's keys at its local positions.
    chunks = [CS.precompute_chunk(p, MODEL) for p in parts]
    stored = CS.concat_chunks(chunks, QUESTION.size)
    n_ctx = stored.segments.question_span.start
    if case == "recovery":
        positions = np.arange(n_ctx)
        cache = CS.recover_positions(CS.concat_chunks(chunks, QUESTION.size), MODEL.config)
    else:
        positions = np.concatenate([np.arange(p.size) for p in parts])
        with tempfile.TemporaryDirectory() as directory:
            store = CS.ChunkStore(directory)
            for chunk in chunks:
                CS.store_chunk(chunk, store)
            cache, logits, _ = FU.fused_prefill(
                MODEL, FU.InputSegments(parts[0], parts[1:], QUESTION), FU.FusionPlan("full"),
                store)
    expect = M.rope_rotate(stored.keys[:, :, :n_ctx], positions, MODEL.config).astype(M.DTYPE)
    assert cache.keys.dtype == M.DTYPE and np.array_equal(cache.keys[:, :, :n_ctx], expect)
    assert np.array_equal(cache.values[:, :, :n_ctx], stored.values[:, :, :n_ctx])
    if case == "recovery":
        assert np.array_equal(cache.keys[:, :, n_ctx:], stored.keys[:, :, n_ctx:])
        assert np.array_equal(cache.values[:, :, n_ctx:], stored.values[:, :, n_ctx:])
    else:
        # The question rows hold what the loop writes over that context.
        stored.keys[:, :, :n_ctx] = expect
        end = M.tile_end(stored.n)
        x = M._prefill_layers(MODEL, QUESTION, np.arange(n_ctx, stored.n),
                              stored.key_buffer[..., :end], stored.value_buffer[..., :end])
        assert np.array_equal(cache.keys, stored.keys)
        assert np.array_equal(cache.values, stored.values)
        assert np.array_equal(logits, M.final_logits(MODEL, x)[0])


@SETTINGS
@given(chunkings())
def test_local_rotation_equals_rope_rotate_per_layer(parts):
    for part in parts:
        chunk = CS.precompute_chunk(part, MODEL)
        rotated = CS.rotate_chunk_local(chunk, MODEL.config)
        pos = np.arange(chunk.length, dtype=np.int64)
        assert len(rotated.layers) == len(chunk.layers)
        assert rotated.values is chunk.values
        for before, after in zip(chunk.layers, rotated.layers):
            assert after.rope_applied and after.keys.dtype == M.DTYPE
            assert np.array_equal(after.keys,
                                  M.rope_rotate(before.keys, pos, MODEL.config).astype(M.DTYPE))
