import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

from kvfuse import chunkstore as CS
from kvfuse import eviction as EV
from kvfuse import fusion as FU
from kvfuse import model as M
from kvfuse.errors import ConfigError, ContractViolation, InputError

# Greedy continuation under eviction on the pinned instance below; frozen
# from the first implementation run as a regression trace (eviction is
# lossy by design, so there is no analytic oracle for these tokens).
GOLDEN_EVICTED_GREEDY = [24, 20, 62, 12, 29, 19, 19, 19]


def make_model(**over):
    base = dict(n_layers=4, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=33)
    base.update(over)
    return M.build_model(M.ModelConfig(**base))


def patched_instance(model, tmp_path, rng, sys_len=6, doc_lens=(14, 12), q_len=4, strategy="attention_aware", r=0.15):
    vocab = model.config.vocab_size
    segments = FU.InputSegments(
        system=rng.integers(0, vocab, size=sys_len),
        documents=[rng.integers(0, vocab, size=n) for n in doc_lens],
        question=rng.integers(0, vocab, size=q_len),
    )
    for part in segments.context_chunks():
        CS.store_chunk(CS.precompute_chunk(part, model), tmp_path)
    patched, logits, trace = FU.fused_prefill(model, segments, FU.FusionPlan(strategy, r=r), tmp_path)
    return segments, patched, logits, trace


# ---------------------------------------------------------------------------
# Policy and scores


def test_policy_validation():
    for capacity in (0, -3, 10.5, "10", True):
        with pytest.raises(ConfigError):
            EV.EvictionPolicy(capacity=capacity)
    assert EV.EvictionPolicy(capacity=10).capacity == 10


def test_snap_scores_pools_summed_question_attention(tmp_path):
    model = make_model()
    rng = np.random.default_rng(0)
    _, patched, _, _ = patched_instance(model, tmp_path, rng)
    pooled = EV.snap_scores(patched)
    assert pooled.shape == (4, 2, patched.n)
    for l in range(4):
        raw = FU.question_attention(
            patched.question_queries[l], patched.keys[l], patched.segments
        ).sum(axis=1)
        assert not np.array_equal(raw, pooled[l])
        np.testing.assert_array_equal(
            maximum_filter1d(raw, size=EV.POOL_KERNEL, axis=-1, mode="nearest"), pooled[l]
        )


def test_importing_the_package_leaves_scipy_out():
    # scipy serves the tests as an oracle only; the package pools with NumPy.
    code = "import sys, kvfuse, kvfuse.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(EV.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_snap_scores_matches_loop_reference(tmp_path):
    model = make_model()
    rng = np.random.default_rng(1)
    _, patched, _, _ = patched_instance(model, tmp_path, rng)
    kernel = EV.POOL_KERNEL
    got = EV.snap_scores(patched)
    cfg = model.config
    q_span = patched.segments.question_span
    scale = 1.0 / np.sqrt(cfg.head_dim)
    n = patched.n
    for l in range(cfg.n_layers):
        for h in range(cfg.n_heads):
            summed = np.zeros(n)
            for j in range(q_span.length):
                qvec = patched.question_queries[l, h, j].astype(np.float64)
                visible = q_span.start + j + 1
                logits = np.array(
                    [qvec @ patched.keys[l, h, m].astype(np.float64) * scale for m in range(visible)]
                )
                w = np.exp(logits - logits.max())
                w /= w.sum()
                summed[:visible] += w
            pooled = np.empty(n)
            half = kernel // 2
            for m in range(n):
                lo, hi = max(0, m - half), min(n, m + half + 1)
                pooled[m] = summed[lo:hi].max()
            np.testing.assert_allclose(got[l, h], pooled, atol=1e-10)


def test_snap_scores_rejects_unrecovered(tmp_path):
    model = make_model()
    rng = np.random.default_rng(2)
    segments, patched, _, _ = patched_instance(model, tmp_path, rng, strategy="full")
    with pytest.raises(ContractViolation):
        EV.snap_scores(patched)
    # A record from concat and recovery alone holds no question queries.
    fp = model.config.fingerprint()
    chunks = [CS.load_chunk(CS.chunk_id(part, fp), tmp_path)
              for part in segments.context_chunks()]
    fused = CS.recover_positions(CS.concat_chunks(chunks, len(segments.question)), model.config)
    assert fused.rope_recovered and fused.question_queries is None
    with pytest.raises(ContractViolation):
        EV.evict(fused, EV.EvictionPolicy(capacity=fused.segments.protected_offsets().size + 1))


def test_snap_scores_rejects_empty_window(tmp_path):
    model = make_model()
    rng = np.random.default_rng(3)
    _, patched, _, _ = patched_instance(model, tmp_path, rng)
    empty = dataclasses.replace(patched, question_queries=patched.question_queries[:, :, :0])
    with pytest.raises(InputError):
        EV.snap_scores(empty)


# ---------------------------------------------------------------------------
# evict


def test_evict_capacity_and_protection(tmp_path):
    model = make_model()
    rng = np.random.default_rng(4)
    segments, patched, _, _ = patched_instance(model, tmp_path, rng, sys_len=6, doc_lens=(20, 20), q_len=4)
    n = patched.n
    policy = EV.EvictionPolicy(capacity=20)
    compacted = EV.evict(patched, policy)
    assert compacted.kept == 20
    assert compacted.index_map.shape == (4, 2, 20)
    protected = patched.segments.protected_offsets()
    for l in range(4):
        for h in range(2):
            retained = compacted.index_map[l, h]
            assert np.all(np.diff(retained) > 0)
            assert np.isin(protected, retained).all()
    # Membership can differ across heads; rows are bitwise-original.
    for l in range(4):
        for h in range(2):
            np.testing.assert_array_equal(
                compacted.keys_view(l)[h], patched.keys[l, h, compacted.index_map[l, h]]
            )
    assert compacted.resident_floats() == 4 * 2 * 20 * 8 * 2
    assert n > 20


def test_evict_noop_when_capacity_covers_everything(tmp_path):
    model = make_model()
    rng = np.random.default_rng(5)
    _, patched, _, _ = patched_instance(model, tmp_path, rng)
    compacted = EV.evict(patched, EV.EvictionPolicy(capacity=patched.n + 100))
    assert compacted.kept == patched.n
    np.testing.assert_array_equal(compacted.index_map[0, 0], np.arange(patched.n))
    np.testing.assert_array_equal(compacted.keys_view(0), patched.keys[0])


def test_evict_rejects_capacity_below_protected(tmp_path):
    model = make_model()
    rng = np.random.default_rng(6)
    _, patched, _, _ = patched_instance(model, tmp_path, rng, sys_len=8, q_len=8)
    with pytest.raises(ConfigError):
        EV.evict(patched, EV.EvictionPolicy(capacity=16))


def test_evict_tie_break_toward_low_offsets(tmp_path, monkeypatch):
    model = make_model()
    rng = np.random.default_rng(7)
    _, patched, _, _ = patched_instance(model, tmp_path, rng, doc_lens=(10, 10))
    monkeypatch.setattr(EV, "snap_scores", lambda cache: np.ones((4, 2, cache.n)))
    policy = EV.EvictionPolicy(capacity=patched.segments.protected_offsets().size + 5)
    compacted = EV.evict(patched, policy)
    doc = patched.segments.document_offsets()
    expect = np.sort(np.concatenate([patched.segments.protected_offsets(), doc[:5]]))
    for l in range(4):
        for h in range(2):
            np.testing.assert_array_equal(compacted.index_map[l, h], expect)


# ---------------------------------------------------------------------------
# decoding on a compacted cache


def greedy_decode_logits(model, cache, token, position, steps):
    """The logits of `steps` greedy decode steps from `token` at `position`."""
    out = []
    for step in range(steps):
        logits = M.decode_step(model, cache, token, position + step)
        out.append(logits.tobytes())
        token = M.greedy_token(logits)
    return out


# Steps enough to cross a decode cache's first growth (64 spare rows).
LONG_DECODE = 80


def test_noop_eviction_decode_matches_unevicted(tmp_path):
    model = make_model()
    rng = np.random.default_rng(8)
    _, patched, logits, _ = patched_instance(model, tmp_path, rng)
    plain = patched.to_decode_cache()
    compacted = EV.evict(patched, EV.EvictionPolicy(capacity=patched.n + 1))
    token = M.greedy_token(logits)
    a = greedy_decode_logits(model, plain, token, patched.n, LONG_DECODE)
    b = greedy_decode_logits(model, compacted, token, patched.n, LONG_DECODE)
    assert a == b


@pytest.mark.parametrize("capacity", [None, 24])
def test_decode_bitwise_deterministic(tmp_path, capacity):
    # The same request, prefilled and decoded twice from fresh stores, gives
    # the same logits bit for bit at every step, past the first growth of
    # the plain cache and (capacity 24 of 42 rows) of the compacted one.
    model = make_model()
    runs = []
    for run in range(2):
        store = tmp_path / str(run)
        store.mkdir()
        rng = np.random.default_rng(10)
        _, patched, logits, _ = patched_instance(model, store, rng, doc_lens=(16, 16))
        if capacity is None:
            cache = patched.to_decode_cache()
        else:
            cache = EV.evict(patched, EV.EvictionPolicy(capacity=capacity))
            assert cache.kept < patched.n
        runs.append(greedy_decode_logits(model, cache, M.greedy_token(logits), patched.n,
                                         LONG_DECODE))
    assert runs[0] == runs[1]


def test_evicted_cache_grows_append_only(tmp_path):
    model = make_model()
    rng = np.random.default_rng(9)
    _, patched, logits, _ = patched_instance(model, tmp_path, rng, doc_lens=(20, 18))
    capacity = patched.segments.protected_offsets().size + 8
    compacted = EV.evict(patched, EV.EvictionPolicy(capacity=capacity))
    token = M.greedy_token(logits)
    for step in range(3):
        logits2 = M.decode_step(model, compacted, token, patched.n + step)
        token = M.greedy_token(logits2)
    assert compacted.length == capacity + 3
    assert compacted.resident_floats() == 4 * 2 * (capacity + 3) * 8 * 2
    with pytest.raises(ContractViolation):
        M.decode_step(model, compacted, token, patched.n)


def test_evicted_greedy_trace_frozen(tmp_path):
    # Pinned instance: seed 33 model, seed 123 data, capacity 24.
    model = make_model()
    rng = np.random.default_rng(123)
    _, patched, logits, _ = patched_instance(model, tmp_path, rng, sys_len=6, doc_lens=(16, 16), q_len=4)
    compacted = EV.evict(patched, EV.EvictionPolicy(capacity=24))
    tokens = [M.greedy_token(logits)]
    for step in range(7):
        lg = M.decode_step(model, compacted, tokens[-1], patched.n + step)
        tokens.append(M.greedy_token(lg))
    assert tokens == GOLDEN_EVICTED_GREEDY
