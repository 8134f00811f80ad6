import itertools

import numpy as np
import pytest

from kvfuse import chunkstore as CS
from kvfuse import fusion as FU
from kvfuse import model as M
from kvfuse.errors import (
    ChunkNotFoundError,
    ConfigError,
    ContractViolation,
    InputError,
    ShapeError,
)


def make_model(**over):
    base = dict(n_layers=4, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=21)
    base.update(over)
    return M.build_model(M.ModelConfig(**base))


def make_instance(model, rng, sys_len=8, doc_lens=(12, 10), q_len=5):
    vocab = model.config.vocab_size
    return FU.InputSegments(
        system=rng.integers(0, vocab, size=sys_len),
        documents=[rng.integers(0, vocab, size=n) for n in doc_lens],
        question=rng.integers(0, vocab, size=q_len),
    )


def populate_store(model, segments, store):
    for part in segments.context_chunks():
        CS.store_chunk(CS.precompute_chunk(part, model), store)


def simple_segmap(sys_len, doc_lens, q_len):
    spans = [CS.Span("system", 0, sys_len)]
    offset = sys_len
    for n in doc_lens:
        spans.append(CS.Span("document", offset, n))
        offset += n
    spans.append(CS.Span("question", offset, q_len))
    return CS.SegmentMap(spans)


# ---------------------------------------------------------------------------
# score_tokens


def test_score_tokens_symmetric_keys():
    # Two document tokens with identical keys draw identical weight.
    rng = np.random.default_rng(0)
    sm = simple_segmap(1, [2], 1)
    hd = 4
    k = rng.normal(size=(2, sm.n, hd))
    k[:, 2] = k[:, 1]
    q = rng.normal(size=(2, 1, hd))
    scores = FU.score_tokens(q, k, sm)
    assert scores.shape == (2,)
    np.testing.assert_allclose(scores[0], scores[1], atol=1e-12)


def test_score_tokens_mass_bounded_by_question_rows():
    rng = np.random.default_rng(1)
    sm = simple_segmap(3, [5, 4], 3)
    q = rng.normal(size=(2, 3, 6))
    k = rng.normal(size=(2, sm.n, 6))
    scores = FU.score_tokens(q, k, sm)
    assert np.all(scores >= 0)
    assert scores.sum() <= 3 + 1e-9


def test_score_tokens_matches_loop_reference():
    rng = np.random.default_rng(2)
    sm = simple_segmap(2, [4, 3], 2)
    H, hd = 2, 4
    q = rng.normal(size=(H, 2, hd))
    k = rng.normal(size=(H, sm.n, hd))
    got = FU.score_tokens(q, k, sm)

    scale = 1.0 / np.sqrt(hd)
    doc = sm.document_offsets()
    expect = np.zeros(len(doc))
    q_start = sm.question_span.start
    for j in range(2):
        per_head = np.zeros(sm.n)
        for h in range(H):
            visible = q_start + j + 1
            logits = np.array([q[h, j] @ k[h, m] * scale for m in range(visible)])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            per_head[:visible] += w / H
        expect += per_head[doc]
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_score_tokens_rejects_empty_question():
    sm = simple_segmap(2, [3], 0)
    with pytest.raises(InputError):
        FU.score_tokens(np.zeros((1, 0, 4)), np.zeros((1, sm.n, 4)), sm)


def test_question_attention_checks_rows_and_keys():
    sm = simple_segmap(2, [3], 2)
    q, k = np.ones((1, 2, 4)), np.ones((1, sm.n, 4))
    weights = FU.question_attention(q, k, sm)
    assert weights.shape == (1, 2, sm.n)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0)
    assert weights[0, 0, -1] == 0.0  # the first question row cannot see the second
    with pytest.raises(InputError):
        FU.question_attention(q[:, :0], k, sm)  # no query rows
    with pytest.raises(ShapeError):
        FU.question_attention(np.ones((1, 3, 4)), k, sm)
    with pytest.raises(ShapeError):
        FU.question_attention(q, k[:, :-1], sm)


# ---------------------------------------------------------------------------
# Selection


def test_select_recompute_budget_and_ties():
    sm = simple_segmap(5, [3], 1)
    scores = np.array([0.5, 0.1, 0.4])
    rset = FU.select_recompute(scores, r=2 / 9, n=9, segment_map=sm)
    assert rset.p == 2
    assert list(rset.indices) == [5, 7]
    tied = FU.select_recompute(np.array([0.3, 0.3, 0.3]), r=2 / 9, n=9, segment_map=sm)
    assert list(tied.indices) == [5, 6]


def test_select_recompute_p_rule():
    sm = simple_segmap(100, [5900], 0)
    rset = FU.select_recompute(np.linspace(0, 1, 5900), r=0.15, n=6000, segment_map=sm)
    assert rset.p == 900
    assert not rset.clamped


def test_select_recompute_boundaries():
    sm = simple_segmap(2, [4], 2)
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    r0 = FU.select_recompute(scores, 0.0, 8, sm)
    assert r0.p == 0 and r0.indices.size == 0
    r1 = FU.select_recompute(scores, 1.0, 8, sm)
    assert list(r1.indices) == [2, 3, 4, 5]
    assert r1.clamped  # round(1.0 * 8) = 8 > 4 document tokens


def test_select_optimality_brute_force():
    rng = np.random.default_rng(3)
    sm = simple_segmap(2, [6, 5], 2)
    scores = rng.uniform(size=11)
    doc = sm.document_offsets()
    for p_target in (1, 3, 5):
        rset = FU.select_recompute(scores, p_target / sm.n, sm.n, sm)
        assert rset.p == p_target
        chosen_sum = scores[np.searchsorted(doc, rset.indices)].sum()
        for combo in itertools.combinations(range(len(doc)), p_target):
            assert chosen_sum >= scores[list(combo)].sum() - 1e-12


def test_kv_diff_selects_top_layer1_value_deviation(tmp_path):
    # kv_diff picks the document tokens whose stored layer-1 values deviate
    # most from the true ones, ties to the lower offset.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(4), doc_lens=(12, 10, 9))
    populate_store(model, segments, tmp_path)
    stored = np.concatenate(
        [CS.precompute_chunk(part, model).layers[1].values
         for part in segments.context_chunks()], axis=1,
    )
    for r in (0.1, 0.3, 1.0):
        patched, _, trace = FU.fused_prefill(
            model, segments, FU.FusionPlan("kv_diff", r=r), tmp_path
        )
        true = patched.values[1]
        doc = patched.segments.document_offsets()
        deviation = {}
        for i in doc:
            total = 0.0
            for h in range(model.config.n_heads):
                for d in range(model.config.head_dim):
                    total += (float(stored[h, i, d]) - float(true[h, i, d])) ** 2
            deviation[int(i)] = total ** 0.5
        assert len(set(deviation.values())) > 1  # the criterion actually ranks
        p_raw = round(r * patched.n)
        p = min(p_raw, doc.size)
        expect = sorted(sorted(deviation, key=lambda i: (-deviation[i], i))[:p])
        assert (trace.p, trace.clamped) == (p, p_raw > doc.size)
        assert trace.selected == expect


def test_select_head_tail():
    sm = simple_segmap(10, [512], 1)
    rset = FU.select_head_tail(sm, 20)
    assert rset.p == 40
    assert list(rset.indices) == list(range(10, 30)) + list(range(502, 522))

    short = simple_segmap(2, [30], 1)
    assert FU.select_head_tail(short, 20).p == 30  # head and tail overlap
    assert FU.select_head_tail(short, 0).p == 0


# ---------------------------------------------------------------------------
# hit_rate


def test_hit_rate_contract():
    a = FU.RecomputeSet(np.array([1, 2, 3]), 3)
    b = FU.RecomputeSet(np.array([2, 3, 4]), 3)
    assert FU.hit_rate(a, a) == 1.0
    assert FU.hit_rate(b, a) == pytest.approx(2 / 3)
    disjoint = FU.RecomputeSet(np.array([7, 8, 9]), 3)
    assert FU.hit_rate(disjoint, a) == 0.0
    empty = FU.RecomputeSet(np.zeros(0, dtype=np.int64), 0)
    assert FU.hit_rate(empty, empty) == 1.0
    with pytest.raises(ContractViolation):
        FU.hit_rate(a, empty)


# ---------------------------------------------------------------------------
# fused_prefill


def test_fused_prefill_full_recompute_matches_vanilla(tmp_path):
    model = make_model()
    rng = np.random.default_rng(5)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    patched, logits, trace = FU.fused_prefill(
        model, segments, FU.FusionPlan("attention_aware", r=1.0), tmp_path
    )
    oracle_logits = M.prefill_forward(model, segments.all_ids()).logits
    np.testing.assert_allclose(logits, oracle_logits, atol=1e-4)
    assert M.greedy_token(logits) == M.greedy_token(oracle_logits)
    assert trace.clamped  # r=1 exceeds the document token count


def test_full_strategy_suffix_matches_full_prefill(tmp_path):
    # A question carried through every layer over the exact stored cache of
    # its prefix reproduces the full prefill at the question rows.
    model = make_model()
    cfg = model.config
    rng = np.random.default_rng(8)
    n, cut = 10, 4
    ids = rng.integers(0, cfg.vocab_size, size=n)
    CS.store_chunk(CS.precompute_chunk(ids[:cut], model), tmp_path)
    for t in range(cut, n):
        segments = FU.InputSegments(system=ids[:cut], documents=[], question=ids[cut : t + 1])
        patched, logits, _ = FU.fused_prefill(model, segments, FU.FusionPlan("full"), tmp_path)
        prefix = M.prefill_forward(model, ids[: t + 1])
        np.testing.assert_allclose(logits, prefix.logits, atol=1e-5)
        for l, cache in enumerate(prefix.caches):
            np.testing.assert_allclose(patched.keys[l], cache.keys, atol=1e-5)
            np.testing.assert_allclose(patched.values[l], cache.values, atol=1e-5)


@pytest.mark.parametrize("strategy", ["attention_aware", "kv_diff", "head_tail", "none"])
def test_prefill_attends_over_the_cache_it_returns(tmp_path, strategy):
    # Rerunning the blocks over the returned float32 cache alone, every row
    # through layers 0-1 and the patched rows after, reproduces the
    # first-token logits bit for bit: decode continues from the cache the
    # prefill attended to.
    model = make_model()
    rng = np.random.default_rng(13)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    plan = FU.FusionPlan(strategy, r=0.3, head_tail_k=2)
    patched, logits, _ = FU.fused_prefill(model, segments, plan, tmp_path)
    pos = np.arange(patched.n, dtype=np.int64)
    rows = pos
    x = np.asarray(model.weights.embedding[segments.all_ids()], dtype=np.float64)
    for l in range(model.config.n_layers):
        if l == 2:
            rows = patched.patched_offsets
            x = x[rows]
        q, _, _, _ = M.block_qkv(model, l, x, rows)
        attn = M.attention(q, np.asarray(patched.keys[l], dtype=np.float64),
                           np.asarray(patched.values[l], dtype=np.float64), rows, pos)
        x = M.block_out(model, l, x, attn)
    assert np.array_equal(M.final_logits(model, x[-1:])[0], logits)


def test_fused_prefill_r0_identical_to_none(tmp_path):
    model = make_model()
    rng = np.random.default_rng(6)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    pa, la, ta = FU.fused_prefill(model, segments, FU.FusionPlan("attention_aware", r=0.0), tmp_path)
    pb, lb, tb = FU.fused_prefill(model, segments, FU.FusionPlan("none"), tmp_path)
    assert np.array_equal(la, lb)
    assert np.array_equal(pa.keys, pb.keys)
    assert np.array_equal(pa.values, pb.values)
    assert np.array_equal(pa.patched_offsets, pb.patched_offsets)
    assert ta.selected == tb.selected == []


def test_fused_prefill_single_chunk_none_matches_vanilla(tmp_path):
    # One chunk means no cross-chunk attention is lost; position recovery
    # alone reproduces the oracle.
    model = make_model()
    rng = np.random.default_rng(7)
    segments = FU.InputSegments(
        system=rng.integers(0, 64, size=16),
        documents=[],
        question=rng.integers(0, 64, size=4),
    )
    populate_store(model, segments, tmp_path)
    _, logits, _ = FU.fused_prefill(model, segments, FU.FusionPlan("none"), tmp_path)
    oracle = M.prefill_forward(model, segments.all_ids()).logits
    np.testing.assert_allclose(logits, oracle, atol=1e-4)


def test_fused_prefill_patch_locality(tmp_path):
    model = make_model()
    rng = np.random.default_rng(8)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    plan = FU.FusionPlan("attention_aware", r=0.2)
    patched, _, _ = FU.fused_prefill(model, segments, plan, tmp_path)
    # Reference: the recovered-but-unpatched fused cache.
    chunks = [
        CS.load_chunk(CS.chunk_id(part, model.config.fingerprint()), tmp_path)
        for part in segments.context_chunks()
    ]
    fused = CS.recover_positions(CS.concat_chunks(chunks), model.config)
    untouched = np.setdiff1d(np.arange(fused.n), patched.patched_offsets)
    assert untouched.size > 0
    for l in range(2, model.config.n_layers):
        assert np.array_equal(patched.keys[l][:, untouched], fused.keys[l][:, untouched])
        assert np.array_equal(patched.values[l][:, untouched], fused.values[l][:, untouched])
    # Patched rows really changed at layers >= 2.
    sel = patched.recompute.indices
    assert sel.size > 0
    assert not np.array_equal(patched.keys[2][:, sel], fused.keys[2][:, sel])


def test_fused_prefill_full_strategy_leaves_chunks_alone(tmp_path):
    model = make_model()
    rng = np.random.default_rng(9)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    patched, logits, trace = FU.fused_prefill(model, segments, FU.FusionPlan("full"), tmp_path)
    assert not patched.rope_recovered
    assert trace.p == 0
    assert set(trace.durations) == {"load", "concat", "patch"}  # the question pass is `patch`
    # Context entries equal the locally rotated chunks at every layer.
    fp = model.config.fingerprint()
    offset = 0
    for part in segments.context_chunks():
        chunk = CS.rotate_chunk_local(
            CS.load_chunk(CS.chunk_id(part, fp), tmp_path), model.config
        )
        for l in range(model.config.n_layers):
            seg = patched.keys[l][:, offset : offset + len(part)]
            assert np.array_equal(seg, chunk.layers[l].keys)
        offset += len(part)
    # And it is a worse approximation than position recovery.
    _, none_logits, _ = FU.fused_prefill(model, segments, FU.FusionPlan("none"), tmp_path)
    oracle = M.prefill_forward(model, segments.all_ids()).logits
    assert np.linalg.norm(logits - oracle) >= np.linalg.norm(none_logits - oracle) - 1e-6


def test_fused_prefill_requires_question_and_chunks(tmp_path):
    model = make_model()
    rng = np.random.default_rng(10)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    empty_q = FU.InputSegments(segments.system, segments.documents, np.zeros(0, dtype=int))
    with pytest.raises(InputError):
        FU.fused_prefill(model, empty_q, FU.FusionPlan("none"), tmp_path)
    missing = FU.InputSegments(
        segments.system, segments.documents + [rng.integers(0, 64, size=3)], segments.question
    )
    with pytest.raises(ChunkNotFoundError):
        FU.fused_prefill(model, missing, FU.FusionPlan("none"), tmp_path)
    with pytest.raises(ConfigError):
        FU.FusionPlan("bogus")
    with pytest.raises(ConfigError):
        FU.FusionPlan("none", r=1.5)


def test_fused_prefill_causal_consistency(tmp_path):
    # Changing document content after a selected row's position must not
    # change that row's patched keys (each recomputed row only sees the
    # cache at positions <= its own).
    model = make_model()
    rng = np.random.default_rng(11)
    sys_ids = rng.integers(0, 64, size=6)
    doc_a = rng.integers(0, 64, size=10)
    doc_b = rng.integers(0, 64, size=10)
    doc_b2 = rng.integers(0, 64, size=10)
    q = rng.integers(0, 64, size=4)
    seg1 = FU.InputSegments(sys_ids, [doc_a, doc_b], q)
    seg2 = FU.InputSegments(sys_ids, [doc_a, doc_b2], q)
    populate_store(model, seg1, tmp_path)
    populate_store(model, seg2, tmp_path)
    plan = FU.FusionPlan("head_tail", head_tail_k=2)
    p1, _, _ = FU.fused_prefill(model, seg1, plan, tmp_path)
    p2, _, _ = FU.fused_prefill(model, seg2, plan, tmp_path)
    # Rows selected inside doc_a occupy the same offsets in both runs and
    # precede every doc_b offset.
    first_doc_rows = [i for i in p1.recompute.indices if i < 16]
    assert first_doc_rows == [i for i in p2.recompute.indices if i < 16]
    for l in range(model.config.n_layers):
        np.testing.assert_allclose(
            p1.keys[l][:, first_doc_rows], p2.keys[l][:, first_doc_rows], atol=1e-6
        )


def test_fusion_trace_serializes(tmp_path):
    model = make_model()
    rng = np.random.default_rng(12)
    segments = make_instance(model, rng)
    populate_store(model, segments, tmp_path)
    _, _, trace = FU.fused_prefill(model, segments, FU.FusionPlan("attention_aware", r=0.2), tmp_path)
    import json

    data = json.loads(json.dumps(trace.to_json_dict()))
    assert data["strategy"] == "attention_aware"
    assert data["p"] == len(data["selected"]) == trace.p
    assert set(data["durations_s"]) == {"load", "concat", "recover", "layer01", "select", "patch"}
    assert data["flops"]["prefill"] < data["flops"]["vanilla"]


def test_monotone_fidelity_in_r(tmp_path):
    # Mean distance to the oracle logits should trend down as r grows;
    # the r=1 endpoint is hard-asserted near zero.
    model = make_model()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    dists = {r: [] for r in grid}
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        segments = make_instance(model, rng, sys_len=6, doc_lens=(10, 10), q_len=4)
        populate_store(model, segments, tmp_path)
        oracle = M.prefill_forward(model, segments.all_ids()).logits
        for r in grid:
            _, logits, _ = FU.fused_prefill(
                model, segments, FU.FusionPlan("attention_aware", r=r), tmp_path
            )
            dists[r].append(np.linalg.norm((logits - oracle).astype(np.float64)))
    means = [np.mean(dists[r]) for r in grid]
    assert means[-1] < 1e-3
    span = means[0] - means[-1]
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo <= hi + 0.05 * span  # soft trend: small upticks tolerated
