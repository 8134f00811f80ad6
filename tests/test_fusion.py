import itertools
import os

import numpy as np
import pytest

from kvfuse import chunkstore as CS
from kvfuse import fusion as FU
from kvfuse import model as M
from kvfuse.bench import run_strategy
from kvfuse.errors import (
    ChunkNotFoundError,
    ConfigError,
    ContractViolation,
    InputError,
    IntegrityError,
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
        q, _, _, _ = M.block_qkv(model, l, x, M._rope_table(rows, model.config))
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


@pytest.mark.parametrize("bad", [5 + 2**32, -1])
def test_context_ids_are_checked_before_any_chunk_file_opens(tmp_path, monkeypatch, bad):
    # Chunk ids hash token ids as uint32: unchecked, 5 + 2**32 would load
    # and serve the stored chunk that holds 5, and -1 would look for a
    # chunk that no valid input can name.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(12))
    segments.documents[0][3] = 5
    populate_store(model, segments, tmp_path)
    doc = segments.documents[0].astype(np.int64)
    doc[3] = bad
    wrong = FU.InputSegments(segments.system, [doc] + segments.documents[1:], segments.question)
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    with pytest.raises(InputError):
        FU.fused_prefill(model, wrong, FU.FusionPlan("attention_aware"), tmp_path)
    with pytest.raises(InputError):
        run_strategy(model, wrong, "attention_aware", tmp_path, gen_len=1)
    assert not [path for path in opened if path.startswith(str(tmp_path))]


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
    assert data["prefix_rows"] == 0  # an 8-token system holds no whole tile
    assert data["reused_rows"] == 0
    assert data["flops"]["prefill"] < data["flops"]["vanilla"]


@pytest.mark.parametrize("strategy", ["full", "attention_aware"])
def test_trace_counts_the_bytes_of_the_chunk_files_loaded(tmp_path, strategy):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(13))
    populate_store(model, segments, tmp_path)
    fp = model.config.fingerprint()
    sizes = [os.path.getsize(tmp_path / CS.chunk_id(part, fp).hex())
             for part in segments.context_chunks()]
    _, _, trace = FU.fused_prefill(model, segments, FU.FusionPlan(strategy, r=0.2), tmp_path)
    assert trace.chunk_bytes == sum(sizes) > 0
    assert trace.to_json_dict()["chunk_bytes"] == trace.chunk_bytes


# ---------------------------------------------------------------------------
# Layer-0 entries of the cached context prefixes

SELECTIVE = ("attention_aware", "kv_diff", "head_tail", "none")


def run_prefill(model, segments, strategy, store):
    plan = FU.FusionPlan(strategy, r=0.3, head_tail_k=3)
    return FU.fused_prefill(model, segments, plan, store)


def assert_same_prefill(a, b):
    (pa, la, ta), (pb, lb, tb) = a, b
    assert la.tobytes() == lb.tobytes()
    assert pa.keys.tobytes() == pb.keys.tobytes()
    assert pa.values.tobytes() == pb.values.tobytes()
    assert pa.question_queries.tobytes() == pb.question_queries.tobytes()
    assert ta.scores_doc.tobytes() == tb.scores_doc.tobytes()
    assert ta.selected == tb.selected
    assert np.array_equal(pa.patched_offsets, pb.patched_offsets)


@pytest.mark.parametrize("sys_len, reused", [(70, 64), (20, 0)])
def test_prefix_memo_hit_is_bitwise_a_miss(tmp_path, sys_len, reused):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(31), sys_len=sys_len,
                             doc_lens=(40, 30), q_len=6)
    populate_store(model, segments, tmp_path)
    for strategy in SELECTIVE:
        store = CS.ChunkStore(tmp_path)
        miss = run_prefill(model, segments, strategy, store)
        hit = run_prefill(model, segments, strategy, store)
        assert (miss[2].prefix_rows, hit[2].prefix_rows) == (0, reused)
        assert_same_prefill(hit, miss)


def test_prefix_memo_is_not_reused_stale(tmp_path):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(32), sys_len=70,
                             doc_lens=(40, 30), q_len=6)
    vocab = model.config.vocab_size
    # Changed inside the reused prefix but after its first tile, and only
    # after the prefix, where the memo still holds.
    inside, after = segments.system.copy(), segments.system.copy()
    inside[40] = (inside[40] + 1) % vocab
    after[66] = (after[66] + 1) % vocab
    other_seed = make_model(seed=22)
    cases = [
        (model, FU.InputSegments(inside, segments.documents, segments.question), 0),
        (model, FU.InputSegments(after, segments.documents, segments.question), 64),
        (other_seed, segments, 0),
    ]
    for m, segs, _ in [(model, segments, 0)] + cases:
        populate_store(m, segs, tmp_path)
    for strategy in SELECTIVE:
        for m, segs, reused in cases:
            cleared = run_prefill(m, segs, strategy, CS.ChunkStore(tmp_path))
            store = CS.ChunkStore(tmp_path)
            run_prefill(model, segments, strategy, store)  # fills the entries
            after_other = run_prefill(m, segs, strategy, store)
            # The document entry's key holds every token up to row 96.
            assert (after_other[2].prefix_rows, after_other[2].reused_rows) == (reused, 0)
            assert_same_prefill(after_other, cleared)


def context_ids(segments):
    return np.concatenate(segments.context_chunks()).astype(np.int64)


def test_prefix_entries_form_a_chain(tmp_path):
    model = make_model()
    store = CS.ChunkStore(tmp_path)
    cfg = model.config
    fp, d_model = cfg.fingerprint(), cfg.d_model
    rng = np.random.default_rng(33)
    first = make_instance(model, rng, sys_len=70, doc_lens=(40, 30), q_len=6)
    # Another first document; the system is shared.
    second = FU.InputSegments(first.system, [rng.integers(0, 64, size=40), first.documents[1]],
                              first.question)
    held = {}
    for segments in (first, second):
        populate_store(model, segments, tmp_path)
        run_prefill(model, segments, "attention_aware", store)
        ids = context_ids(segments)
        # The system's whole tiles, rows [0, 64), hold layers 0-1.
        prefix = store.get(("layers 0-1", fp, 0, ids[:64].tobytes()))
        assert isinstance(prefix, FU._SystemPrefix)
        assert prefix.keys.shape == prefix.values.shape == (2, cfg.n_heads, 64, cfg.head_dim)
        assert prefix.k1.shape == (cfg.n_heads, 64, cfg.head_dim)
        # Then one entry per document boundary but the last, rounded down
        # to a whole tile: the layer-1 inputs of rows [64, 96).
        inputs = store.get(("layer-1 inputs", fp, 64, ids[:96].tobytes()))
        assert inputs.shape == (32, d_model) and inputs.dtype == M.DTYPE
        assert not inputs.flags.writeable
        assert store.get(("layer-1 inputs", fp, 96, ids[:96 + 32].tobytes())) is None
        held[ids[:64].tobytes()], held[ids[:96].tobytes()] = prefix, inputs
    assert len(held) == 3  # the system's entry is shared
    chunk_bytes = sum(os.path.getsize(tmp_path / CS.chunk_id(part, fp).hex())
                      for part in [first.system] + first.documents + second.documents[:1])
    # Per row: float32 keys and values of 2 layers and float64 layer-1 keys,
    # or the float32 layer-1 input.
    entry_bytes = 64 * d_model * (2 * 2 * 4 + 8) + 2 * 32 * d_model * 4
    assert store.resident_bytes == chunk_bytes + entry_bytes
    # `full` neither reads nor replaces the entries.
    _, _, trace = run_prefill(model, first, "full", store)
    assert (trace.prefix_rows, trace.reused_rows) == (0, 0)
    for segments in (first, second):
        ids = context_ids(segments)
        assert store.get(("layers 0-1", fp, 0, ids[:64].tobytes())) is held[ids[:64].tobytes()]
        assert store.get(("layer-1 inputs", fp, 64, ids[:96].tobytes())) is held[ids[:96].tobytes()]
    assert store.resident_bytes == chunk_bytes + entry_bytes


@pytest.mark.parametrize("sys_len, doc_lens, prefix_rows, reused_rows", [
    (64, (64, 32), 64, 64),  # every boundary on a tile edge
    (70, (40, 30), 64, 32),
    (20, (40, 30), 0, 32),  # the first entry covers the system and part of document 1
    (70, (40, 50, 30), 64, 96),
])
def test_document_entries_hit_is_bitwise_a_miss(tmp_path, sys_len, doc_lens, prefix_rows,
                                                reused_rows):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(38), sys_len=sys_len,
                             doc_lens=doc_lens, q_len=6)
    populate_store(model, segments, tmp_path)
    for strategy in SELECTIVE:
        store = CS.ChunkStore(tmp_path)
        miss = run_prefill(model, segments, strategy, store)
        hit = run_prefill(model, segments, strategy, store)
        assert (miss[2].prefix_rows, miss[2].reused_rows) == (0, 0)
        assert (hit[2].prefix_rows, hit[2].reused_rows) == (prefix_rows, reused_rows)
        assert_same_prefill(hit, miss)


def test_document_entries_reuse_only_an_equal_prefix(tmp_path):
    # Whole-tile documents, so entries cover rows [64, 128) and [128, 192).
    model = make_model()
    segments = make_instance(model, np.random.default_rng(39), sys_len=64,
                             doc_lens=(64, 64, 32), q_len=6)
    first, second, last = segments.documents
    inside, later = first.copy(), second.copy()
    inside[10] = (inside[10] + 1) % 64
    later[10] = (later[10] + 1) % 64
    cases = [
        (FU.InputSegments(segments.system, [inside, second, last], segments.question), 0),
        # Rows [64, 128) hold the tokens that rows [128, 192) held, over another prefix.
        (FU.InputSegments(segments.system, [second, first, last], segments.question), 0),
        (FU.InputSegments(segments.system, [first, later, last], segments.question), 64),
    ]
    for segs, _ in [(segments, 0)] + cases:
        populate_store(model, segs, tmp_path)
    for strategy in SELECTIVE:
        for segs, reused_rows in cases:
            cold = run_prefill(model, segs, strategy, CS.ChunkStore(tmp_path))
            store = CS.ChunkStore(tmp_path)
            run_prefill(model, segments, strategy, store)
            warm = run_prefill(model, segs, strategy, store)
            assert (warm[2].prefix_rows, warm[2].reused_rows) == (64, reused_rows)
            assert_same_prefill(warm, cold)


def test_document_entries_of_another_chunking_are_not_confused(tmp_path):
    # The same context tokens split into chunks at other boundaries: an
    # entry's key ends where another chunking's entry ends, but the entries
    # start at other rows.
    model = make_model()
    rng = np.random.default_rng(40)
    system, a, b, c = (rng.integers(0, 64, size=k) for k in (64, 40, 60, 30))
    question = rng.integers(0, 64, size=6)
    runs = [
        # Entries [64, 96) and [96, 160).
        FU.InputSegments(system, [a, b, c], question),
        # One entry [64, 160), over the same tokens.
        FU.InputSegments(system, [np.concatenate([a, b]), c], question),
        # A longer system, whose whole tiles are rows [0, 96): entry [96, 160).
        FU.InputSegments(np.concatenate([system, a]), [b, c], question),
    ]
    for segs in runs:
        populate_store(model, segs, tmp_path)
    for strategy in SELECTIVE:
        cold = [run_prefill(model, segs, strategy, CS.ChunkStore(tmp_path)) for segs in runs]
        for order in itertools.permutations(range(len(runs))):
            store = CS.ChunkStore(tmp_path)
            for i in order + order:
                warm = run_prefill(model, runs[i], strategy, store)
                assert_same_prefill(warm, cold[i])
            # Each chunking ran before, so its own chain hits to row 160.
            assert (warm[2].prefix_rows, warm[2].reused_rows) == [(64, 96), (64, 96), (96, 64)][i]


def test_trace_reports_the_rows_taken_from_the_memo(tmp_path):
    import json

    model = make_model()
    segments = make_instance(model, np.random.default_rng(35), sys_len=70,
                             doc_lens=(40, 30), q_len=6)
    populate_store(model, segments, tmp_path)
    store = CS.ChunkStore(tmp_path)
    rows = [json.loads(json.dumps(run_prefill(model, segments, "attention_aware",
                                              store)[2].to_json_dict()))
            for _ in range(2)]
    assert [(r["prefix_rows"], r["reused_rows"]) for r in rows] == [(0, 0), (64, 32)]


# ---------------------------------------------------------------------------
# Resident chunks


@pytest.mark.parametrize("strategy", FU.STRATEGIES)
def test_resident_chunks_give_the_bits_of_a_read(tmp_path, strategy):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(36), sys_len=40,
                             doc_lens=(40, 30), q_len=6)
    populate_store(model, segments, tmp_path)
    files = {part.tobytes(): CS.load_chunk(CS.chunk_id(part, model.config.fingerprint()),
                                            tmp_path) for part in segments.context_chunks()}

    def assert_resident_bits(resident):
        # The prefill only read the resident arrays: they still hold the files' bits.
        for part in segments.context_chunks():
            reads = resident.reads
            chunk = resident.load(CS.chunk_id(part, model.config.fingerprint()))
            assert resident.reads == reads
            for a, b in zip(chunk.layers, files[part.tobytes()].layers):
                assert a.keys.tobytes() == b.keys.tobytes()
                assert a.values.tobytes() == b.values.tobytes()

    store = CS.ChunkStore(tmp_path)
    miss, hit = (run_prefill(model, segments, strategy, store) for _ in range(2))
    assert_resident_bits(store)
    # Chunks stored into a store are served as written, without a read.
    written = CS.ChunkStore(tmp_path)
    populate_store(model, segments, written)
    stored = run_prefill(model, segments, strategy, written)
    assert_resident_bits(written)
    size = sum(chunk.file_bytes for chunk in files.values())
    assert (miss[2].chunk_hits, miss[2].chunk_bytes_read, miss[2].chunk_bytes) == (0, size, size)
    for served in (hit, stored):
        assert (served[2].chunk_hits, served[2].chunk_bytes_read, served[2].chunk_bytes) == (
            3, 0, size)
        assert {k: served[2].to_json_dict()[k] for k in ("chunk_hits", "chunk_bytes_read")} == {
            "chunk_hits": 3, "chunk_bytes_read": 0}
        (pa, la, ta), (pb, lb, tb) = miss, served
        assert la.tobytes() == lb.tobytes()
        assert pa.keys.tobytes() == pb.keys.tobytes()
        assert pa.values.tobytes() == pb.values.tobytes()
        assert pa.question_queries.tobytes() == pb.question_queries.tobytes()
        assert (ta.scores_doc is None) == (strategy == "full")
        if ta.scores_doc is not None:
            assert ta.scores_doc.tobytes() == tb.scores_doc.tobytes()


def test_every_chunk_a_prefill_takes_passes_through_load_chunk(tmp_path, monkeypatch):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(38), sys_len=40,
                             doc_lens=(40, 30), q_len=6)
    fp = model.config.fingerprint()
    ids = [CS.chunk_id(part, fp) for part in segments.context_chunks()]
    calls = []

    def counting(cid, store):
        calls.append((cid, store))
        return CS.load_chunk(cid, store)

    monkeypatch.setattr(FU, "load_chunk", counting)
    written = CS.ChunkStore(tmp_path)
    populate_store(model, segments, written)
    cold = CS.ChunkStore(tmp_path)
    for store, hits in ((written, 3), (cold, 0)):
        calls.clear()
        trace = run_prefill(model, segments, "attention_aware", store)[2]
        assert calls == [(cid, store) for cid in ids]
        assert (trace.chunk_hits, trace.chunk_bytes_read) == (hits, store.bytes_read)
        assert store.reads == 3 - hits


def test_prefill_rereads_a_changed_file_and_counts_the_prefix_entry(tmp_path, monkeypatch):
    monkeypatch.setattr(CS.ChunkStore, "_process_store", None)
    model = make_model()
    segments = make_instance(model, np.random.default_rng(37), sys_len=70,
                             doc_lens=(40, 30), q_len=6)
    populate_store(model, segments, tmp_path)
    fp = model.config.fingerprint()
    paths = [tmp_path / CS.chunk_id(part, fp).hex() for part in segments.context_chunks()]
    _, _, trace = run_prefill(model, segments, "attention_aware", tmp_path)
    store = CS.ChunkStore.of(tmp_path)  # the store the path stood for
    # The chunks, then layers 0-1 of rows [0, 64) (float32 keys and values,
    # float64 layer-1 keys) and the float32 layer-1 inputs of rows [64, 96).
    d_model = model.config.d_model
    assert store.resident_bytes == (trace.chunk_bytes + 64 * d_model * (2 * 2 * 4 + 8)
                                    + 32 * d_model * 4)
    # A document replaced by `os.replace` with a copy of its bytes, as
    # another process's store of the same chunk would leave it.
    copy = tmp_path / "copy"
    copy.write_bytes(paths[1].read_bytes())
    os.replace(copy, paths[1])
    _, _, trace = run_prefill(model, segments, "attention_aware", tmp_path)
    assert (trace.chunk_hits, trace.chunk_bytes_read) == (2, os.path.getsize(paths[1]))
    # The system file rewritten in place with one byte flipped.
    raw = bytearray(paths[0].read_bytes())
    raw[-40] ^= 0x10
    with open(paths[0], "r+b") as fh:
        fh.write(raw)
    for strategy in ("attention_aware", "full"):
        with pytest.raises(IntegrityError):
            run_prefill(model, segments, strategy, tmp_path)
    # A resident document deleted.
    CS.store_chunk(CS.precompute_chunk(segments.system, model), tmp_path)
    run_prefill(model, segments, "none", tmp_path)
    paths[2].unlink()
    with pytest.raises(ChunkNotFoundError):
        run_prefill(model, segments, "none", tmp_path)


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
