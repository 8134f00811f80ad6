import itertools
import os
import tracemalloc
from dataclasses import replace

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
    FingerprintError,
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
    rows = np.arange(patched.n, dtype=np.int64)
    x = np.asarray(model.weights.embedding[segments.all_ids()], dtype=np.float64)
    for l in range(model.config.n_layers):
        if l == 2:
            rows = patched.patched_offsets
            x = x[rows]
        q, _, _, _ = M.block_qkv(model, l, x, M._rope_table(rows, model.config))
        end = M.tile_end(patched.n)
        attn = M.attention(q, patched.key_buffer[l][:, :, :end],
                           patched.value_buffer[l][:, :, :end], rows)
        x = M.block_out(model, l, x, attn)
    assert np.array_equal(M.final_logits(model, x[-1:])[0], logits)


@pytest.mark.parametrize("strategy", ["attention_aware", "full"])
@pytest.mark.parametrize("other", [dict(n_heads=1, head_dim=16), dict(n_layers=3)])
def test_a_verified_chunk_of_another_shape_is_refused(tmp_path, strategy, other):
    # A document computed by another model and stored under this model's
    # fingerprint: its digest and id verify, its shape does not fit.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(5))
    populate_store(model, segments, tmp_path)
    fp = model.config.fingerprint()
    doc = CS.precompute_chunk(segments.documents[0], make_model(**other))
    CS.store_chunk(replace(doc, chunk_id=CS.chunk_id(doc.token_ids, fp), model_fingerprint=fp),
                   tmp_path)
    with pytest.raises(FingerprintError, match="does not have the model's"):
        FU.fused_prefill(model, segments, FU.FusionPlan(strategy), tmp_path)


@pytest.mark.parametrize("strategy", ["attention_aware", "full"])
def test_a_verified_chunk_stored_rotated_is_refused(tmp_path, strategy):
    # A file may hold rotated keys (the format keeps the flag), but a stored
    # chunk the pipeline reads is unrotated: such a document is bad stored
    # data, refused as one whose shape does not fit.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(5))
    populate_store(model, segments, tmp_path)
    doc = CS.precompute_chunk(segments.documents[0], model)
    CS.store_chunk(CS.rotate_chunk_local(doc, model.config), tmp_path)
    with pytest.raises(FingerprintError, match="and unrotated keys"):
        FU.fused_prefill(model, segments, FU.FusionPlan(strategy), tmp_path)


def test_prefill_and_decode_cache_hold_the_cache_once_plus_one_layer_of_scratch(tmp_path):
    # The traced peak of a prefill and of the decode cache built from it, at
    # a shape of many tiles and row blocks, cold (the prefix entries made)
    # and warm (reused): the cache buffers once, with their 64 spare rows and
    # the values' ones row, plus at most seven (n, d_model) float64 arrays
    # of one layer's scratch. A second copy of the cache, or the
    # projections of one layer kept while the next layer runs, exceeds it.
    model = make_model(n_layers=3, n_heads=4, head_dim=16, d_ff=256)
    segments = make_instance(model, np.random.default_rng(3), sys_len=64,
                             doc_lens=(192, 192, 192), q_len=16)
    store = CS.ChunkStore(tmp_path)
    populate_store(model, segments, store)
    cfg, n = model.config, segments.n
    bound = (cfg.n_layers * cfg.n_heads * (2 * cfg.head_dim + 1) * (n + 64) * 4
             + 7 * n * cfg.d_model * 8)
    for _ in ("cold", "warm"):
        tracemalloc.start()
        try:
            patched, _, _ = FU.fused_prefill(model, segments, FU.FusionPlan("attention_aware"),
                                             store)
            cache = patched.to_decode_cache()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        del patched, cache


def test_decode_cache_adopts_the_prefill_buffers(tmp_path):
    # The decode cache is the prefill's buffers, not a copy, and decoding
    # from it, past its first growth, gives the bits of decoding from a copy.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(15))
    populate_store(model, segments, tmp_path)
    patched, logits, _ = FU.fused_prefill(model, segments, FU.FusionPlan("attention_aware"),
                                          tmp_path)
    adopted = patched.to_decode_cache()
    copied = M.DecodeCache(*M.kv_layout(patched.keys, patched.values), patched.n)
    for l in range(model.config.n_layers):
        assert np.shares_memory(adopted._keys[l], patched.keys)
        assert np.shares_memory(adopted._values[l], patched.values)
        assert not np.shares_memory(copied._keys[l], patched.keys)
    token = M.greedy_token(logits)
    for step in range(80):
        a = M.decode_step(model, adopted, token, patched.n + step)
        b = M.decode_step(model, copied, token, patched.n + step)
        assert a.tobytes() == b.tobytes()
        token = M.greedy_token(a)


def test_prefill_patches_the_buffer_concat_laid_out(tmp_path, monkeypatch):
    # The returned cache is the record concat made, with its own pair of
    # buffers, question rows included: the pipeline allocates no cache of
    # its own, and sets the rotation flag on that record.
    model = make_model()
    segments = make_instance(model, np.random.default_rng(14))
    populate_store(model, segments, tmp_path)
    laid_out = []

    def concat(*args, **kwargs):
        laid_out.append(CS.concat_chunks(*args, **kwargs))
        return laid_out[-1]

    monkeypatch.setattr(FU, "concat_chunks", concat)
    for strategy in FU.STRATEGIES:
        patched, _, _ = FU.fused_prefill(model, segments, FU.FusionPlan(strategy), tmp_path)
        assert patched.key_buffer is laid_out[-1].key_buffer
        assert patched.value_buffer is laid_out[-1].value_buffer
        assert patched.segments is laid_out[-1].segments and patched.n == segments.n
        assert patched is laid_out[-1]
        assert patched.rope_recovered == (strategy != "full")


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
    assert "prefix_rows" not in data
    assert data["reused_rows"] == 0  # a cold store holds no entry
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


@pytest.mark.parametrize("sys_len, system_rows", [(70, 64), (20, 0)])
def test_prefix_memo_hit_is_bitwise_a_miss(tmp_path, sys_len, system_rows):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(31), sys_len=sys_len,
                             doc_lens=(40, 30), q_len=6)
    populate_store(model, segments, tmp_path)
    ids = context_ids(segments)
    fp = model.config.fingerprint()
    for strategy in SELECTIVE:
        store = CS.ChunkStore(tmp_path)
        miss = run_prefill(model, segments, strategy, store)
        # The system's whole tiles keep their stored entries and have no
        # entry of their own; the chain's one entry runs from them to the
        # first document's boundary, row 110 or 60, rounded down to 96 or 32.
        assert store.get((fp, 0, ids[:system_rows].tobytes())) is None
        assert store.get((fp, system_rows, ids[:system_rows + 32].tobytes())) is not None
        hit = run_prefill(model, segments, strategy, store)
        assert (miss[2].reused_rows, hit[2].reused_rows) == (0, 32)
        assert_same_prefill(hit, miss)


@pytest.mark.parametrize("sys_len", [64, 70])
def test_a_context_without_documents_stores_no_entry(tmp_path, sys_len):
    model = make_model()
    rng = np.random.default_rng(34)
    segments = FU.InputSegments(rng.integers(0, 64, size=sys_len), [],
                                rng.integers(0, 64, size=6))
    populate_store(model, segments, tmp_path)
    for strategy in SELECTIVE:
        cold = run_prefill(model, segments, strategy, CS.ChunkStore(tmp_path))
        store = CS.ChunkStore(tmp_path)
        miss = run_prefill(model, segments, strategy, store)
        hit = run_prefill(model, segments, strategy, store)
        # The system's whole tiles keep their stored entries; only the chunk is resident.
        assert (miss[2].reused_rows, hit[2].reused_rows) == (0, 0)
        assert store.resident_bytes == hit[2].chunk_bytes
        assert_same_prefill(miss, cold)
        assert_same_prefill(hit, cold)


def test_prefix_memo_is_not_reused_stale(tmp_path):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(32), sys_len=70,
                             doc_lens=(40, 30), q_len=6)
    vocab = model.config.vocab_size
    # The one entry, rows [64, 96), is keyed by every token before row 96:
    # a change inside the system's whole tiles, at their last row, in the
    # system's partial tile or in the entry's rows misses it, and only a
    # change after row 96 (first document row 26) leaves it to hit.
    inside, last, after = (segments.system.copy() for _ in range(3))
    inside[40] = (inside[40] + 1) % vocab
    last[63] = (last[63] + 1) % vocab
    after[66] = (after[66] + 1) % vocab
    later = [d.copy() for d in segments.documents]
    later[0][26] = (later[0][26] + 1) % vocab
    other_seed = make_model(seed=22)
    cases = [
        (model, FU.InputSegments(inside, segments.documents, segments.question), 0),
        (model, FU.InputSegments(last, segments.documents, segments.question), 0),
        (model, FU.InputSegments(after, segments.documents, segments.question), 0),
        (model, FU.InputSegments(segments.system, later, segments.question), 32),
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
            assert after_other[2].reused_rows == reused
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
        # One entry per document boundary but the last, from the system's
        # last whole tile and rounded down to a whole tile: rows [64, 96).
        # The system's whole tiles, rows [0, 64), keep their stored entries.
        assert store.get((fp, 0, ids[:64].tobytes())) is None
        inputs = store.get((fp, 64, ids[:96].tobytes()))
        assert inputs.shape == (32, d_model) and inputs.dtype == M.DTYPE
        assert not inputs.flags.writeable
        assert store.get((fp, 96, ids[:96 + 32].tobytes())) is None
        held[ids[:96].tobytes()] = inputs
    assert len(held) == 2
    chunk_bytes = sum(os.path.getsize(tmp_path / CS.chunk_id(part, fp).hex())
                      for part in [first.system] + first.documents + second.documents[:1])
    # Each entry holds one float32 layer-1 input per row.
    entry_bytes = 2 * 32 * d_model * 4
    assert store.resident_bytes == chunk_bytes + entry_bytes
    # `full` neither reads nor replaces the entries.
    _, _, trace = run_prefill(model, first, "full", store)
    assert trace.reused_rows == 0
    for segments in (first, second):
        ids = context_ids(segments)
        assert store.get((fp, 64, ids[:96].tobytes())) is held[ids[:96].tobytes()]
    assert store.resident_bytes == chunk_bytes + entry_bytes


@pytest.mark.parametrize("sys_len, doc_lens, system_rows, document_rows", [
    (64, (64, 32), 64, 64),  # every boundary on a tile edge
    (70, (40, 30), 64, 32),
    (20, (40, 30), 0, 32),  # the entry covers the system and part of document 1
    (70, (40, 50, 30), 64, 96),
])
def test_document_entries_hit_is_bitwise_a_miss(tmp_path, sys_len, doc_lens, system_rows,
                                                document_rows):
    model = make_model()
    segments = make_instance(model, np.random.default_rng(38), sys_len=sys_len,
                             doc_lens=doc_lens, q_len=6)
    populate_store(model, segments, tmp_path)
    ids = context_ids(segments)
    fp = model.config.fingerprint()
    for strategy in SELECTIVE:
        store = CS.ChunkStore(tmp_path)
        miss = run_prefill(model, segments, strategy, store)
        # The system's whole tiles keep their stored entries: no entry, not counted.
        assert store.get((fp, 0, ids[:system_rows].tobytes())) is None
        hit = run_prefill(model, segments, strategy, store)
        assert (miss[2].reused_rows, hit[2].reused_rows) == (0, document_rows)
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
            assert warm[2].reused_rows == reused_rows
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
            # Each chunking ran before, so its own chain hits from the
            # system's last whole tile to row 160.
            assert warm[2].reused_rows == 160 - len(runs[i].system) // 32 * 32
    fp = model.config.fingerprint()
    chains = [[(start, end) for _, start, end in
               FU._prefix_chain(fp, context_ids(segs), [len(c) for c in segs.context_chunks()])]
              for segs in runs]
    assert chains == [[(64, 96), (96, 160)], [(64, 160)], [(96, 160)]]


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
    assert [r["reused_rows"] for r in rows] == [0, 32]
    assert not any("prefix_rows" in r for r in rows)


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
    # The chunks, then the float32 layer-1 inputs of rows [64, 96).
    d_model = model.config.d_model
    assert store.resident_bytes == trace.chunk_bytes + 32 * d_model * 4
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
