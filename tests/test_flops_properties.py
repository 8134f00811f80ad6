"""Property checks of the prefill cost model over random shapes and budgets."""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvfuse.bench import populate_store
from kvfuse.flops import fused_flops, prefill_flops, vanilla_flops
from kvfuse.fusion import STRATEGIES, FusionPlan, InputSegments, fused_prefill
from kvfuse.model import ModelConfig, build_model

SETTINGS = settings(max_examples=30, deadline=None)

configs = st.builds(
    ModelConfig,
    n_layers=st.integers(2, 12),
    n_heads=st.integers(1, 8),
    head_dim=st.sampled_from([2, 4, 8, 16, 32]),
    d_ff=st.integers(1, 512),
    vocab_size=st.just(16),
    seed=st.just(0),
)


@SETTINGS
@given(configs, st.integers(1, 5000), st.integers(1, 64),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_fused_flops_non_decreasing_in_r(cfg, n, q_len, r1, r2):
    lo, hi = sorted((r1, r2))
    assert fused_flops(cfg, n, lo, q_len) <= fused_flops(cfg, n, hi, q_len)


@SETTINGS
@given(configs, st.integers(1, 5000), st.integers(1, 64), st.data())
def test_prefill_flops_bounded_by_vanilla(cfg, n, q_len, data):
    vanilla = vanilla_flops(cfg, n)
    assert fused_flops(cfg, n, 1.0, q_len) == vanilla
    rows = data.draw(st.integers(0, 2 * n), label="rows")
    first = data.draw(st.integers(0, cfg.n_layers), label="first")
    assert prefill_flops(cfg, n, rows, first) <= vanilla


MODEL = build_model(
    ModelConfig(n_layers=3, n_heads=1, head_dim=4, d_ff=8, vocab_size=32, seed=4)
)


@SETTINGS
@given(
    chunk_lens=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    q_len=st.integers(1, 4),
    r=st.floats(0.0, 1.0),
    head_tail_k=st.integers(0, 3),
    data_seed=st.integers(0, 2**16),
)
@example(chunk_lens=[2, 1], q_len=4, r=1.0, head_tail_k=1, data_seed=0)  # budget clamps
def test_trace_charges_the_rows_it_carried(chunk_lens, q_len, r, head_tail_k, data_seed):
    rng = np.random.default_rng(data_seed)
    vocab = MODEL.config.vocab_size
    segments = InputSegments(
        system=rng.integers(0, vocab, size=chunk_lens[0]),
        documents=[rng.integers(0, vocab, size=m) for m in chunk_lens[1:]],
        question=rng.integers(0, vocab, size=q_len),
    )
    cfg, n = MODEL.config, segments.n
    with tempfile.TemporaryDirectory() as store:
        populate_store(MODEL, segments, store)
        for strategy in STRATEGIES:
            plan = FusionPlan(strategy, r=r, head_tail_k=head_tail_k)
            patched, _, trace = fused_prefill(MODEL, segments, plan, store)
            if strategy == "full":
                expect = prefill_flops(cfg, n, trace.q_len, 0)
            else:
                expect = prefill_flops(cfg, n, trace.p + trace.q_len, 2)
            assert trace.flops["prefill"] == expect, strategy
            assert patched.patched_offsets.size == trace.p + trace.q_len
