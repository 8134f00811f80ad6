import numpy as np
import pytest

from kvfuse.bench import (
    ALL_STRATEGIES,
    CSV_COLUMNS,
    BenchConfig,
    InputRecipe,
    attention_l2_loss,
    build_instance,
    evaluate_acceptance,
    oracle_top_p,
    populate_store,
    run_bench,
    run_strategy,
)
from kvfuse.chunkstore import ChunkStore
from kvfuse.errors import ConfigError, InputError
from kvfuse.eviction import EvictionPolicy
from kvfuse.flops import fused_flops, prefill_flops, row_flops, vanilla_flops
from kvfuse.fusion import (
    STRATEGIES,
    FusionPlan,
    PatchedCache,
    RecomputeSet,
    fused_prefill,
    hit_rate,
)
from kvfuse.model import ModelConfig, build_model, greedy_token, prefill_forward


def make_config(seed=11, n_layers=4):
    return ModelConfig(
        n_layers=n_layers, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=seed
    )


def make_recipe(**overrides):
    base = dict(
        n_doc_chunks=2, chunk_len=24, system_len=12, question_len=6, data_seed=3
    )
    base.update(overrides)
    return InputRecipe(**base)


def setup_instance(tmp_path, seed=11, **recipe_overrides):
    cfg = make_config(seed)
    model = build_model(cfg)
    segments = build_instance(make_recipe(**recipe_overrides), cfg)
    populate_store(model, segments, tmp_path)
    return cfg, model, segments


# --- FLOP model -------------------------------------------------------------


def test_flops_r1_equals_vanilla():
    for n_layers in (4, 8, 16):
        cfg = make_config(n_layers=n_layers)
        for n in (100, 1000, 4096):
            assert fused_flops(cfg, n, 1.0, 16) == vanilla_flops(cfg, n)


def test_flops_r0_matches_closed_form():
    # r = 0 leaves only the question rows past layer 1:
    # ratio = 2/L + (L - 2) * q / (L * n)
    q = 64
    n = 4096
    for n_layers in (4, 8, 16):
        cfg = make_config(n_layers=n_layers)
        ratio = fused_flops(cfg, n, 0.0, q) / vanilla_flops(cfg, n)
        expected = 2.0 / n_layers + (n_layers - 2) * q / (n_layers * n)
        assert abs(ratio - expected) <= 0.01 * expected


def test_flops_selective_below_three_quarters():
    cfg = ModelConfig(n_layers=8, n_heads=4, head_dim=16, d_ff=256, vocab_size=512, seed=0)
    n = 4096
    assert fused_flops(cfg, n, 0.15, 64) < 0.75 * vanilla_flops(cfg, n)


def test_trace_prefill_flops_dispatch(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    n, q = segments.n, len(segments.question)
    for strategy in STRATEGIES:
        plan = FusionPlan(strategy, r=0.3, head_tail_k=4)
        _, _, trace = fused_prefill(model, segments, plan, tmp_path)
        expect = {
            "attention_aware": fused_flops(cfg, n, 0.3, q),
            "kv_diff": fused_flops(cfg, n, 0.3, q),
            "none": fused_flops(cfg, n, 0.0, q),
            "full": cfg.n_layers * q * row_flops(cfg, n),
            "head_tail": prefill_flops(cfg, n, 2 * (4 + 4) + q, 2),  # 2 docs, first/last 4
        }[strategy]
        assert trace.flops["prefill"] == expect, strategy
        assert trace.flops["vanilla"] == vanilla_flops(cfg, n)


# --- Synthetic instances ----------------------------------------------------


def test_build_instance_deterministic_and_sized():
    cfg = make_config()
    recipe = make_recipe()
    a = build_instance(recipe, cfg)
    b = build_instance(recipe, cfg)
    assert np.array_equal(a.all_ids(), b.all_ids())
    assert a.n == recipe.n == 12 + 2 * 24 + 6
    c = build_instance(make_recipe(data_seed=4), cfg)
    assert not np.array_equal(a.all_ids(), c.all_ids())


def test_needle_instance_plants_marker():
    cfg = make_config()
    segments = build_instance(make_recipe(kind="needle", needle_len=8), cfg)
    marker = cfg.vocab_size - 1
    runs = [int(np.sum(doc == marker)) for doc in segments.documents]
    assert max(runs) >= 8
    assert segments.question[-1] == marker


def test_recipe_validation():
    with pytest.raises(ConfigError):
        make_recipe(chunk_len=0)
    with pytest.raises(ConfigError):
        make_recipe(kind="prose")


# --- Attention-map loss -----------------------------------------------------


def test_attention_loss_zero_against_self(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    oracle = prefill_forward(model, segments.all_ids(), record_queries=True)
    run = run_strategy(model, segments, "none", tmp_path, gen_len=1)
    # Layers 0 and 1 hold true entries, so the probe maps match exactly
    # up to the float32 cache boundary.
    assert attention_l2_loss(run.patched, oracle, 0) <= 1e-6
    assert attention_l2_loss(run.patched, oracle, 1) <= 1e-6
    sandwich = PatchedCache(
        keys=np.stack([c.keys for c in oracle.caches]),
        values=np.stack([c.values for c in oracle.caches]),
        segments=run.patched.segments,
        recompute=run.patched.recompute,
        patched_offsets=np.zeros(0, dtype=np.int64),
        question_queries=run.patched.question_queries,
        rope_recovered=True,
    )
    for layer in range(cfg.n_layers):
        assert attention_l2_loss(sandwich, oracle, layer) == 0.0


def test_attention_loss_requires_queries(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    oracle = prefill_forward(model, segments.all_ids())
    run = run_strategy(model, segments, "none", tmp_path, gen_len=1)
    with pytest.raises(InputError):
        attention_l2_loss(run.patched, oracle, 0)
    oracle = prefill_forward(model, segments.all_ids(), record_queries=True)
    with pytest.raises(InputError):
        attention_l2_loss(run.patched, oracle, cfg.n_layers)


def test_attention_loss_small_at_full_recompute(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    oracle = prefill_forward(model, segments.all_ids(), record_queries=True)
    run = run_strategy(model, segments, "attention_aware", tmp_path, r=1.0, gen_len=1)
    for layer in range(cfg.n_layers):
        assert attention_l2_loss(run.patched, oracle, layer) <= 1e-3


def test_attention_loss_orders_strategies(tmp_path):
    # Recovered-position reuse should beat plain concatenation on the
    # question-row attention maps at the deep layers.
    cfg, model, segments = setup_instance(tmp_path)
    oracle = prefill_forward(model, segments.all_ids(), record_queries=True)
    none_run = run_strategy(model, segments, "none", tmp_path, gen_len=1)
    full_run = run_strategy(model, segments, "full", tmp_path, gen_len=1)
    last = cfg.n_layers - 1
    assert attention_l2_loss(none_run.patched, oracle, last) < attention_l2_loss(
        full_run.patched, oracle, last
    )


# --- Strategy runs ----------------------------------------------------------


def test_generate_length_one_matches_prefill(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    res = prefill_forward(model, segments.all_ids())
    tokens = run_strategy(model, segments, "vanilla", tmp_path, gen_len=1).tokens
    assert tokens.shape == (1,)
    assert tokens[0] == greedy_token(res.logits)


def test_r1_generation_matches_vanilla(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    vanilla = run_strategy(model, segments, "vanilla", tmp_path, gen_len=12).tokens
    fused = run_strategy(model, segments, "attention_aware", tmp_path, r=1.0, gen_len=12).tokens
    assert np.array_equal(vanilla, fused)


def test_attention_aware_hit_rate_is_one(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    run = run_strategy(model, segments, "attention_aware", tmp_path, r=0.2, gen_len=1)
    oracle = oracle_top_p(run.trace.scores_doc, run.trace.p, run.patched.segments)
    assert hit_rate(run.patched.recompute, oracle) == 1.0


def test_run_strategy_eviction_shrinks_cache(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    policy = EvictionPolicy(capacity=30)
    plain = run_strategy(model, segments, "attention_aware", tmp_path, gen_len=4)
    evicted = run_strategy(
        model, segments, "attention_aware", tmp_path, gen_len=4, eviction=policy
    )
    assert evicted.evicted and not plain.evicted
    assert evicted.cache.resident_floats() < plain.cache.resident_floats()
    assert evicted.trace.eviction["capacity"] == 30
    assert set(evicted.trace.eviction) == {"capacity", *evicted.cache.summary()}


def test_run_strategy_rejects_unknown(tmp_path):
    cfg, model, segments = setup_instance(tmp_path)
    with pytest.raises(ConfigError):
        run_strategy(model, segments, "speculative", tmp_path)
    with pytest.raises(InputError):
        run_strategy(model, segments, "vanilla", tmp_path, gen_len=0)
    with pytest.raises(ConfigError, match="vanilla"):
        run_strategy(model, segments, "vanilla", tmp_path, eviction=EvictionPolicy(capacity=30))


# --- Reports ----------------------------------------------------------------


def quick_bench_config(**overrides):
    data = {
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "d_ff": 32,
                  "vocab_size": 64, "seed": 5},
        "recipe": {"n_doc_chunks": 2, "chunk_len": 24, "system_len": 12,
                   "question_len": 6, "data_seed": 3},
        "gen_len": 4,
        "seeds": [0],
    }
    data.update(overrides)
    return BenchConfig.from_dict(data)


def test_report_rows_and_csv_columns(tmp_path):
    report = run_bench(quick_bench_config(), out_dir=tmp_path)
    assert len(report.rows) == len(ALL_STRATEGIES) == 6
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert (tmp_path / "report.json").exists()
    for row in report.rows:
        assert list(row) == CSV_COLUMNS
    by_name = {row["strategy"]: row for row in report.rows}
    assert by_name["vanilla"]["r"] == "" and by_name["vanilla"]["hit_rate"] == ""
    assert by_name["attention_aware"]["hit_rate"] == "1"
    assert by_name["vanilla"]["gen_agree_frac"] == "1"
    assert float(by_name["full"]["flops_prefill"]) < float(by_name["none"]["flops_prefill"])


def test_report_deterministic_outside_timing(tmp_path, monkeypatch):
    # Each instance stores into and reads from a store of its own, so the
    # process's store is neither replaced nor filled.
    process_store = ChunkStore(tmp_path)
    monkeypatch.setattr(ChunkStore, "_process_store", process_store)
    a = run_bench(quick_bench_config())
    b = run_bench(quick_bench_config())
    assert a.rows == b.rows
    assert ChunkStore._process_store is process_store and process_store.resident_bytes == 0


def test_report_eviction_and_r_grid_rows(tmp_path):
    cfg = quick_bench_config(
        strategies=["vanilla", "attention_aware"],
        r_grid=[0.1, 0.3],
        eviction={"capacity": 30},
    )
    report = run_bench(cfg, out_dir=tmp_path)
    # vanilla + 2 r values x (plain, evicted)
    assert len(report.rows) == 1 + 2 * 2
    evicted = [row for row in report.rows if row["evict"] == "true"]
    assert {row["r"] for row in evicted} == {"0.1", "0.3"}
    for row in evicted:
        twin = next(
            r for r in report.rows
            if r["r"] == row["r"] and r["evict"] == "false" and r["strategy"] != "vanilla"
        )
        assert int(row["peak_kv_floats"]) < int(twin["peak_kv_floats"])


def test_bench_config_validation():
    with pytest.raises(ConfigError):
        quick_bench_config(strategies=["vanilla", "mystery"])
    with pytest.raises(ConfigError):
        quick_bench_config(r_grid=[1.5])
    with pytest.raises(ConfigError):
        quick_bench_config(bogus_key=1)
    # Deleted fields are unknown keys, not silently ignored.
    for key in ("throughput_batches", "repetitions", "warmup"):
        with pytest.raises(ConfigError, match=f"unknown bench config keys: \\['{key}'\\]"):
            quick_bench_config(**{key: 1})
    for key, value in (("gen_len", "8"), ("r_grid", 0.1), ("r_grid", ["0.1"]), ("r_grid", []),
                       ("seeds", 3), ("seeds", []), ("seeds", [0.5]), ("strategies", []),
                       ("strategies", "vanilla"), ("head_tail_k", "x"), ("head_tail_k", True),
                       ("gen_len", 0)):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            quick_bench_config(**{key: value})
    # Eviction must leave room beyond the protected system + question rows.
    with pytest.raises(ConfigError, match="bench config 'eviction'.*18 protected rows"):
        quick_bench_config(eviction={"capacity": 18})
    assert quick_bench_config(eviction={"capacity": 19}).eviction.capacity == 19
    with pytest.raises(ConfigError):
        BenchConfig.from_dict(["model", "recipe"])
    with pytest.raises(ConfigError):
        BenchConfig.from_dict({"recipe": {"n_doc_chunks": 1, "chunk_len": 8,
                                           "system_len": 4, "question_len": 2}})


def test_evaluate_acceptance():
    report = run_bench(quick_bench_config())
    results = evaluate_acceptance(report, [
        {"name": "vanilla agrees", "metric": "gen_agree_frac",
         "where": {"strategy": "vanilla"}, "op": ">=", "value": 1.0},
        {"name": "selective cheaper", "metric": "flops_prefill",
         "where": {"strategy": "attention_aware"}, "op": "<",
         "where_right": {"strategy": "vanilla"}},
        {"name": "impossible", "metric": "gen_agree_frac",
         "where": {"strategy": "full"}, "op": ">", "value": 1.0},
    ])
    assert [r["ok"] for r in results] == [True, True, False]
    for where, metric in (({"strategy": "ghost"}, "gen_agree_frac"),
                          ({"strategy": "none"}, "hit_rate")):  # blank cell
        with pytest.raises(ConfigError):
            evaluate_acceptance(report, [
                {"metric": metric, "where": where, "op": ">=", "value": 0.0},
            ])
