import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kvfuse import chunkstore
from kvfuse.bench import run_strategy
from kvfuse.cli import BOS, EOS, decode_bytes, encode_bytes, main
from kvfuse.errors import ConfigError
from kvfuse.eviction import EvictionPolicy
from kvfuse.fusion import InputSegments
from kvfuse.model import ModelConfig, build_model

MODEL = {"n_layers": 4, "n_heads": 2, "head_dim": 8, "d_ff": 32,
         "vocab_size": 300, "seed": 9}
CONTEXT = b"System: answer briefly. " + b"the quick brown fox jumps over the lazy dog. " * 6


def precompute_argv(tmp_path, manifest):
    return [
        "precompute", "--model", str(tmp_path / "model.json"),
        "--store", str(tmp_path / "store"),
        "--input", str(tmp_path / "context.txt"), "--chunk-len", "64",
        "--system-len", "24", "--manifest-out", str(manifest),
    ]


def setup_store(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "context.txt").write_bytes(CONTEXT)
    manifest = tmp_path / "manifest.json"
    assert main(precompute_argv(tmp_path, manifest)) == 0
    return manifest


def test_tokenizer_round_trip():
    cfg = ModelConfig(**MODEL)
    ids = encode_bytes(b"hi", cfg, bos=True, eos=True)
    assert list(ids) == [BOS, 104, 105, EOS]
    assert decode_bytes(ids) == b"hi"
    small = ModelConfig(**{**MODEL, "vocab_size": 64})
    with pytest.raises(ConfigError):
        encode_bytes(b"hi", small)


def never(*args, **kwargs):
    raise AssertionError("called where nothing should run")


def test_precompute_is_idempotent(tmp_path, capsys, monkeypatch):
    manifest = setup_store(tmp_path)
    first = json.loads(manifest.read_text())
    capsys.readouterr()
    # Every chunk is stored and verifies, so the second run runs no forward.
    monkeypatch.setattr("kvfuse.cli.precompute_chunk", never)
    assert main(precompute_argv(tmp_path, manifest)) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "stored" not in out
    assert json.loads(manifest.read_text()) == first
    # 24 system + 246 context bytes + BOS = 271 tokens -> 24 + 64*3 + 55
    lengths = [c["length"] for c in first["chunks"]]
    assert lengths[0] == 24 and sum(lengths) == len(CONTEXT) + 1


def test_precompute_repairs_a_corrupt_chunk(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    bad_id = data["chunks"][1]["id"]
    path = os.path.join(data["store"], bad_id)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    generate = ["generate", "--manifest", str(manifest), "--question-text", "q",
                "--strategy", "attention_aware", "--gen-len", "2"]
    assert main(generate) == 2
    capsys.readouterr()
    assert main(precompute_argv(tmp_path, manifest)) == 0
    out = capsys.readouterr().out
    assert f"repaired {bad_id}" in out and out.count("repaired") == 1
    assert "stored" not in out
    assert main(generate) == 0


def test_precompute_removes_only_dead_writers_temp_files(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    store = tmp_path / "store"
    # A finished child's pid names a writer that was killed mid-write; this
    # process stands for a writer still at work.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    dead = f".tmp-chunk-{child.pid}-k3x9q"
    live = f".tmp-chunk-{os.getpid()}-a7b2c"
    no_pid = ".tmp-chunk-a7b2c"
    for name in (dead, live, no_pid):
        (store / name).write_bytes(b"partial")
    capsys.readouterr()
    assert main(precompute_argv(tmp_path, manifest)) == 0
    assert f"removed orphaned {dead}" in capsys.readouterr().out
    assert not (store / dead).exists()
    assert (store / live).read_bytes() == b"partial"
    assert (store / no_pid).exists()


def test_precompute_multiple_inputs(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "sys.txt").write_bytes(b"You are terse.")
    (tmp_path / "doc_a.txt").write_bytes(b"alpha " * 20)
    (tmp_path / "doc_b.txt").write_bytes(b"bravo " * 20)
    manifest = tmp_path / "m.json"
    rc = main([
        "precompute", "--model", str(tmp_path / "model.json"),
        "--store", str(tmp_path / "store"),
        "--input", str(tmp_path / "sys.txt"),
        "--input", str(tmp_path / "doc_a.txt"),
        "--input", str(tmp_path / "doc_b.txt"),
        "--chunk-len", "64", "--system-len", "15",
        "--manifest-out", str(manifest),
    ])
    assert rc == 0
    chunks = json.loads(manifest.read_text())["chunks"]
    # 15-token system (BOS + 14 bytes), then 120 bytes per document file,
    # each split on its own 64-token grid
    assert [c["length"] for c in chunks] == [15, 64, 56, 64, 56]
    rc = main([
        "generate", "--manifest", str(manifest), "--question-text", "alpha or bravo?",
        "--strategy", "none", "--gen-len", "3",
    ])
    assert rc == 0


def test_generate_all_strategies(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    capsys.readouterr()
    outputs = {}
    for strategy in ("vanilla", "attention_aware", "kv_diff", "head_tail", "none", "full"):
        rc = main([
            "generate", "--manifest", str(manifest), "--question-text", "what does the fox do?",
            "--strategy", strategy, "--gen-len", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        tokens = [int(t) for t in lines[0].split()]
        assert len(tokens) == 5
        assert lines[1].startswith("bytes:")
        outputs[strategy] = tokens
    assert outputs["vanilla"][0] < MODEL["vocab_size"]


def test_generate_trace_and_eviction(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    trace_path = tmp_path / "trace.json"
    rc = main([
        "generate", "--manifest", str(manifest), "--question-text", "fox?",
        "--strategy", "attention_aware", "--r", "0.2", "--gen-len", "4",
        "--evict-capacity", "60", "--trace-out", str(trace_path),
    ])
    assert rc == 0  # a capacity alone turns eviction on
    trace = json.loads(trace_path.read_text())
    assert trace["strategy"] == "attention_aware"
    assert len(trace["tokens"]) == 4
    assert trace["eviction"]["capacity"] == 60
    assert trace["eviction"]["kept_per_layer_head"] == 60 < trace["n"]
    assert "kernel" not in trace["eviction"]
    assert trace["p"] == len(trace["selected"])
    assert trace["prefix_rows"] == 0  # a 24-token system holds no whole tile
    # The question is answered from every stored chunk, each read once.
    assert trace["chunk_bytes"] == sum(f.stat().st_size for f in (tmp_path / "store").iterdir())
    capsys.readouterr()
    for flags in (["--evict"], ["--evict", "--evict-capacity", "60"], ["--evict-kernel", "7"]):
        rc = main([
            "generate", "--manifest", str(manifest), "--question-text", "fox?",
            "--strategy", "attention_aware", *flags,
        ])
        err = capsys.readouterr().err
        assert rc == 1 and f"unrecognized arguments: {flags[0]}" in err, flags
    # vanilla keeps no patched cache to evict from: refused, not ignored.
    trace_path.unlink()
    capsys.readouterr()
    rc = main([
        "generate", "--manifest", str(manifest), "--question-text", "fox?",
        "--strategy", "vanilla", "--evict-capacity", "20",
        "--trace-out", str(trace_path),
    ])
    assert rc == 1 and capsys.readouterr().err.startswith("error:")
    assert not trace_path.exists()


def test_capacity_below_protected_rows_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # The README store: a 24-token system chunk; "fox?" encodes to 5 ids.
    manifest = setup_store(tmp_path)
    # No store the set-up left behind serves a chunk, and every chunk served
    # or read, resident or not, trips the guard.
    monkeypatch.setattr(chunkstore.ChunkStore, "_process_store", None)
    for name in ("load_chunk", "_read_chunk", "ChunkStore.load"):
        monkeypatch.setattr(f"kvfuse.chunkstore.{name}", never)
    monkeypatch.setattr("kvfuse.bench.fused_prefill", never)
    capsys.readouterr()
    rc = main([
        "generate", "--manifest", str(manifest), "--question-text", "fox?",
        "--strategy", "attention_aware", "--evict-capacity", "29",
    ])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "protected span size 29" in err
    # So are the checks that need the arguments alone.
    for extra, message in ((["--strategy", "vanilla", "--evict-capacity", "60"],
                            "eviction needs a fused strategy"),
                           (["--gen-len", "0"], "gen_len must be >= 1")):
        rc = main(["generate", "--manifest", str(manifest), "--question-text", "fox?", *extra])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and message in err
    segments = InputSegments(system=np.arange(24), documents=[np.arange(64)],
                             question=np.arange(5))
    model = build_model(ModelConfig(**MODEL))
    for capacity in (1, 29):
        with pytest.raises(ConfigError, match="protected span size 29"):
            run_strategy(model, segments, "attention_aware", tmp_path / "store",
                         eviction=EvictionPolicy(capacity))


@pytest.mark.parametrize("strategy", ["attention_aware", "full"])
def test_generate_verifies_each_chunk_file_once(tmp_path, monkeypatch, strategy):
    manifest = setup_store(tmp_path)
    monkeypatch.setattr(chunkstore.ChunkStore, "_process_store", None)
    verified = []
    real = chunkstore.verify_chunk_file

    def counting(path, *args, **kwargs):
        verified.append(os.path.basename(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(chunkstore, "verify_chunk_file", counting)
    trace_path = tmp_path / "trace.json"
    rc = main(["generate", "--manifest", str(manifest), "--question-text", "fox?",
               "--strategy", strategy, "--gen-len", "2", "--trace-out", str(trace_path)])
    assert rc == 0
    assert sorted(verified) == sorted(e["id"] for e in json.loads(manifest.read_text())["chunks"])
    # The token ids were read through the store, so the prefill read nothing.
    trace = json.loads(trace_path.read_text())
    assert (trace["chunk_hits"], trace["chunk_bytes_read"]) == (len(verified), 0)


def test_generate_vanilla_trace(tmp_path):
    manifest = setup_store(tmp_path)
    trace_path = tmp_path / "trace.json"
    assert main([
        "generate", "--manifest", str(manifest), "--question-text", "q",
        "--strategy", "vanilla", "--gen-len", "3", "--trace-out", str(trace_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    assert trace["strategy"] == "vanilla" and len(trace["tokens"]) == 3


def test_inspect_good_and_corrupt(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    path = os.path.join(data["store"], data["chunks"][0]["id"])
    capsys.readouterr()
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "magic: A3KV" in out and "integrity: ok" in out

    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    bad = tmp_path / "bad.chunk"
    bad.write_bytes(bytes(blob))
    assert main(["inspect", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "corrupt" in err

    assert main(["inspect", str(tmp_path / "absent.chunk")]) == 2


def test_generate_missing_chunk(tmp_path):
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    os.unlink(os.path.join(data["store"], data["chunks"][1]["id"]))
    rc = main([
        "generate", "--manifest", str(manifest), "--question-text", "q",
        "--strategy", "attention_aware", "--gen-len", "2",
    ])
    assert rc == 2


def test_generate_malformed_manifest_exits_1(tmp_path, capsys):
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    system, doc = data["chunks"][:2]
    bad = tmp_path / "bad.json"
    for broken in (
        {**data, "chunks": 5},
        {**data, "chunks": [{**system, "id": "zz"}, doc]},
        {**data, "chunks": [{"length": system["length"]}, doc]},
        {**data, "store": 5},
        {**data, "model": 5},
    ):
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(["generate", "--manifest", str(bad), "--question-text", "q"]) == 1, broken
        assert capsys.readouterr().err.startswith("error: manifest")


def bench_config(acceptance=None):
    return {
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "d_ff": 32,
                  "vocab_size": 64, "seed": 5},
        "recipe": {"n_doc_chunks": 2, "chunk_len": 24, "system_len": 12,
                   "question_len": 6, "data_seed": 3},
        "gen_len": 8,
        "seeds": [0, 1],
        "acceptance": acceptance or [],
    }


def test_bench_quick_writes_artifacts(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(bench_config(acceptance=[
        {"name": "vanilla agrees", "metric": "gen_agree_frac",
         "where": {"strategy": "vanilla"}, "op": ">=", "value": 1.0},
    ])))
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir), "--quick"]) == 0
    assert (out_dir / "report.csv").exists() and (out_dir / "report.json").exists()
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert len(rows) == 6


def test_bench_assertion_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(bench_config(acceptance=[
        {"name": "impossible", "metric": "gen_agree_frac",
         "where": {"strategy": "full"}, "op": ">", "value": 2.0},
    ])))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--quick"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] impossible" in out


def test_bench_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text("{not json")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    cfg.write_text(json.dumps({"model": MODEL}))  # missing recipe
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    for key in ("repetitions", "warmup"):  # deleted fields
        cfg.write_text(json.dumps({**bench_config(), key: 1}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown bench config keys: ['{key}']")


def test_bench_unknown_section_keys_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    for section, value in (
        ("eviction", {"capacity": 30, "protected": ["system"]}),
        ("eviction", {"capacity": 30, "enabled": False}),
        ("eviction", {"capacity": 30, "kernel": 7}),  # the pooling width is fixed
        ("recipe", {**bench_config()["recipe"], "chunk_count": 2}),
    ):
        cfg.write_text(json.dumps({**bench_config(), section: value}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert f"bench config {section!r}" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path):
    assert main(["generate", "--manifest", "nope.json"]) == 1  # no question
    assert main(["frobnicate"]) == 1
    assert main(["precompute", "--model", "/does/not/exist.json", "--store", str(tmp_path),
                 "--input", "/also/missing", "--manifest-out", str(tmp_path / "m.json")]) == 1


def test_unreadable_paths_exit_1(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "context.txt").write_bytes(CONTEXT)
    (tmp_path / "somedir").mkdir()
    good = {"--model": str(tmp_path / "model.json"), "--input": str(tmp_path / "context.txt"),
            "--store": str(tmp_path / "store")}
    for flag, bad in (
        ("--model", tmp_path / "somedir"),
        ("--input", tmp_path / "somedir"),
        ("--model", tmp_path / "context.txt" / "model.json"),  # a file as a directory
        ("--store", tmp_path / "context.txt"),  # a file where the store should be
    ):
        argv = ["precompute", "--chunk-len", "64", "--system-len", "24",
                "--manifest-out", str(tmp_path / "m.json")]
        for key, value in {**good, flag: str(bad)}.items():
            argv += [key, value]
        assert main(argv) == 1, (flag, bad)


BENCH_MODEL, RECIPE = bench_config()["model"], bench_config()["recipe"]  # data_seed 3


@pytest.mark.parametrize("key, value", [
    ("gen_len", "8"), ("r_grid", 0.1), ("seeds", 3), ("strategies", []),
    ("strategies", "vanilla"), ("r_grid", []), ("head_tail_k", "x"),
    ("recipe", {**RECIPE, "chunk_len": 8.5}), ("recipe", {**RECIPE, "needle_len": 2.5}),
    ("recipe", {**RECIPE, "system_len": True}), ("recipe", {**RECIPE, "data_seed": -3}),
    ("recipe", {**RECIPE, "data_seed": 2**64}), ("seeds", [0, -4]), ("seeds", [2**64 - 3]),
    ("eviction", {"capacity": 30.5}), ("eviction", {"capacity": 30, "kernel": True}),
    ("model", {**BENCH_MODEL, "n_heads": True}), ("model", {**BENCH_MODEL, "rope_base": "x"}),
    ("model", {**BENCH_MODEL, "depth": 2}),
    # Not above the protected rows: system_len 12 + question_len 6.
    ("eviction", {"capacity": 18}),
])
def test_bench_ill_typed_config_exits_1(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr("kvfuse.cli.run_bench", never)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**bench_config(), key: value}))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bench config {key!r}") and "Traceback" not in err


ROW = {"strategy": "vanilla"}


@pytest.mark.parametrize("entry", [
    {"metric": "nope", "where": ROW, "op": ">=", "value": 0},
    {"metric": "strategy", "where": ROW, "op": "==", "value": 0},
    {"metric": "gen_agree_frac", "where": ROW, "op": "~", "value": 0},
    {"metric": "gen_agree_frac", "where": "vanilla", "op": ">=", "value": 0},
    {"metric": "gen_agree_frac", "where": {"method": "vanilla"}, "op": ">=", "value": 0},
    {"metric": "gen_agree_frac", "where": ROW, "op": ">=", "value": "1"},
    {"metric": "gen_agree_frac", "where": ROW, "op": ">="},
    {"metric": "gen_agree_frac", "where": ROW, "op": ">=", "value": 0, "where_right": ROW},
    {"metric": "gen_agree_frac", "where": ROW, "op": ">=", "where_right": "full"},
    "gen_agree_frac >= 0",
    # Selectors are matched against the rows known before the run.
    {"metric": "gen_agree_frac", "where": {"strategy": "attention_aware"}, "op": ">=",
     "value": 0},  # the plain and the evicted row
    {"metric": "gen_agree_frac", "where": {"strategy": "ghost"}, "op": ">=", "value": 0},
    {"metric": "gen_agree_frac", "where": ROW, "op": ">=", "where_right": {"strategy": "ghost"}},
    {"metric": "gen_agree_frac", "where": {"ttft_ms": "1"}, "op": ">=", "value": 0},
])
def test_bench_bad_acceptance_entry_exits_1_before_running(tmp_path, capsys, monkeypatch, entry):
    monkeypatch.setattr("kvfuse.cli.run_bench", never)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**bench_config(acceptance=[entry]), "eviction": {"capacity": 30}}))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: acceptance")
