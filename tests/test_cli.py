import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kvfuse import chunkstore
from kvfuse.bench import run_strategy
from kvfuse.cli import BOS, EOS, decode_bytes, encode_bytes, main
from kvfuse.errors import ConfigError
from kvfuse.eviction import EvictionPolicy
from kvfuse.fusion import InputSegments
from kvfuse.model import ModelConfig, build_model

from forged_chunks import forge_chunk_file

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


@pytest.mark.parametrize("token", ["99999999999999999999999", "-99999999999999999999999"])
def test_precompute_refuses_an_id_beyond_64_bits(tmp_path, capsys, token):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "context.txt").write_text(" ".join(["7"] * 40 + [token] + ["7"] * 40))
    argv = precompute_argv(tmp_path, tmp_path / "manifest.json") + ["--format", "ids"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: token id out of vocabulary") and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


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


def test_a_failed_manifest_write_keeps_the_old_manifest(tmp_path, capsys, monkeypatch):
    # The manifest is written to a temp file and renamed over the old one,
    # so a write that fails part way leaves the old manifest whole and no
    # temp file behind.
    manifest = setup_store(tmp_path)
    before = manifest.read_bytes()

    def dump_part(obj, fh, **kwargs):
        fh.write(json.dumps(obj)[:40])
        raise OSError("No space left on device")

    monkeypatch.setattr(json, "dump", dump_part)
    assert main(precompute_argv(tmp_path, manifest)) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert manifest.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "context.txt", "manifest.json", "model.json", "store"]


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


def test_generate_while_another_process_repairs_a_chunk(tmp_path, capsys):
    # One other process repairs a corrupt chunk while generate runs here:
    # each generate serves the corrupt file (exit 2) or the repaired one
    # (exit 0), whole, and lets no exception escape.
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    bad_id = data["chunks"][1]["id"]
    path = os.path.join(data["store"], bad_id)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    generate = ["generate", "--manifest", str(manifest), "--question-text", "fox?",
                "--gen-len", "2"]
    src = os.path.dirname(os.path.dirname(chunkstore.__file__))
    # Its own manifest, so this process never reads one half written.
    argv = precompute_argv(tmp_path, tmp_path / "repaired.json")
    child = subprocess.Popen([sys.executable, "-u", "-m", "kvfuse.cli", *argv],
                             env={**os.environ, "PYTHONPATH": src},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # Its first line reports the system chunk; the next is the repair.
        first = child.stdout.readline()
        codes = [main(generate)]
        while child.poll() is None and len(codes) < 200:
            codes.append(main(generate))
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert set(codes) <= {0, 2}, codes
    assert child.returncode == 0, err
    assert first.startswith(b"cached ") and f"repaired {bad_id}".encode() in out
    chunkstore.verify_chunk_file(path, expect_id=bytes.fromhex(bad_id))
    capsys.readouterr()
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
    assert "prefix_rows" not in trace
    assert trace["reused_rows"] == 0  # the first prefill of the CLI's store
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
    # Every chunk served or read, resident or not, trips the guard.
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
                            "recovers positions, not vanilla"),
                           (["--strategy", "full", "--evict-capacity", "60"],
                            "recovers positions, not full"),
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


@pytest.mark.parametrize("strategy", ["attention_aware", "full"])
def test_generate_refuses_a_verified_chunk_of_another_shape(tmp_path, capsys, strategy):
    # The first document recomputed with one head of 16 dims and stored under
    # the manifest model's fingerprint (two heads of 8): its digest and id
    # verify, but its cache cannot serve the model.
    manifest = setup_store(tmp_path)
    data = json.loads(manifest.read_text())
    chunk = chunkstore.load_chunk(data["chunks"][1]["id"], data["store"])
    other = build_model(ModelConfig(**{**MODEL, "n_heads": 1, "head_dim": 16}))
    misfit = chunkstore.precompute_chunk(chunk.token_ids, other)
    chunkstore.store_chunk(replace(misfit, chunk_id=chunk.chunk_id,
                                   model_fingerprint=chunk.model_fingerprint), data["store"])
    capsys.readouterr()
    argv = ["generate", "--manifest", str(manifest), "--question-text", "fox?", "--gen-len", "2"]
    assert main(argv + ["--strategy", strategy]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: chunk ") and "Traceback" not in err
    # Vanilla reads only the chunks' token ids.
    assert main(argv + ["--strategy", "vanilla"]) == 0


STRATEGIES = ("vanilla", "attention_aware", "kv_diff", "head_tail", "none", "full")


@pytest.fixture(scope="module")
def stored_system(tmp_path_factory):
    """A store that holds the manifest model's system chunk, and the entry
    that names it."""
    tmp_path = tmp_path_factory.mktemp("forged")
    data = json.loads(setup_store(tmp_path).read_text())
    return data["store"], data["chunks"][0]


# The manifest model's shape in a file this version reads; the first value
# of each field drawn below is this one's.
VALID_FORGERY = dict(n_layers=4, n_heads=2, head_dim=8, token_ids=[5, 6, 7], flags=0,
                     version=chunkstore.VERSION, dtype=0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_layers=st.sampled_from([4, 0, 1, 5]),
    n_heads=st.sampled_from([2, 0, 1]),
    head_dim=st.sampled_from([8, 0, 3, 16]),
    token_ids=st.lists(st.integers(0, MODEL["vocab_size"] + 3), max_size=6),
    flags=st.sampled_from([0, 1, 2]),
    version=st.sampled_from([chunkstore.VERSION, chunkstore.VERSION - 1]),
    dtype=st.sampled_from([0, 1]),
)
@example(**VALID_FORGERY)
@example(**{**VALID_FORGERY, "flags": 1})
@example(**{**VALID_FORGERY, "n_layers": 0})
@example(**{**VALID_FORGERY, "token_ids": []})
@example(**{**VALID_FORGERY, "n_layers": 1})
@example(**{**VALID_FORGERY, "token_ids": [5, 999]})
def test_generate_maps_every_forged_document_to_an_exit_code(
        stored_system, n_layers, n_heads, head_dim, token_ids, flags, version, dtype):
    # A document file with any header, whose digest and content id are
    # valid, run through `generate` under every strategy: the run returns 0,
    # 1 or 2 and never raises; a file the reader refuses, or one no writer
    # makes, is exit 2, and so is one whose ids lie outside the vocabulary
    # and one the fused strategies cannot use: a shape other than the
    # model's, or rotated keys.
    store, system = stored_system
    manifest = os.path.join(store, "forged-manifest.json")
    fp = ModelConfig(**MODEL).fingerprint()
    cid = forge_chunk_file(store, fp, token_ids, n_layers, n_heads, head_dim, flags=flags,
                           version=version, dtype=dtype)
    with open(manifest, "w") as fh:
        json.dump({"model": MODEL, "store": store, "chunks": [system, {"id": cid}]}, fh)
    try:
        chunkstore.verify_chunk_file(os.path.join(store, cid))
        refused = False
    except chunkstore.IntegrityError:
        refused = True
    impossible = 0 in (n_layers, n_heads, len(token_ids), head_dim) or head_dim % 2 == 1
    misfit = (n_layers, n_heads, head_dim) != (4, 2, 8) or flags & 1
    for strategy in STRATEGIES:
        rc = main(["generate", "--manifest", manifest, "--question-text", "fox?",
                   "--strategy", strategy, "--gen-len", "2"])
        assert rc in (0, 1, 2)
        if (refused or impossible or max(token_ids) >= MODEL["vocab_size"]
                or (misfit and strategy != "vanilla")):
            assert rc == 2, (strategy, rc)


def _json(integers):
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=6)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=5)


ANY_JSON = _json(st.integers())
SIZE_JSON = _json(st.integers(-1, 8))  # no example builds a large model
SIZES = ("n_layers", "n_heads", "head_dim", "d_ff", "vocab_size", "d_model")
ABSENT = "<absent>"
# Every key of the manifest, of its model object and of its first two chunk
# entries, plus one that no reader knows.
MANIFEST_PATHS = ([(key,) for key in ("model", "store", "chunks", "other")]
                  + [("model", key) for key in (*MODEL, "d_model", "rope_base", "other")]
                  + [("chunks", i) for i in (0, 1)]
                  + [("chunks", i, key) for i in (0, 1) for key in ("id", "length", "other")])


@st.composite
def manifest_edit(draw):
    path = draw(st.sampled_from(MANIFEST_PATHS))
    return path, draw(st.just(ABSENT) | (SIZE_JSON if path[-1] in SIZES else ANY_JSON))


@pytest.fixture(scope="module")
def stored_manifest(tmp_path_factory):
    return json.loads(setup_store(tmp_path_factory.mktemp("manifest")).read_text())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(manifest_edit(), max_size=3, unique_by=lambda edit: edit[0]),
       evict=st.sampled_from([None, 40]))
@example(edits=[], evict=None)
@example(edits=[(("model", "n_heads"), None), (("model", "d_model"), ABSENT)], evict=None)
@example(edits=[(("model", "rope_base"), 10**400)], evict=None)
@example(edits=[(("store",), "store\0")], evict=None)
def test_generate_maps_every_manifest_to_an_exit_code(stored_manifest, edits, evict):
    # The stored manifest with values of any type, or none, at some of its
    # keys, run through `generate` under every strategy: the run returns 0,
    # 1 or 2 and never raises, and the unedited manifest runs without
    # eviction.
    manifest = json.loads(json.dumps(stored_manifest))
    # Deeper keys first, so that every edit finds its enclosing object.
    for path, value in sorted(edits, key=lambda edit: -len(edit[0])):
        *outer, key = path
        node = functools.reduce(lambda node, k: node[k], outer, manifest)
        if value is not ABSENT:
            node[key] = value
        elif isinstance(node, dict):
            node.pop(key, None)
        else:
            del node[key]
    path = os.path.join(os.path.dirname(stored_manifest["store"]), "edited-manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    argv = ["generate", "--manifest", path, "--question-text", "fox?", "--gen-len", "2"]
    argv += [] if evict is None else ["--evict-capacity", str(evict)]
    for strategy in STRATEGIES:
        rc = main(argv + ["--strategy", strategy])
        assert rc in (0, 1, 2)
        if not edits and evict is None:
            assert rc == 0, strategy


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


def _precompute(tmp_path, inputs, *extra, model=MODEL):
    """`precompute` argv over `inputs`, each written to a file of its own."""
    (tmp_path / "model.json").write_text(json.dumps(model))
    argv = ["precompute", "--model", str(tmp_path / "model.json"), "--store",
            str(tmp_path / "store"), "--chunk-len", "64", "--manifest-out",
            str(tmp_path / "m.json"), *extra]
    for i, data in enumerate(inputs):
        (tmp_path / f"input{i}").write_bytes(data)
        argv += ["--input", str(tmp_path / f"input{i}")]
    return argv


def _generate(tmp_path, *extra, model=MODEL):
    """`generate` argv over a store of CONTEXT precomputed for `model`."""
    assert main(_precompute(tmp_path, [CONTEXT], "--system-len", "24", model=model)) == 0
    return ["generate", "--manifest", str(tmp_path / "m.json"), "--gen-len", "3", *extra]


def _manifest(tmp_path, text):
    (tmp_path / "m.json").write_text(text)
    return ["generate", "--manifest", str(tmp_path / "m.json"), "--question-text", "q"]


def _question_file(tmp_path):
    (tmp_path / "question.txt").write_bytes("what does the fox do? \u00e9".encode())
    return _generate(tmp_path, "--question-file", str(tmp_path / "question.txt"))


ONE_LAYER = {**MODEL, "n_layers": 1}
# name: (argv maker, exit code, what stderr starts with (an exit-0 run
# prints nothing there), argv maker of a run whose stdout must match or None).
CLI_PATHS = {
    "question file": (_question_file, 0, "", lambda tmp_path: _generate(
        tmp_path, "--question-text", "what does the fox do? \u00e9")),
    "ids not integers": (lambda tmp_path: _precompute(tmp_path, [b"1 2 x 3"], "--format", "ids"),
                         1, "error: {input0} is not a whitespace-separated id list: "
                         "invalid literal for int() with base 10: 'x'", None),
    "ids empty": (lambda tmp_path: _precompute(tmp_path, [b" \n"], "--format", "ids"),
                  1, "error: {input0} holds no token ids", None),
    "no document token": (lambda tmp_path: _precompute(tmp_path, [b"x" * 23], "--system-len", "24"),
                          1, "error: system_len 24 must leave at least one document token "
                          "(first input has 24)", None),
    "system chunk only": (lambda tmp_path: _precompute(tmp_path, [b"x" * 23, b""],
                                                       "--system-len", "24"),
                          1, "error: need a system chunk plus at least one document chunk",
                          None),
    "manifest not JSON": (lambda tmp_path: _manifest(tmp_path, "{"), 1,
                          "error: manifest is not valid JSON: Expecting property name", None),
    "manifest not an object": (lambda tmp_path: _manifest(tmp_path, "[1, 2]"), 1,
                               "error: manifest must be a JSON object", None),
    "fused on 1 layer": (lambda tmp_path: _generate(tmp_path, "--question-text", "q",
                                                    model=ONE_LAYER),
                         1, "error: the selective pipeline needs at least 2 layers", None),
    "vanilla on 1 layer": (lambda tmp_path: _generate(tmp_path, "--question-text", "q",
                                                      "--strategy", "vanilla", model=ONE_LAYER),
                           0, "", None),
}


@pytest.mark.parametrize("name", CLI_PATHS)
def test_each_cli_path_exits_with_its_code_and_message(tmp_path, capsys, name):
    make_argv, code, message, same_as = CLI_PATHS[name]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(message.format(input0=tmp_path / "input0")) and bool(err) == bool(code)
    if same_as is not None:
        expect = same_as(tmp_path)
        capsys.readouterr()
        assert main(expect) == 0
        assert out == capsys.readouterr().out


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
