"""scripts/bench_pairs.py on fake runners: run order, layout, pair counts and
the output-hash comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(21, 31))


class FakeRunner:
    """perfbench's last line with made-up figures; records the calls.

    The change's `tpot_p50_ms` reads 20% below the parent's, except on
    seed 24 where it reads 20% above; `token_agree` ties on every seed.
    Every other metric reads 1.0 on both sides, plus a small amount for
    the parent on odd seeds. Both sides produce the same tokens, except the
    change on rag_shared seed 27.
    """

    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, seconds, trace):
        side = tree.name
        self.calls.append((workload, seed, side, seconds, trace))
        metrics = {}
        for spec in BENCHMARK["per_layer" if trace else "end_to_end"]:
            value = 1.0 + (0.001 * seed if side == "parent" and seed % 2 else 0.0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        if not trace:
            base = 2.0 + 0.01 * seed
            factor = 1.0 if side == "parent" else (1.2 if seed == 24 else 0.8)
            metrics["tpot_p50_ms"]["value"] = base * factor
            metrics["token_agree"]["value"] = 0.5
        tokens = f"{workload}-{seed}"
        if side == "change" and (workload, seed) == ("rag_shared", 27):
            tokens += "-other"
        return {"correct": True, "attempted": 10 + (side == "change"), "failed": 0,
                "metrics": metrics, "tokens_sha256": tokens}


class FakeHashes:
    """scripts/output_hashes.py's lines, 'label value'; records the calls.

    The parent's tree prints `PARENT`; the change's prints `PARENT` with
    `changed` applied, a label mapped to None left out.
    """

    PARENT = ["prefill logits 1a", "decode step 0 logits 2b", "bench none r=0.1 3c"]

    def __init__(self, changed=None):
        self.changed = changed or {}
        self.calls = []

    def __call__(self, script, src):
        self.calls.append((script, src))
        lines = dict(line.rsplit(" ", 1) for line in self.PARENT)
        if src.parent.name == "change":
            lines.update(self.changed)
        return [f"{label} {value}" for label, value in lines.items() if value is not None]


@pytest.fixture
def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    # Runs last as long as the change tree's BENCHMARK.json says.
    (change / "BENCHMARK.json").write_text(json.dumps({**BENCHMARK, "run_seconds": 3}))
    return parent, change


def test_pairs_alternate_and_every_metric_is_compared(trees, tmp_path):
    parent, change = trees
    runner, hashes = FakeRunner(), FakeHashes()
    out = tmp_path / "BENCH_fake.json"
    assert bench_pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workloads", "rag_shared,long_answer",
         "--seeds", "21-30", "--out", str(out), "--title", "fake"], runner=runner,
        hashes=hashes) == 0

    # Odd seeds run the parent first, even seeds the change first.
    expected = [(w, s, side, 3.0, 0)
                for w in ("rag_shared", "long_answer") for s in SEEDS
                for side in (("parent", "change") if s % 2 else ("change", "parent"))]
    assert runner.calls == expected

    data = json.loads(out.read_text())
    assert data["title"] == "fake"
    assert {"command", "pairs", "host", "scaling", "verdict_rule"} <= set(data)
    # The change tree's script runs against each tree's src/.
    script = change / "scripts" / "output_hashes.py"
    assert hashes.calls == [(script, parent / "src"), (script, change / "src")]
    assert {k: v for k, v in data["output_hashes"].items() if k != "script"} == {
        "lines": 3, "parent_lines": 3, "identical": 3, "differing": []}
    assert set(data["workloads"]) == {"rag_shared", "long_answer"}
    section = data["workloads"]["long_answer"]
    assert section["correct"] == {"parent": True, "change": True}
    assert section["attempted"] == {"parent": 100, "change": 110}
    assert section["failed"] == {"parent": 0, "change": 0}
    assert section["tokens_identical"] is True
    assert data["workloads"]["rag_shared"]["tokens_identical"] is False
    assert list(section["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, entry in section["metrics"].items():
        assert set(entry["parent"]) == set(entry["change"]) == {"p25", "median", "p75"}
        assert len(entry["parent_runs"]) == len(entry["change_runs"]) == entry["pairs"] == 10
        assert entry["change_won_pairs"] + entry["tied_pairs"] <= 10

    tpot = section["metrics"]["tpot_p50_ms"]
    assert (tpot["change_won_pairs"], tpot["tied_pairs"]) == (9, 0)
    assert tpot["verdict"] == "better"
    assert tpot["parent_runs"] == [round(2.0 + 0.01 * s, 4) for s in SEEDS]
    assert tpot["median_change"] == pytest.approx(-0.2, abs=0.05)
    agree = section["metrics"]["token_agree"]
    assert (agree["change_won_pairs"], agree["tied_pairs"], agree["verdict"]) == (0, 10,
                                                                                  "identical")
    # Lower is better: the change wins the five odd seeds, where the parent
    # reads a little higher, and ties the even ones.
    rss = section["metrics"]["peak_rss_mb"]
    assert (rss["change_won_pairs"], rss["tied_pairs"], rss["verdict"]) == (5, 5, "within bound")
    # Higher is better: the same runs are five lost pairs.
    rate = section["metrics"]["tokens_per_s"]
    assert (rate["change_won_pairs"], rate["tied_pairs"], rate["verdict"]) == (0, 5,
                                                                               "within bound")


def test_traced_section_joins_an_existing_file(trees, tmp_path):
    parent, change = trees
    out = tmp_path / "BENCH_fake.json"
    out.write_text(json.dumps({"title": "untraced"}))
    runner = FakeRunner()
    bench_pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workloads", "long_answer",
         "--seeds", "1,2", "--trace", "1", "--section", "traced_long_answer",
         "--out", str(out)], runner=runner, hashes=FakeHashes())
    assert [call[1:] for call in runner.calls] == [
        (1, "parent", 3.0, 1), (1, "change", 3.0, 1), (2, "change", 3.0, 1), (2, "parent", 3.0, 1)]
    data = json.loads(out.read_text())
    assert data["title"] == "untraced"
    traced = data["traced_long_answer"]["workloads"]["long_answer"]["metrics"]
    assert list(traced) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(entry["bound"] is None and entry["pairs"] == 2 for entry in traced.values())
    assert data["traced_long_answer"]["command"] == (
        "python3 perfbench/run.py --workload W --seed S --seconds 3 --trace 1")


def test_output_hash_lines_that_differ_are_named(trees, tmp_path):
    # One line printed differently, one printed by the change only and one
    # by the parent only.
    parent, change = trees
    out = tmp_path / "BENCH_fake.json"
    hashes = FakeHashes({"decode step 0 logits": "ff", "bench none r=0.1": None,
                         "decode step 1 logits": "4d"})
    bench_pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workloads", "long_answer",
         "--seeds", "1", "--out", str(out)], runner=FakeRunner(), hashes=hashes)
    entry = json.loads(out.read_text())["output_hashes"]
    assert (entry["lines"], entry["parent_lines"], entry["identical"]) == (3, 3, 1)
    assert sorted(entry["differing"]) == ["bench none r=0.1", "decode step 0 logits",
                                          "decode step 1 logits"]


def test_src_line_counts_are_recorded(trees, tmp_path):
    # `wc -l` counts newlines: a last line without one is not counted, and
    # only the package's Python files count.
    parent, change = trees
    files = {parent: {"model.py": "a\nb\nc\n", "fusion.py": "d\ne"},
             change: {"model.py": "a\nb\n", "notes.txt": "x\ny\nz\n"}}
    for tree, texts in files.items():
        (tree / "src" / "kvfuse").mkdir(parents=True)
        for name, text in texts.items():
            (tree / "src" / "kvfuse" / name).write_text(text)
    out = tmp_path / "BENCH_fake.json"
    bench_pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workloads", "long_answer",
         "--seeds", "1", "--out", str(out)], runner=FakeRunner(), hashes=FakeHashes())
    assert json.loads(out.read_text())["src_lines"] == {"parent": 4, "change": 2}


def test_last_json_line_and_seed_ranges():
    stdout = 'start\n{"a": 1}\nend_to_end x 1 ms\n{"b": 2}\n'
    assert bench_pairs.json_lines(stdout) == [{"a": 1}, {"b": 2}]
    assert bench_pairs.last_json_line(stdout) == {"b": 2}
    with pytest.raises(RuntimeError):
        bench_pairs.last_json_line("no json here\n")
    assert bench_pairs.parse_seeds("21-24") == [21, 22, 23, 24]
    assert bench_pairs.parse_seeds("1,3,5") == [1, 3, 5]
