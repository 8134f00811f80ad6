import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import measure
from kvfuse.model import ModelConfig
from workloads import Workload

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY_MODEL = ModelConfig(n_layers=3, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=5)
TINY_LIBRARY = Workload(
    "tiny_library", system_len=8, doc_len=16, library_size=4, docs_per_request=2,
    question_len=4, gen_len=5, evict_capacity=30, ttft_tail_pct=60,
    probe_reference_ms=(1.0, 1.0),
)
TINY_FRESH = dataclasses.replace(
    TINY_LIBRARY, name="tiny_fresh", library_size=0, evict_capacity=None
)


def test_tail_reports_the_given_percentile():
    entry = measure.tail(list(range(101)), 70)
    assert entry["percentile"] == 70
    assert entry["value"] == pytest.approx(70.0)
    assert entry["samples"] == 101 and entry["beyond"] == 30


def test_tail_percentile_does_not_change_with_the_sample_count(tmp_path):
    short = measure.run(TINY_LIBRARY, 4, 0.05, False, str(tmp_path), TINY_MODEL)["end_to_end"]
    long = measure.run(TINY_LIBRARY, 4, 0.5, False, str(tmp_path), TINY_MODEL)["end_to_end"]
    for name, pct in (("ttft_tail_ms", 60), ("tpot_tail_ms", measure.TPOT_TAIL_PCT)):
        assert short[name]["samples"] < long[name]["samples"]
        assert short[name]["percentile"] == long[name]["percentile"] == pct


def test_token_mismatch_reports_a_wrong_token():
    expected = np.array([3, 1, 4, 1, 5])
    assert measure.token_mismatch(expected, expected.copy()) is None
    wrong = expected.copy()
    wrong[2] = 9
    assert "first at 2" in measure.token_mismatch(expected, wrong)
    assert measure.token_mismatch(expected, expected[:4]) is not None


@pytest.mark.parametrize("workload", [TINY_LIBRARY, TINY_FRESH])
def test_output_check_passes_then_fails_on_a_wrong_token(tmp_path, workload):
    ctx = measure.build_context(workload, 3, str(tmp_path), TINY_MODEL)
    out = measure.serve(ctx, 0)
    assert measure.check_outcome(ctx, out) == []
    assert measure.token_mismatch(out.tokens, measure.serve(ctx, 0).tokens) is None
    out.tokens[1] = TINY_MODEL.vocab_size
    assert measure.check_outcome(ctx, out)
    out.tokens = out.tokens[:-1]
    assert measure.check_outcome(ctx, out)


def test_output_check_fails_when_eviction_keeps_the_wrong_rows(tmp_path):
    ctx = measure.build_context(TINY_LIBRARY, 3, str(tmp_path), TINY_MODEL)
    out = measure.serve(ctx, 1)
    assert out.kept == TINY_LIBRARY.evict_capacity
    out.kept += 1
    assert measure.check_outcome(ctx, out)


@pytest.mark.parametrize("workload", [TINY_LIBRARY, TINY_FRESH])
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_named_metric(tmp_path, workload, trace):
    report = measure.run(workload, 4, 0.2, trace, str(tmp_path), TINY_MODEL)
    assert report["loop"]["failed"] == 0
    assert set(report["checks"]["determinism"].values()) == {"identical"}
    section = "per_layer" if trace else "end_to_end"
    for m in SPEC[section]:
        entry = report[section][m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert np.isfinite(entry["value"]), m["name"]
    if trace:
        names = {s["name"] for s in report["spans"]}
        assert {"fusion.fused_prefill", "chunkstore.load_chunk", "model.decode_step"} <= names
    # Stores are removed; only the work directory remains.
    assert list(tmp_path.iterdir()) == []


def test_timings_are_scaled_by_the_slowdown_measured_before_each_request(tmp_path):
    report = measure.run(TINY_LIBRARY, 4, 0.2, False, str(tmp_path), TINY_MODEL)
    samples, e2e = report["samples_ms"], report["end_to_end"]
    prefill = np.array([p for p, _ in samples["host_slowdowns"]])
    decode = np.array([d for _, d in samples["host_slowdowns"]])
    assert prefill.min() > 0 and decode.min() > 0
    ttft = e2e["ttft_p50_ms"]
    assert ttft["measured"] == pytest.approx(np.median(samples["ttft"]))
    assert ttft["value"] == pytest.approx(np.median(np.array(samples["ttft"]) / prefill))
    gaps = np.array(samples["tpot"]).reshape(len(decode), -1)
    assert e2e["tpot_p50_ms"]["value"] == pytest.approx(np.median(gaps / decode[:, None]))
    for name in ("request_p50_ms", "tokens_per_s", "setup_s"):
        assert e2e[name]["measured"] > 0 and e2e[name]["value"] > 0
    assert "measured" not in e2e["token_agree"]
