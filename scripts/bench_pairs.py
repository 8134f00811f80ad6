"""Run alternating perfbench pairs on two source trees and write the comparison.

    python3 scripts/bench_pairs.py --parent path/to/parent --change path/to/change \\
        --workloads rag_shared,ingest_cold,long_answer --seeds 21-30 \\
        --out BENCH_slug.json --title "what the change does"

Each tree is a full checkout with its own `perfbench/` and `BENCHMARK.json`.
For every workload and seed the script runs `python3 perfbench/run.py` once
in each tree, for BENCHMARK.json's `run_seconds` at the same `--trace`:
odd seeds run the parent first, even seeds the change first, so a drift of
the host over the session falls on both sides alike. It reads the last JSON
line of every run, and the `checks.tokens_sha256` of its first. For every
workload it writes whether both sides produced the same tokens on every
seed (`tokens_identical`), and for every metric BENCHMARK.json names for
that mode (`end_to_end` untraced, `per_layer` traced) both sides' quartiles
and medians, every run, the count of pairs the change won and a verdict by
`VERDICT_RULE`. `--section NAME` stores the result under NAME in an existing
`--out` file instead of writing a new one, which is how a traced section
joins an untraced comparison. Every run's last line also goes to stderr.

Before the pairs, the script runs the change tree's
`scripts/output_hashes.py` against each tree's `src/` and writes, under
`output_hashes`, how many lines the change printed, how many of them the
parent printed the same, and the label of every line that differs or is
printed by one side only, so that a claim of identical outputs is read
from the file. Beside it, `src_lines` holds each tree's line count of
`src/kvfuse/*.py`, as `wc -l` counts them, so a claim that `src/` shrank
is read from the file too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

GAIN_SHARE = 0.9  # share of the pairs the change must win to claim a gain

VERDICT_RULE = (
    "better: the change won at least 9 of 10 pairs and its median beats the parent's by "
    "more than the parent's quartile distance; worse: the same rule with the sides swapped; "
    "within bound: the median is not worse than the parent's by more than the "
    "BENCHMARK.json bound and no change run reaches past it; unresolved: within bound, but "
    "the parent's quartile distance exceeds the bound, or a metric without a bound that is "
    "neither better nor worse; out of bound: a change run or the median reaches past the "
    "bound; identical: every pair tied"
)


def perfbench_command(workload: str, seed, seconds: float, trace: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its last JSON line as a dict, with the
    `tokens_sha256` that its first JSON line's checks hold."""
    cmd = perfbench_command(workload, seed, seconds, trace)
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    first = json_lines(proc.stdout)[0]
    return {**last_json_line(proc.stdout), "tokens_sha256": first["checks"]["tokens_sha256"]}


def run_output_hashes(script: Path, src: Path) -> list[str]:
    """The lines `script` (scripts/output_hashes.py) prints for the source tree `src`."""
    cmd = [sys.executable, str(script), str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def compare_output_hashes(parent_lines: list[str], change_lines: list[str]) -> dict:
    """Lines are 'label value'; a label printed differently or by one side only differs."""
    parent = dict(line.rsplit(" ", 1) for line in parent_lines)
    change = dict(line.rsplit(" ", 1) for line in change_lines)
    differing = [label for label in {**change, **parent} if parent.get(label) != change.get(label)]
    return {"script": "the change tree's scripts/output_hashes.py, run on each tree's src/",
            "lines": len(change_lines), "parent_lines": len(parent_lines),
            "identical": sum(parent.get(label) == value for label, value in change.items()),
            "differing": differing}


def src_lines(tree: Path) -> int:
    """The newlines in the tree's `src/kvfuse/*.py`: `wc -l`'s total."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "kvfuse").glob("*.py"))


def json_lines(stdout: str) -> list[dict]:
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("perfbench printed no JSON line")
    return lines


def last_json_line(stdout: str) -> dict:
    return json_lines(stdout)[-1]


def parse_seeds(text: str) -> list[int]:
    """'21-30' or '1,3,5' as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def quartiles(runs: list[float]) -> dict:
    p25, median, p75 = np.percentile(runs, [25, 50, 75])
    return {"p25": round(float(p25), 4), "median": round(float(median), 4),
            "p75": round(float(p75), 4)}


def _relative(value: float, base: float) -> float:
    return (value - base) / base if base else (0.0 if value == base else math.inf)


def compare(spec: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    """The comparison of one metric over paired runs (pair i = the i-th run of each side)."""
    lower = spec["better"] == "lower"
    bound = spec.get("bound")
    p_med, c_med = float(np.median(parent_runs)), float(np.median(change_runs))
    p25, p75 = np.percentile(parent_runs, [25, 75])
    spread = float((p75 - p25) / p_med) if p_med else 0.0
    # Signed so that a positive figure is a gain.
    gain = -_relative(c_med, p_med) if lower else _relative(c_med, p_med)
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent_runs, change_runs))
    lost = sum((c > p) if lower else (c < p) for p, c in zip(parent_runs, change_runs))
    pairs = len(parent_runs)
    tied = pairs - won - lost
    worst = max(change_runs) if lower else min(change_runs)
    worst_loss = -_relative(worst, p_med) if lower else _relative(worst, p_med)
    if tied == pairs:
        verdict = "identical"
    elif won >= GAIN_SHARE * pairs and gain > spread:
        verdict = "better"
    elif lost >= GAIN_SHARE * pairs and -gain > spread:
        verdict = "worse"
    elif bound is None:
        verdict = "unresolved"
    elif -gain > bound or -worst_loss > bound:
        verdict = "out of bound"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": bound,
        "parent": quartiles(parent_runs), "change": quartiles(change_runs),
        "median_change": round(_relative(c_med, p_med), 4),
        "parent_quartile_spread": round(spread, 4),
        "change_won_pairs": won, "tied_pairs": tied, "pairs": pairs, "verdict": verdict,
        "parent_runs": [round(v, 4) for v in parent_runs],
        "change_runs": [round(v, 4) for v in change_runs],
    }


def bench_pairs(benchmark: dict, parent: Path, change: Path, workloads: list[str],
                seeds: list[int], seconds: float, trace: int, runner=run_perfbench,
                log=sys.stderr) -> dict:
    """Run the pairs and compare every metric of the mode; {workload: section}."""
    specs = benchmark["per_layer" if trace else "end_to_end"]
    out = {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                result = runner(tree, workload, seed, seconds, trace)
                runs[side].append(result)
                print(json.dumps({"workload": workload, "seed": seed, "side": side,
                                  "result": result}), file=log, flush=True)
        out[workload] = {
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "tokens_identical": all(p["tokens_sha256"] == c["tokens_sha256"]
                                    for p, c in zip(runs["parent"], runs["change"])),
            "metrics": {
                spec["name"]: compare(spec, *(
                    [r["metrics"][spec["name"]]["value"] for r in runs[side]]
                    for side in ("parent", "change")))
                for spec in specs
                if all(spec["name"] in r["metrics"] for rs in runs.values() for r in rs)
            },
        }
    return out


def main(argv=None, runner=run_perfbench, hashes=run_output_hashes) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--title", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--section")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    script = args.change / "scripts" / "output_hashes.py"
    output_hashes = compare_output_hashes(hashes(script, args.parent / "src"),
                                          hashes(script, args.change / "src"))
    workloads = bench_pairs(benchmark, args.parent, args.change, args.workloads.split(","),
                            seeds, seconds, args.trace, runner)
    result = {
        "title": args.title,
        "command": " ".join(perfbench_command("W", "S", seconds, args.trace)),
        "pairs": f"seeds {args.seeds} per workload; odd seeds ran the parent first, "
                 "even seeds the change first",
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host; each run pinned to one CPU "
                "with 1 BLAS thread (perfbench defaults)",
        "scaling": "end-to-end timings are perfbench's scaled values (reference host speed); "
                   "per-layer figures are wall-clock",
        "verdict_rule": VERDICT_RULE,
        "output_hashes": output_hashes,
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "workloads": workloads,
    }
    if args.section:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data[args.section] = result
    else:
        data = result
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
