"""kvfuse benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload rag_shared --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; kvfuse is imported from `src/`.
Prints every metric by name with its unit, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports the end-to-end metrics named in BENCHMARK.json, `--trace 1` the
per-layer ones. End-to-end timings are scaled to a reference host speed
by two fixed NumPy kernels timed before every request (measure.HostProbe);
each keeps its wall-clock figure as `measured=`. Per-layer figures are as
measured. The full report (quartiles, sample counts, environment,
strategy table) and, for traced runs, the spans are written under
`perfbench/_run/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys
from pathlib import Path

# Fixed before NumPy is imported, so every BLAS call in the run uses this
# many threads. One thread: the matrices are small (d_model 64) and a
# second thread adds contention noise on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

# The whole run stays on one CPU (the highest-numbered usable one), so the
# scheduler never moves it between cores mid-request.
CPUS_USABLE = sorted(os.sched_getaffinity(0))
PINNED_CPU = CPUS_USABLE[-1]
os.sched_setaffinity(0, {PINNED_CPU})

# glibc keeps freed memory for reuse instead of returning it to the kernel,
# and serves large arrays from the heap instead of fresh mappings. Without
# this every request takes about two thousand minor page faults, whose cost
# on a virtual machine depends on the host far more than on the program.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
try:
    _libc = ctypes.CDLL(None)
    MALLOC_SETTINGS = {
        "M_TRIM_THRESHOLD": (1 << 30, _libc.mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1),
        "M_MMAP_MAX": (0, _libc.mallopt(M_MMAP_MAX, 0) == 1),
    }
except (OSError, AttributeError):
    MALLOC_SETTINGS = {"mallopt": "unavailable"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_USABLE),
        "pinned_cpu": PINNED_CPU,
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "malloc": MALLOC_SETTINGS,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def select_metrics(spec_metrics: list, measured: dict) -> tuple[dict, list]:
    """The metrics BENCHMARK.json names, as {name: {value, unit}}, and any problems."""
    out, problems = {}, []
    for m in spec_metrics:
        entry = measured.get(m["name"])
        if entry is None:
            problems.append(f"{m['name']}: not measured")
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']} != {m['unit']}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{m['name']}: value {entry['value']!r} is not a finite number")
            continue
        out[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    return out, problems


def main(argv=None) -> int:
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "kvfuse" / "__init__.py").is_file():
        print(f"error: kvfuse sources not found under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import measure

    out_dir = HERE / "_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    report = measure.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         str(out_dir))
    report = {"environment": environment(args), **report,
              "notes": [measure.HOST_SCALED, measure.COMPUTED_NOT_MEASURED]}

    section = "per_layer" if args.trace else "end_to_end"
    metrics, problems = select_metrics(spec[section], report[section])
    report["checks"]["metric_problems"] = problems
    correct = not problems and report["loop"]["failed"] == 0

    spans = report.pop("spans", None)
    if spans is not None:
        (out_dir / "spans.json").write_text(json.dumps(spans))
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({key: report[key]
                      for key in ("environment", "loop", "host", "quality", "checks", "notes")}))
    for part in ("end_to_end", "per_layer"):
        for name, entry in report.get(part, {}).items():
            extra = "".join(
                f" {key}={entry[key]:.6g}"
                for key in ("measured", "p25", "p75", "percentile", "beyond")
                if isinstance(entry.get(key), (int, float))
            )
            print(f"{part} {name} {entry['value']:.6g} {entry['unit']}"
                  f" samples={entry.get('samples', 1)}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["loop"]["attempted"],
        "failed": report["loop"]["failed"],
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
