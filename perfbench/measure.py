"""Set-up, the timed closed loop, output checks, and reduction to metrics.

One client drives the program in a closed loop: each request is sent only
after the previous one has produced its last token, so there is no arrival
schedule and no queue. Every call goes through the module attributes of
`kvfuse.chunkstore`, `fusion`, `model` and `eviction`, which is where the
traced run installs its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from kvfuse import bench, chunkstore, eviction, fusion
from kvfuse import flops as F
from kvfuse import model as kvmodel

from spans import SpanRecorder, instrumented
from workloads import (
    MODEL,
    QUALITY_SEED,
    RATIO,
    STRATEGY,
    TPOT_TAIL_PCT,
    WARMUP_INDEX,
    RequestGenerator,
    Workload,
)

SETUP_REPS = 3
SETUP_PROBES = 3  # probes before each set-up repetition
WARMUP_REQUESTS = 1
DETERMINISM_REQUESTS = 2
QUALITY_REQUESTS = 3
TABLE_REQUESTS = 2
TABLE_GEN_LEN = 16
COMPUTED_NOT_MEASURED = (
    "chunkstore.load_chunk.bytes, chunkstore.store_chunk.bytes and "
    "model.DecodeCache.attend.bytes are computed from tensor sizes (token ids, "
    "float32 keys and values), not measured; every *_gflop figure is the analytic "
    "model in kvfuse.flops, not a count of executed operations"
)
HOST_SCALED = (
    "end-to-end timings are scaled to the workload's reference host speed by the "
    "HostProbe kernels timed before every request (report key host); `measured` "
    "is the wall-clock figure; per-layer figures are wall-clock"
)


# ---------------------------------------------------------------------------
# Statistics


def tail(samples, pct: int) -> dict:
    """The `pct` percentile of the samples, with the percentile beside it."""
    if not samples:
        return {"value": math.nan, "percentile": pct, "samples": 0}
    value = float(np.percentile(samples, pct))
    return {"value": value, "percentile": pct, "samples": len(samples),
            "beyond": int(np.sum(np.asarray(samples) > value))}


def summary(samples) -> dict:
    """Median as the value, with quartiles, their spread and the sample count."""
    values = [float(v) for v in samples]
    if not values:
        return {"value": math.nan, "samples": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "value": median,
        "samples": len(values),
        "p25": q1,
        "p75": q3,
        "spread": (q3 - q1) / median if median else None,
    }


# ---------------------------------------------------------------------------
# Host speed


class HostProbe:
    """Fixed NumPy kernels, independent of kvfuse, timed before every request.

    On a shared host the speed of this machine drifts by a factor of 1.3 to 2
    over minutes, so raw timings of the same program differ more between
    runs than a regression bound can allow. Two kernels slow down with the
    host and not with kvfuse, one of each kind of work the program does:
    prefill, a BLAS product of prefill size; decode, a step of the
    acceptance model's shape (float32 weights and cache, float64 arithmetic,
    4 heads of 16) over as many cache rows as the workload decodes from,
    which is bound by per-call overhead and memory rather than arithmetic.
    A kernel's time over the workload's reference time for it is that
    kind's slowdown; each request uses the median of the nine probes nearest
    to it, so a single disturbed probe does not move it.
    """

    BLAS_REPS = 10
    DECODE_LAYERS = 16  # two steps of the 8-layer model
    WINDOW = 9

    def __init__(self, workload: Workload):
        self.reference_ms = workload.probe_reference_ms
        rng = np.random.default_rng(0)
        d, heads, hd, rows = 64, 4, 16, workload.decode_rows
        self.a = rng.standard_normal((512, d))
        self.b = rng.standard_normal((d, 256))
        self.c = np.empty((512, 256))
        self.x = rng.standard_normal((1, d))
        self.w_attn = rng.standard_normal((4, d, d)).astype(np.float32)
        self.w_in = rng.standard_normal((d, 256)).astype(np.float32)
        self.w_out = rng.standard_normal((256, d)).astype(np.float32)
        self.keys = rng.standard_normal((heads, rows, hd)).astype(np.float32)
        self.values = rng.standard_normal((heads, rows, hd)).astype(np.float32)
        self.samples: list[tuple[float, float]] = []  # (prefill, decode) kernel seconds
        self()  # the first call pays for BLAS start-up and first-touch page faults
        self.samples.clear()

    def _decode_layer(self) -> None:
        x = self.x
        q, k, v, o = (np.asarray(w, dtype=np.float64) for w in self.w_attn)
        q_heads = (x @ q).reshape(4, 16)
        for w in (k, v):  # the new cache row, stored as float32
            (x @ w).astype(np.float32)
        keys = np.asarray(self.keys, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        scores = np.einsum("hd,hnd->hn", q_heads, keys) / 4.0
        scores -= scores.max(axis=-1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=-1, keepdims=True)
        t = x + np.einsum("hn,hnd->hd", w, values).reshape(1, -1) @ o
        h = t @ np.asarray(self.w_in, dtype=np.float64)
        h / (1.0 + np.exp(-h)) @ np.asarray(self.w_out, dtype=np.float64)

    def __call__(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.BLAS_REPS):
            np.matmul(self.a, self.b, out=self.c)
        t1 = time.perf_counter()
        for _ in range(self.DECODE_LAYERS):
            self._decode_layer()
        self.samples.append((t1 - t0, time.perf_counter() - t1))

    def slowdowns(self) -> list[tuple[float, float]]:
        """(prefill, decode) slowdown at each probe, smoothed over WINDOW probes."""
        ms = np.asarray(self.samples) * 1e3 / np.asarray(self.reference_ms)
        half = self.WINDOW // 2
        return [tuple(float(f) for f in np.median(ms[max(0, i - half):i + half + 1], axis=0))
                for i in range(len(ms))]

    def report(self) -> dict:
        out = {}
        for k, kind in enumerate(("prefill", "decode")):
            ms = summary([sample[k] * 1e3 for sample in self.samples])
            out[kind] = {"probe_ms": ms, "reference_ms": self.reference_ms[k],
                         "slowdown": ms["value"] / self.reference_ms[k]}
        return out


# ---------------------------------------------------------------------------
# Serving one request


@dataclass
class Context:
    workload: Workload
    model: kvmodel.Model
    store: str
    gen: RequestGenerator
    plan: fusion.FusionPlan
    policy: eviction.EvictionPolicy | None
    warmup_decode_s: float = 0.0  # decode steps of the warm-up requests


@dataclass
class Outcome:
    tokens: np.ndarray
    ttft_s: float
    tpot_s: list
    request_s: float
    trace: fusion.FusionTrace
    kept: int  # cache rows per layer and head after eviction (n without it)


def _store(ctx: Context, ids) -> None:
    chunkstore.store_chunk(chunkstore.precompute_chunk(ids, ctx.model), ctx.store)


def _decode_cache(ctx: Context, patched):
    if ctx.policy is None:
        return patched.to_decode_cache()
    return eviction.evict(patched, ctx.policy)


def _segments(gen: RequestGenerator, index: int):
    req = gen.request(index)
    return req, fusion.InputSegments(
        system=gen.system, documents=list(req.documents), question=req.question
    )


def _decode(model, cache, first_logits, start: int, gen_len: int, forced=None):
    """Greedy decode; with `forced`, step i is fed forced[i] instead of its own token.

    Returns the tokens and the duration of each decode step.
    """
    tokens = [kvmodel.greedy_token(first_logits)]
    gaps = []
    for step in range(gen_len - 1):
        t0 = time.perf_counter()
        feed = tokens[-1] if forced is None else int(forced[step])
        tokens.append(kvmodel.greedy_token(kvmodel.decode_step(model, cache, feed, start + step)))
        gaps.append(time.perf_counter() - t0)
    return np.asarray(tokens, dtype=np.int64), gaps


def serve(ctx: Context, index: int, gen: RequestGenerator | None = None) -> Outcome:
    """Request `index`: ingest fresh documents, fused prefill, evict, decode."""
    req, segments = _segments(gen or ctx.gen, index)
    t_req = time.perf_counter()
    if req.fresh:
        for ids in req.documents:
            _store(ctx, ids)
    t0 = time.perf_counter()
    patched, logits, trace = fusion.fused_prefill(ctx.model, segments, ctx.plan, ctx.store)
    ttft = time.perf_counter() - t0
    cache = _decode_cache(ctx, patched)
    kept = cache.length
    tokens, gaps = _decode(ctx.model, cache, logits, segments.n, ctx.workload.gen_len)
    return Outcome(
        tokens=tokens,
        ttft_s=ttft,
        tpot_s=gaps,
        request_s=time.perf_counter() - t_req,
        trace=trace,
        kept=kept,
    )


def build_context(workload: Workload, seed: int, work_dir: str, config=None) -> Context:
    model = kvmodel.build_model(config or kvmodel.ModelConfig(**MODEL))
    gen = RequestGenerator(workload, seed, model.config.vocab_size)
    ctx = Context(
        workload=workload,
        model=model,
        store=tempfile.mkdtemp(prefix="store-", dir=work_dir),
        gen=gen,
        plan=fusion.FusionPlan(STRATEGY, r=RATIO),
        policy=(
            eviction.EvictionPolicy(capacity=workload.evict_capacity)
            if workload.evict_capacity is not None
            else None
        ),
    )
    for ids in [gen.system, *gen.library]:
        _store(ctx, ids)
    for k in range(WARMUP_REQUESTS):
        ctx.warmup_decode_s += sum(serve(ctx, WARMUP_INDEX + k).tpot_s)
    return ctx


def setup(workload: Workload, seed: int, work_dir: str, config=None,
          probe: HostProbe | None = None) -> tuple[Context, list, list]:
    """Model build, store population and warm-up, SETUP_REPS times from scratch.

    Returns the last context, the seconds each repetition took, and the same
    scaled to the reference host speed by the probes timed before each
    repetition: the warm-up's decode steps by the decode slowdown, the rest
    by the prefill slowdown.
    """
    times, decode_times, ctx = [], [], None
    for _ in range(SETUP_REPS):
        if ctx is not None:
            shutil.rmtree(ctx.store)
        for _ in range(SETUP_PROBES if probe is not None else 0):
            probe()
        t0 = time.perf_counter()
        ctx = build_context(workload, seed, work_dir, config)
        times.append(time.perf_counter() - t0)
        decode_times.append(ctx.warmup_decode_s)
    if probe is not None:
        slowdowns = probe.slowdowns()[SETUP_PROBES - 1::SETUP_PROBES]
    else:
        slowdowns = [(1.0, 1.0)] * len(times)
    scaled = [(t - d) / prefill + d / decode
              for t, d, (prefill, decode) in zip(times, decode_times, slowdowns)]
    return ctx, times, scaled


# ---------------------------------------------------------------------------
# Output checks


def token_mismatch(expected, got) -> str | None:
    """None when the two token sequences are identical, else what differs."""
    a, b = np.asarray(expected), np.asarray(got)
    if a.shape != b.shape:
        return f"token count {b.shape} != expected {a.shape}"
    diff = np.flatnonzero(a != b)
    if diff.size:
        i = int(diff[0])
        return f"{diff.size} tokens differ, first at {i}: {int(b[i])} != expected {int(a[i])}"
    return None


def check_outcome(ctx: Context, out: Outcome) -> list[str]:
    """Shape, range and configuration checks on one served request."""
    w, vocab = ctx.workload, ctx.model.config.vocab_size
    problems = []
    if out.tokens.shape != (w.gen_len,):
        problems.append(f"generated {out.tokens.shape[0]} tokens, expected {w.gen_len}")
    elif out.tokens.min() < 0 or out.tokens.max() >= vocab:
        problems.append("generated token outside the vocabulary")
    if out.trace.n != w.n or out.trace.strategy != STRATEGY:
        problems.append(f"prefill ran {out.trace.strategy} at n={out.trace.n}, expected n={w.n}")
    n_doc = w.docs_per_request * w.doc_len
    if out.trace.p != min(round(RATIO * w.n), n_doc):
        problems.append(f"recompute budget {out.trace.p} != round({RATIO} * {w.n})")
    expect_kept = w.n if w.evict_capacity is None else min(w.n, w.evict_capacity)
    if out.kept != expect_kept:
        problems.append(f"decode cache kept {out.kept} rows, expected {expect_kept}")
    return problems


# ---------------------------------------------------------------------------
# Quality against the no-reuse oracle


def quality(ctx: Context, free_running: bool) -> dict:
    """Greedy agreement with `vanilla` on the fixed quality sample.

    `token_agree` is teacher-forced: at every position the fused cache is
    fed the vanilla prefix, and the share of positions where both pick the
    same greedy token is reported. Free-running agreement stops meaning
    anything after the first mismatch, since the two decodes then continue
    from different prefixes; it is reported as a diagnostic when asked for.
    """
    w, model = ctx.workload, ctx.model
    gen = RequestGenerator(w, QUALITY_SEED, model.config.vocab_size)
    _store(ctx, gen.system)
    agree, free = [], []
    for index in range(QUALITY_REQUESTS):
        req, segments = _segments(gen, index)
        for ids in req.documents:
            _store(ctx, ids)
        reference = bench.run_strategy(model, segments, "vanilla", ctx.store,
                                       gen_len=w.gen_len).tokens
        patched, logits, _ = fusion.fused_prefill(model, segments, ctx.plan, ctx.store)
        forced, _ = _decode(model, _decode_cache(ctx, patched), logits, segments.n, w.gen_len,
                            forced=reference)
        agree.append(forced == reference)
        if free_running:
            free.append(serve(ctx, index, gen).tokens == reference)
    out = {"requests": QUALITY_REQUESTS, "seed": QUALITY_SEED,
           "token_agree": float(np.mean(agree))}
    if free_running:
        out["free_running_agree"] = float(np.mean(free))
    return out


def strategy_table(ctx: Context) -> dict:
    """TTFT and TPOT of every strategy on the first requests of the run."""
    rows = {s: {"ttft": [], "tpot": []} for s in bench.ALL_STRATEGIES}
    for index in range(TABLE_REQUESTS):
        req, segments = _segments(ctx.gen, index)
        if req.fresh:
            for ids in req.documents:
                _store(ctx, ids)
        for strategy in bench.ALL_STRATEGIES:
            res = bench.run_strategy(ctx.model, segments, strategy, ctx.store, r=RATIO,
                                     gen_len=TABLE_GEN_LEN)
            rows[strategy]["ttft"].append(res.prefill_seconds * 1e3)
            rows[strategy]["tpot"].extend(g * 1e3 for g in res.decode_seconds)
    vanilla_ttft = statistics.median(rows["vanilla"]["ttft"])
    table = {}
    for strategy, r in rows.items():
        ttft = statistics.median(r["ttft"])
        table[strategy] = {
            "ttft_ms": ttft,
            "tpot_ms": statistics.median(r["tpot"]),
            "speedup": vanilla_ttft / ttft,
        }
    return table


# ---------------------------------------------------------------------------
# Tracing


def _chunk_bytes(chunk) -> int:
    return int(chunk.token_ids.nbytes + sum(l.keys.nbytes + l.values.nbytes for l in chunk.layers))


def _attend_counts(args, kwargs, result):
    cache, _layer, q_heads, position = args
    rows = cache.length + (1 if cache.max_position < position else 0)
    # Stored float32 keys and values read for every head.
    return {"rows": rows, "bytes": 2 * rows * q_heads.size * 4}


def trace_targets():
    """(span name, owner, attribute, counter) for every traced public entry."""
    return [
        ("chunkstore.load_chunk", chunkstore, "load_chunk",
         lambda a, k, r: {"bytes": _chunk_bytes(r), "chunk": r.chunk_id.hex()}),
        ("chunkstore.concat_chunks", chunkstore, "concat_chunks", None),
        ("chunkstore.recover_positions", chunkstore, "recover_positions", None),
        ("chunkstore.precompute_chunk", chunkstore, "precompute_chunk", None),
        ("chunkstore.store_chunk", chunkstore, "store_chunk",
         lambda a, k, r: {"bytes": _chunk_bytes(a[0])}),
        ("fusion.fused_prefill", fusion, "fused_prefill", None),
        ("model.attention", kvmodel, "attention", None),
        ("model.prefill_forward", kvmodel, "prefill_forward", None),
        ("model.decode_step", kvmodel, "decode_step", None),
        ("model.DecodeCache.attend", kvmodel.DecodeCache, "attend", _attend_counts),
        ("eviction.evict", eviction, "evict",
         lambda a, k, r: {"kept_share": r.kept / r.original_length}),
        ("eviction.snap_scores", eviction, "snap_scores", None),
    ]


# Modules that call the traced functions; names they imported with
# `from ... import` are rebound as well.
TRACE_NAMESPACES = (chunkstore, fusion, kvmodel, eviction)

STAGES = ("load", "concat", "recover", "layer01", "select", "patch")


def request_layers(ctx: Context, spans, self_times, out: Outcome, seen_chunks: set) -> dict:
    """Per-layer values of one traced request from its spans and its trace."""
    by_name: dict = {}
    for span, st in zip(spans, self_times):
        agg = by_name.setdefault(span.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "spans": []})
        agg["ms"] += span.duration * 1e3
        agg["self_ms"] += st * 1e3
        agg["calls"] += 1
        agg["spans"].append(span)

    def get(name, key="ms"):
        return by_name.get(name, {}).get(key, 0)

    def total(name, counter):
        return sum(s.counts[counter] for s in by_name.get(name, {}).get("spans", []))

    loads = [s.counts["chunk"] for s in by_name.get("chunkstore.load_chunk", {}).get("spans", [])]
    repeats = 0
    for cid in loads:
        repeats += cid in seen_chunks
        seen_chunks.add(cid)
    attends = get("model.DecodeCache.attend", "calls")
    evicts = by_name.get("eviction.evict", {}).get("spans", [])

    cfg, tr = ctx.model.config, out.trace
    fused_ms = get("fusion.fused_prefill")
    request_ms = out.request_s * 1e3
    layer01_gflop = 2 * F.full_layer_flops(cfg, tr.n) / 1e9
    patch_gflop = tr.flops["prefill"] / 1e9 - layer01_gflop
    stage_ms = {s: tr.durations.get(s, 0.0) * 1e3 for s in STAGES}
    return {
        "chunkstore.load_chunk.ms": get("chunkstore.load_chunk"),
        "chunkstore.load_chunk.calls": len(loads),
        "chunkstore.load_chunk.bytes": total("chunkstore.load_chunk", "bytes"),
        "chunkstore.load_chunk.repeat_share": repeats / len(loads) if loads else 0.0,
        "chunkstore.concat_chunks.ms": get("chunkstore.concat_chunks"),
        "chunkstore.recover_positions.ms": get("chunkstore.recover_positions"),
        "chunkstore.precompute_chunk.ms": get("chunkstore.precompute_chunk"),
        "chunkstore.store_chunk.ms": get("chunkstore.store_chunk"),
        "chunkstore.store_chunk.bytes": total("chunkstore.store_chunk", "bytes"),
        "fusion.fused_prefill.ms": fused_ms,
        "fusion.fused_prefill.self_ms": get("fusion.fused_prefill", "self_ms"),
        **{f"fusion.stage.{s}_ms": stage_ms[s] for s in STAGES},
        "fusion.stage.layer01_gflop": layer01_gflop,
        "fusion.stage.layer01_gflop_per_s": layer01_gflop / (stage_ms["layer01"] / 1e3),
        "fusion.stage.patch_gflop": patch_gflop,
        "fusion.stage.patch_gflop_per_s": patch_gflop / (stage_ms["patch"] / 1e3),
        "fusion.stage.select_gflop": tr.flops["scoring"] / 1e9,
        "fusion.stage.layer01_patch_share": (stage_ms["layer01"] + stage_ms["patch"]) / fused_ms,
        "fusion.recompute_rows": tr.p + tr.q_len,
        "fusion.clamped_share": float(tr.clamped),
        "fusion.prefill_gflop": tr.flops["prefill"] / 1e9,
        "fusion.achieved_gflop_per_s": tr.flops["prefill"] / 1e9 / (fused_ms / 1e3),
        "model.attention.ms": get("model.attention"),
        "model.attention.calls": get("model.attention", "calls"),
        "model.prefill_forward.ms": get("model.prefill_forward"),
        "model.prefill_forward.self_ms": get("model.prefill_forward", "self_ms"),
        "model.decode_step.ms": get("model.decode_step"),
        "model.decode_step.self_ms": get("model.decode_step", "self_ms"),
        "model.decode_step.calls": get("model.decode_step", "calls"),
        "model.decode_step.request_share": get("model.decode_step") / request_ms,
        "model.DecodeCache.attend.ms": get("model.DecodeCache.attend"),
        "model.DecodeCache.attend.rows": (
            total("model.DecodeCache.attend", "rows") / attends if attends else 0.0
        ),
        "model.DecodeCache.attend.bytes": total("model.DecodeCache.attend", "bytes"),
        "eviction.evict.ms": get("eviction.evict"),
        "eviction.snap_scores.ms": get("eviction.snap_scores"),
        "eviction.kept_share": evicts[0].counts["kept_share"] if evicts else 1.0,
        "trace.request_ms": request_ms,
    }


def unit_of(name: str) -> str:
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("share") or name.endswith("agree"):
        return "share"
    if name.endswith("calls"):
        return "count"
    if name.endswith("rows"):
        return "rows"
    if name.endswith("speedup"):
        return "x"
    raise KeyError(name)


# ---------------------------------------------------------------------------
# One run


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
        config=None) -> dict:
    """Set up, run the timed loop, check outputs; returns the full report.

    With `trace`, odd-indexed requests run with the span wrappers installed
    and even-indexed ones without, so both halves see the same conditions
    and their difference is the tracing overhead.

    End-to-end timings are reported at the reference host speed (see
    HostProbe): prefill-kind time (ingest, prefill, eviction, set-up) is
    divided by the prefill slowdown the probe measured around it, decode
    steps by the decode slowdown. Each timing entry keeps its wall-clock figure as
    `measured`.
    """
    ctx, setup_times, setup_scaled = setup(workload, seed, work_dir, config, HostProbe(workload))
    recorder = SpanRecorder() if trace else None
    probe = HostProbe(workload)
    outcomes: dict[int, Outcome] = {}
    failures: dict[int, list] = {}
    traced: list[int] = []

    # A traced run needs one untraced and one traced request at least.
    min_requests = 2 if trace else 1
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    index = 0
    while index < min_requests or time.perf_counter() - start < seconds:
        probe()
        try:
            if recorder is not None and index % 2 == 1:
                recorder.request = index
                with instrumented(recorder, trace_targets(), TRACE_NAMESPACES):
                    out = serve(ctx, index)
                traced.append(index)
            else:
                out = serve(ctx, index)
            problems = check_outcome(ctx, out)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            failures[index] = problems
        else:
            outcomes[index] = out
        index += 1
    wall = time.perf_counter() - start
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / index
    rss = peak_rss_mb()
    attempted = index
    slowdowns = probe.slowdowns()

    # Second pass over the first requests: identical token ids required.
    determinism = {}
    for i in range(min(DETERMINISM_REQUESTS, attempted)):
        if i not in outcomes:
            continue
        try:
            problem = token_mismatch(outcomes[i].tokens, serve(ctx, i).tokens)
        except Exception:
            problem = traceback.format_exc(limit=4)
        determinism[i] = problem or "identical"
        if problem:
            failures[i] = [f"second pass: {problem}"]
            del outcomes[i]

    attempted += QUALITY_REQUESTS
    try:
        qual = quality(ctx, free_running=trace)
        failed = len(failures)
    except Exception:
        qual = {"error": traceback.format_exc(limit=4)}
        failed = len(failures) + QUALITY_REQUESTS

    untraced = {i: o for i, o in sorted(outcomes.items()) if i not in traced}
    tokens = sum(o.tokens.size for o in outcomes.values())

    def timings(scaled: bool) -> dict:
        ttft, tpot, request = [], [], []
        busy = 0.0
        for i, o in outcomes.items():
            prefill, decode = slowdowns[i] if scaled else (1.0, 1.0)
            decode_s = sum(o.tpot_s)
            request_s = (o.request_s - decode_s) / prefill + decode_s / decode
            busy += request_s
            if i in untraced:
                ttft.append(o.ttft_s * 1e3 / prefill)
                tpot.extend(g * 1e3 / decode for g in o.tpot_s)
                request.append(request_s * 1e3)
        return {
            "ttft_p50_ms": summary(ttft),
            "ttft_tail_ms": tail(ttft, workload.ttft_tail_pct),
            "tpot_p50_ms": summary(tpot),
            "tpot_tail_ms": tail(tpot, TPOT_TAIL_PCT),
            "request_p50_ms": summary(request),
            "tokens_per_s": {"value": tokens / busy, "samples": len(outcomes), "busy_s": busy},
            "setup_s": summary(setup_scaled if scaled else setup_times),
        }

    e2e = timings(scaled=True)
    for name, entry in timings(scaled=False).items():
        e2e[name]["measured"] = entry["value"]
    e2e["token_agree"] = {"value": qual.get("token_agree", 0.0),
                          "samples": QUALITY_REQUESTS * workload.gen_len}
    e2e["peak_rss_mb"] = {"value": rss, "samples": 1}
    units = {"ttft_p50_ms": "ms", "ttft_tail_ms": "ms", "tpot_p50_ms": "ms",
             "tpot_tail_ms": "ms", "request_p50_ms": "ms", "tokens_per_s": "1/s",
             "token_agree": "share", "peak_rss_mb": "MB", "setup_s": "s"}
    for name, entry in e2e.items():
        entry["unit"] = units[name]

    report = {
        "samples_ms": {
            "ttft": [o.ttft_s * 1e3 for o in untraced.values()],
            "tpot": [g * 1e3 for o in untraced.values() for g in o.tpot_s],
            "request": [o.request_s * 1e3 for o in untraced.values()],
            "host_slowdowns": [slowdowns[i] for i in untraced],
        },
        "loop": {"kind": "closed", "clients": 1, "attempted": attempted,
                 "failed": failed, "failed_frac": failed / attempted,
                 "wall_s": wall, "traced_requests": len(traced),
                 "minor_faults_per_request": faults},
        "host": probe.report(),
        "end_to_end": e2e,
        "quality": qual,
        "checks": {
            "determinism": {str(k): v for k, v in determinism.items()},
            "failures": {str(k): v for k, v in failures.items()},
            "tokens_sha256": hashlib.sha256(
                b"".join(outcomes[i].tokens.tobytes() for i in sorted(determinism)
                         if i in outcomes)
            ).hexdigest(),
        },
    }
    if recorder is not None:
        report["per_layer"], report["strategy_table"] = _per_layer(
            ctx, recorder, outcomes, traced, list(untraced.values()))
        report["per_layer"]["quality.free_running_agree"] = {
            "value": qual.get("free_running_agree", 0.0), "unit": "share",
            "samples": QUALITY_REQUESTS * workload.gen_len}
        report["spans"] = recorder.to_json()
    shutil.rmtree(ctx.store)
    return report


def _per_layer(ctx, recorder, outcomes, traced, untraced):
    by_request: dict = {}
    self_times = recorder.self_times()
    for span, st in zip(recorder.spans, self_times):
        spans, sts = by_request.setdefault(span.request, ([], []))
        spans.append(span)
        sts.append(st)
    seen: set = set()
    per_request = [
        request_layers(ctx, *by_request.get(i, ([], [])), outcomes[i], seen)
        for i in traced if i in outcomes
    ]
    layers = {}
    for name in per_request[0] if per_request else []:
        samples = [r[name] for r in per_request]
        layers[name] = summary(samples)
    untraced_ms = summary([o.request_s * 1e3 for o in untraced])["value"]
    traced_ms = layers.get("trace.request_ms", {}).get("value", math.nan)
    layers["trace.untraced_request_ms"] = {"value": untraced_ms, "samples": len(untraced)}
    layers["trace.overhead_share"] = {"value": traced_ms / untraced_ms - 1.0}

    table = strategy_table(ctx)
    for strategy, row in table.items():
        for key, value in row.items():
            layers[f"strategy.{strategy}.{key}"] = {"value": value,
                                                     "samples": TABLE_REQUESTS}
    for name, entry in layers.items():
        entry["unit"] = unit_of(name)
    return layers, table
