"""Quality harness: oracle comparisons, FLOP accounting, reports.

`run_bench` writes one report row per (strategy, r, eviction). Quality at
desk scale is token-level agreement with the no-reuse greedy decode, which
upper-bounds every reuse strategy; agreement, attention-map losses and hit
rates are averaged over seeds. TTFT/TPOT per strategy are measured by the
benchmark in `perfbench/`, from `StrategyRun.prefill_seconds` and
`decode_seconds`.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import flops as F
from .chunkstore import ChunkStore, FusedCache, precompute_chunk, store_chunk
from .errors import ConfigError, InputError
from .eviction import CompactedCache, EvictionPolicy, evict
from .fusion import (
    STRATEGIES,
    FusionPlan,
    FusionTrace,
    InputSegments,
    RecomputeSet,
    _top_p,
    fused_prefill,
    hit_rate,
    question_attention,
)
from .model import (
    DecodeCache,
    Model,
    ModelConfig,
    PrefillResult,
    _is_int,
    _is_number,
    build_model,
    decode_step,
    greedy_token,
    prefill_forward,
)

ALL_STRATEGIES = ("vanilla",) + STRATEGIES

CSV_COLUMNS = [
    "strategy",
    "r",
    "evict",
    "n",
    "L",
    "flops_prefill",
    "attn_l2_by_layer",
    "hit_rate",
    "first_token_agree",
    "gen_agree_frac",
    "peak_kv_floats",
]


# ---------------------------------------------------------------------------
# Synthetic inputs


@dataclass(frozen=True)
class InputRecipe:
    n_doc_chunks: int
    chunk_len: int
    system_len: int
    question_len: int
    data_seed: int = 0
    kind: str = "uniform"  # or "needle"
    needle_len: int = 8

    def __post_init__(self) -> None:
        for name in ("n_doc_chunks", "chunk_len", "system_len", "question_len", "needle_len"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not (_is_int(self.data_seed) and 0 <= self.data_seed < 2**64):
            raise ConfigError(f"data_seed must be an integer in [0, 2**64), got {self.data_seed!r}")
        if self.kind not in ("uniform", "needle"):
            raise ConfigError(f"unknown input kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.system_len + self.n_doc_chunks * self.chunk_len + self.question_len


def _draw_ids(seed: int, stream: int, n: int, vocab: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return gen.integers(0, vocab, size=n).astype(np.int64)


def build_instance(recipe: InputRecipe, config: ModelConfig) -> InputSegments:
    """Deterministic synthetic request; streams keyed per segment.

    The needle kind plants a run of one distinctive token in the middle of
    a single document chunk and ends the question with that token, a small
    stand-in for retrieval-style tasks. It shapes the input only; nothing
    is asserted about the continuation.
    """
    vocab = config.vocab_size
    seed = recipe.data_seed
    system = _draw_ids(seed, 0, recipe.system_len, vocab)
    docs = [
        _draw_ids(seed, 1 + i, recipe.chunk_len, vocab) for i in range(recipe.n_doc_chunks)
    ]
    question = _draw_ids(seed, 1 + recipe.n_doc_chunks, recipe.question_len, vocab)
    if recipe.kind == "needle":
        marker = vocab - 1
        target = seed % recipe.n_doc_chunks
        run = min(recipe.needle_len, recipe.chunk_len)
        start = (recipe.chunk_len - run) // 2
        docs[target][start : start + run] = marker
        tail = min(max(1, recipe.needle_len // 2), recipe.question_len)
        question[-tail:] = marker
    return InputSegments(system=system, documents=docs, question=question)


def populate_store(model: Model, segments: InputSegments, store) -> list[str]:
    """Precompute and persist every context chunk into `store`, a
    `ChunkStore` or a directory path, as for `store_chunk`; returns hex ids
    in order."""
    ids = []
    for part in segments.context_chunks():
        chunk = precompute_chunk(part, model)
        store_chunk(chunk, store)
        ids.append(chunk.chunk_id.hex())
    return ids


# ---------------------------------------------------------------------------
# Metrics


def attention_l2_loss(
    patched: FusedCache,
    vanilla: PrefillResult,
    layer: int,
) -> float:
    """Frobenius distance between attention maps at one layer.

    The probe rows are the question span. Both maps use the oracle's true
    queries for those rows, one against the oracle keys and one against
    the supplied cache, so the number isolates cache quality.
    """
    if vanilla.queries is None:
        raise InputError("vanilla result must be run with record_queries=True")
    n_layers = len(vanilla.caches)
    if not (0 <= layer < n_layers):
        raise InputError(f"layer {layer} out of range [0, {n_layers})")
    if vanilla.caches[layer].length != patched.n:
        raise InputError("caches cover different token sequences")
    segments = patched.segments
    q_span = segments.question_span
    q = vanilla.queries[layer][:, q_span.start:q_span.stop]
    w_true = question_attention(q, vanilla.caches[layer].keys, segments)
    w_cache = question_attention(q, patched.keys[layer], segments)
    return float(np.linalg.norm(w_true - w_cache))


def oracle_top_p(scores_doc: np.ndarray, p: int, segments) -> RecomputeSet:
    """Attention-oracle selection at budget p from recorded layer-1 scores."""
    return RecomputeSet(indices=_top_p(scores_doc, segments.document_offsets(), p), p=p)


# ---------------------------------------------------------------------------
# Running one strategy


@dataclass
class StrategyRun:
    strategy: str
    evicted: bool
    tokens: np.ndarray
    first_logits: np.ndarray
    trace: FusionTrace | None
    patched: FusedCache | None
    cache: DecodeCache | CompactedCache
    prefill_seconds: float
    decode_seconds: list[float]


def _decode_loop(model, cache, first_logits, start_pos: int, length: int):
    tokens = [greedy_token(first_logits)]
    seconds = []
    for step in range(length - 1):
        t0 = time.perf_counter()
        logits = decode_step(model, cache, tokens[-1], start_pos + step)
        seconds.append(time.perf_counter() - t0)
        tokens.append(greedy_token(logits))
    return np.asarray(tokens, dtype=np.int64), seconds


def check_run_args(
    strategy: str, *, r: float, head_tail_k: int, gen_len: int,
    eviction: EvictionPolicy | None,
) -> FusionPlan | None:
    """The checks of `run_strategy` that need its arguments alone, in its
    order, so a caller can make them before reading any chunk. Returns the
    fused strategy's plan, None for vanilla."""
    if strategy not in ALL_STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if gen_len < 1:
        raise InputError("gen_len must be >= 1")
    if eviction is not None and strategy in ("vanilla", "full"):
        raise ConfigError(f"eviction needs a strategy that recovers positions, not {strategy}")
    return None if strategy == "vanilla" else FusionPlan(strategy, r=r, head_tail_k=head_tail_k)


def run_strategy(
    model: Model,
    segments: InputSegments,
    strategy: str,
    store,
    *,
    r: float = 0.15,
    head_tail_k: int = 20,
    gen_len: int = 16,
    eviction: EvictionPolicy | None = None,
) -> StrategyRun:
    """Prefill under one strategy, optionally evict after the first token
    (fused strategies only), then greedy-decode `gen_len` tokens in total.
    `store` is a `ChunkStore` or a directory path, as for `fused_prefill`."""
    plan = check_run_args(strategy, r=r, head_tail_k=head_tail_k, gen_len=gen_len,
                          eviction=eviction)
    if eviction is not None:
        eviction.check_protected(len(segments.system) + len(segments.question))
    n = segments.n
    if plan is None:
        t0 = time.perf_counter()
        res = prefill_forward(model, segments.all_ids())
        prefill_s = time.perf_counter() - t0
        cache = DecodeCache.from_layer_kvs(model.config, res.caches)
        trace = None
        patched = None
        first_logits = res.logits
    else:
        t0 = time.perf_counter()
        patched, first_logits, trace = fused_prefill(model, segments, plan, store)
        prefill_s = time.perf_counter() - t0
        cache = patched.to_decode_cache()
    if eviction is not None:
        # The first token comes from the prefill logits; eviction runs once
        # before any decode step, so generated rows are never dropped.
        cache = evict(patched, eviction)
        trace.eviction = {"capacity": eviction.capacity, **cache.summary()}
    tokens, decode_s = _decode_loop(model, cache, first_logits, n, gen_len)
    return StrategyRun(
        strategy=strategy,
        evicted=eviction is not None,
        tokens=tokens,
        first_logits=first_logits,
        trace=trace,
        patched=patched,
        cache=cache,
        prefill_seconds=prefill_s,
        decode_seconds=decode_s,
    )


# ---------------------------------------------------------------------------
# Bench configuration and report


@dataclass
class BenchConfig:
    model: ModelConfig
    recipe: InputRecipe
    strategies: list[str] = field(default_factory=lambda: list(ALL_STRATEGIES))
    r_grid: list[float] = field(default_factory=lambda: [0.15])
    head_tail_k: int = 20
    eviction: EvictionPolicy | None = None
    gen_len: int = 16
    seeds: list[int] = field(default_factory=lambda: [0])
    acceptance: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        def count(value, low: int) -> bool:
            return _is_int(value) and value >= low

        for name, ok, want in (
            ("strategies", _list_of(self.strategies, ALL_STRATEGIES.__contains__),
             f"a non-empty list of names from {ALL_STRATEGIES}"),
            ("r_grid", _list_of(self.r_grid, lambda r: _is_number(r) and 0.0 <= r <= 1.0),
             "a non-empty list of numbers in [0, 1]"),
            ("seeds", _list_of(self.seeds, _is_int), "a non-empty list of integers"),
            ("gen_len", count(self.gen_len, 1), "an integer >= 1"),
            ("head_tail_k", count(self.head_tail_k, 0), "an integer >= 0"),
        ):
            if not ok:
                value = getattr(self, name)
                raise ConfigError(f"bench config {name!r} must be {want}, got {value!r}")
        protected = self.recipe.system_len + self.recipe.question_len
        if self.eviction is not None and self.eviction.capacity <= protected:
            raise ConfigError(
                f"bench config 'eviction': capacity {self.eviction.capacity} must exceed the "
                f"{protected} protected rows (recipe system_len + question_len)"
            )
        try:
            self.seed_recipes()
        except ConfigError as exc:
            raise ConfigError(f"bench config 'seeds': recipe data_seed + seed: {exc}") from exc
        if not isinstance(self.acceptance, list):
            raise ConfigError("bench config 'acceptance' must be a list")
        rows = _known_rows(self)
        for check in self.acceptance:
            _check_assertion(check, rows)

    def seed_recipes(self) -> list[InputRecipe]:
        """One recipe per seed s, its data_seed shifted by s."""
        return [replace(self.recipe, data_seed=self.recipe.data_seed + s) for s in self.seeds]

    @classmethod
    def from_dict(cls, data: dict) -> "BenchConfig":
        if not isinstance(data, dict):
            raise ConfigError("bench config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown bench config keys: {sorted(unknown)}")
        if "model" not in data or "recipe" not in data:
            raise ConfigError("bench config requires 'model' and 'recipe'")
        kwargs = dict(data)
        kwargs["model"] = _from_fields(ModelConfig, data["model"], "model")
        kwargs["recipe"] = _from_fields(InputRecipe, data["recipe"], "recipe")
        if data.get("eviction") is not None:
            kwargs["eviction"] = _from_fields(EvictionPolicy, data["eviction"], "eviction")
        return cls(**kwargs)


def _list_of(value, item_ok) -> bool:
    """A non-empty list whose every item passes `item_ok`."""
    return isinstance(value, list) and len(value) > 0 and all(item_ok(v) for v in value)


def _from_fields(cls, data, section: str):
    """Build a config dataclass from one JSON object; bad keys are a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"bench config {section!r} must be an object")
    try:
        return cls(**data)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"bench config {section!r}: {exc}") from exc


@dataclass
class BenchReport:
    rows: list[dict]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in CSV_COLUMNS})

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"rows": self.rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(value, places=6) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{places}g}"
    return str(value)


def _row_key(strategy: str, r: float | None, evicted: bool):
    return (strategy, None if r is None else round(float(r), 10), evicted)


def _expand_rows(config: BenchConfig) -> list[tuple[str, float | None, bool]]:
    rows = []
    for strategy in config.strategies:
        if strategy in ("attention_aware", "kv_diff"):
            variants = [(strategy, r) for r in config.r_grid]
        else:
            variants = [(strategy, None)]
        for strategy_, r in variants:
            rows.append((strategy_, r, False))
            if config.eviction is not None and strategy_ == "attention_aware":
                rows.append((strategy_, r, True))
    return rows


def _known_rows(config: BenchConfig) -> list[dict]:
    """Each report row's columns that are known before anything runs."""
    return [
        {"strategy": strategy, "r": _fmt(r), "evict": "true" if evicted else "false",
         "n": config.recipe.n, "L": config.model.n_layers}
        for strategy, r, evicted in _expand_rows(config)
    ]


def _seed_metrics(model: Model, config: BenchConfig, recipe: InputRecipe, row_keys) -> dict:
    """Quality metrics for one seed's instance; shaped for cross-seed averaging."""
    model_cfg = config.model
    segments = build_instance(recipe, model_cfg)
    n = segments.n
    out: dict = {}
    with tempfile.TemporaryDirectory() as directory:
        store = ChunkStore(directory)  # this instance's own, not the process's store
        populate_store(model, segments, store)
        oracle = prefill_forward(model, segments.all_ids(), record_queries=True)
        van_cache = DecodeCache.from_layer_kvs(model_cfg, oracle.caches)
        vanilla_tokens, _ = _decode_loop(model, van_cache, oracle.logits, n, config.gen_len)
        for strategy, r, evicted in row_keys:
            if strategy == "vanilla":
                run_tokens = vanilla_tokens
                losses = [0.0] * model_cfg.n_layers
                hit = None
                flops_val = F.vanilla_flops(model_cfg, n)
                resident = van_cache.resident_floats()
            else:
                run = run_strategy(
                    model, segments, strategy, store,
                    r=(r if r is not None else 0.15),
                    head_tail_k=config.head_tail_k,
                    gen_len=config.gen_len,
                    eviction=(config.eviction if evicted else None),
                )
                run_tokens = run.tokens
                losses = [
                    attention_l2_loss(run.patched, oracle, l) for l in range(model_cfg.n_layers)
                ]
                if strategy in ("attention_aware", "kv_diff", "head_tail"):
                    oracle_sel = oracle_top_p(
                        run.trace.scores_doc, run.trace.p, run.patched.segments
                    )
                    hit = hit_rate(run.patched.recompute, oracle_sel)
                else:
                    hit = None
                flops_val = run.trace.flops["prefill"]
                resident = run.cache.resident_floats()
            out[_row_key(strategy, r, evicted)] = {
                "first_agree": float(run_tokens[0] == vanilla_tokens[0]),
                "gen_agree": float(np.mean(run_tokens == vanilla_tokens)),
                "losses": losses,
                "hit": hit,
                "flops": flops_val,
                "peak_kv": int(resident),
            }
    return out


def run_bench(config: BenchConfig, out_dir=None) -> BenchReport:
    """One report row per (strategy, r, eviction); CSV/JSON written if out_dir."""
    model = build_model(config.model)
    row_keys = _expand_rows(config)
    per_seed = [_seed_metrics(model, config, recipe, row_keys) for recipe in config.seed_recipes()]

    rows = []
    for key, known in zip(row_keys, _known_rows(config)):
        per = [m[key] for m in per_seed]
        losses = np.mean([p["losses"] for p in per], axis=0)
        hits = [p["hit"] for p in per if p["hit"] is not None]
        rows.append(
            {
                **known,
                "flops_prefill": _fmt(float(np.mean([p["flops"] for p in per]))),
                "attn_l2_by_layer": ";".join(_fmt(v) for v in losses),
                "hit_rate": _fmt(float(np.mean(hits)) if hits else None),
                "first_token_agree": _fmt(float(np.mean([p["first_agree"] for p in per]))),
                "gen_agree_frac": _fmt(float(np.mean([p["gen_agree"] for p in per]))),
                "peak_kv_floats": int(np.max([p["peak_kv"] for p in per])),
            }
        )
    report = BenchReport(rows=rows)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, "report.csv"))
        report.write_json(os.path.join(out_dir, "report.json"))
    return report


# ---------------------------------------------------------------------------
# Acceptance blocks (cmd_bench exit-code contract)

_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


def _find_row(rows: list[dict], where: dict) -> dict:
    def same(a, b) -> bool:
        return str(a).lower() == str(b).lower()

    matches = [row for row in rows if all(same(row.get(k), v) for k, v in where.items())]
    if len(matches) != 1:
        raise ConfigError(f"selector {where} matched {len(matches)} rows, need exactly 1")
    return matches[0]


# Report columns an assertion can compare as numbers.
_ASSERTABLE = [c for c in CSV_COLUMNS if c not in ("strategy", "evict", "attn_l2_by_layer")]
# Report columns a selector can name: those known before the bench runs.
_SELECTABLE = ("strategy", "r", "evict", "n", "L")


def _check_assertion(check, rows: list[dict]) -> None:
    """Shape of one acceptance entry, and each of its selectors picking
    exactly one of `rows`, the report rows as known before the run."""
    if not isinstance(check, dict):
        raise ConfigError(f"acceptance entry {check!r} must be an object")
    label = f"acceptance entry {check.get('name', check.get('metric'))!r}"
    if check.get("metric") not in _ASSERTABLE:
        raise ConfigError(f"{label}: metric must be one of {_ASSERTABLE}")
    if check.get("op") not in _OPS:
        raise ConfigError(f"{label}: op must be one of {sorted(_OPS)}")
    if not isinstance(check.get("where"), dict):
        raise ConfigError(f"{label}: 'where' must be an object")
    has_value = "value" in check
    if has_value == ("where_right" in check):
        raise ConfigError(f"{label}: give exactly one of 'value' or 'where_right'")
    if has_value:
        if not _is_number(check["value"]):
            raise ConfigError(f"{label}: 'value' must be a number")
    elif not isinstance(check["where_right"], dict):
        raise ConfigError(f"{label}: 'where_right' must be an object")
    for selector in [check["where"]] + ([] if has_value else [check["where_right"]]):
        if not set(selector) <= set(_SELECTABLE):
            raise ConfigError(f"{label}: selector {selector} may only name {_SELECTABLE}")
        try:
            _find_row(rows, selector)
        except ConfigError as exc:
            raise ConfigError(f"{label}: {exc}") from None


def _cell(rows: list[dict], where: dict, metric: str) -> float:
    value = _find_row(rows, where)[metric]
    if value == "":
        raise ConfigError(f"{metric} is blank in the row selected by {where}")
    return float(value)


def evaluate_acceptance(report: BenchReport, assertions: list[dict]) -> list[dict]:
    """Each assertion compares a row metric against a constant or another row."""
    results = []
    for check in assertions:
        metric = check["metric"]
        op = _OPS[check["op"]]
        left = _cell(report.rows, check["where"], metric)
        if "where_right" in check:
            right = _cell(report.rows, check["where_right"], metric)
        else:
            right = float(check["value"])
        ok = bool(op(left, right))
        results.append(
            {
                "name": check.get("name", f"{metric} {check['op']}"),
                "ok": ok,
                "left": left,
                "right": right,
                "op": check["op"],
            }
        )
    return results
