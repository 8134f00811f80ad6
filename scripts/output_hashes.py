"""Print a SHA-256 for every output array of the model and fusion paths.

Run against two source trees and diff the output to check that a refactor
kept every result bit for bit:

    python3 scripts/output_hashes.py path/to/src > a.txt
    python3 scripts/output_hashes.py path/to/other/src > b.txt
    diff a.txt b.txt

Covers `prefill_forward` (caches, queries, last-row logits), the raw keys
of `precompute_chunk` over the whole sequence, the
keys `rotate_chunk_local` gives each context chunk, every
`fused_prefill` strategy at r in {0, 0.15, 1} (keys, values, question
queries, selection, scores, first logits, the prefill, vanilla and scoring
FLOP figures of the trace, the returned cache's `rope_recovered` flag,
printed as it is, `layers01_vanilla`, whether its layer-0 and layer-1
keys and values are `prefill_forward`'s bit for bit, and
`system_vanilla`, whether its keys and values over the system span are
`prefill_forward`'s bit for bit at every layer), every strategy at
r=0.15 run twice on one
fresh `ChunkStore`, first reading its chunk files and then serving them
resident (keys, values, question queries, scores, first logits; a tree
without a `ChunkStore` is given the directory), greedy decoding with and
without eviction, and the pooled eviction scores (`snap_scores`) of the four strategies that
recover positions, at a small test shape and at the rag_shared shape; the
logits of every step of a long greedy decode at the test shape, with and
without eviction, long enough that the decode cache grows three times; the
logits of greedy decodes that start far past the context, at positions
100,000 and 1,000,000, with and without eviction, at both shapes; the
same arrays as the resident runs, for every strategy on one more fresh
store, over a 3-document request read twice, then over a request that
shares only its first document with it and then over one that shares
only its system chunk, so that the second read reuses the layer-0 rows of
every cached context prefix, the third only some of them and the fourth
none (a first-document miss after a shared system, as in ingest_cold,
whose whole tiles keep their stored entries and have no prefix entry);
for every strategy at r=0.15, the same arrays for an ingest-shaped
request, whose two new documents are written into one fresh store by
`store_chunk` and served from it as written, without a read ("ingest
written"), and then read from their files by another fresh store ("ingest
read"), at both shapes: each written line must equal its read line (a
tree whose `store_chunk` takes only a directory writes them there); then
every `run_bench` report row for a 3-seed needle config with two r values
and eviction. The timing columns that older trees still report are left
out, so those trees hash the same rows.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import tempfile

import numpy as np

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")

from kvfuse import bench, chunkstore, fusion  # noqa: E402
from kvfuse import model as M  # noqa: E402
from kvfuse.eviction import EvictionPolicy, evict, snap_scores  # noqa: E402

SHAPES = {
    # name: (model config, system length, document lengths, question length, eviction capacity)
    "test": (dict(n_layers=4, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=21),
             8, (12, 10), 5, 24),
    "rag_shared": (dict(n_layers=8, n_heads=4, head_dim=16, d_ff=256, vocab_size=512, seed=101),
                   480, (480, 480), 24, 768),
}
RATIOS = (0.0, 0.15, 1.0)
GEN_LEN = 8
LONG_DECODE = 256  # steps: from 35 rows (24 after eviction) past three cache growths
FAR_STARTS = (100_000, 1_000_000)  # decode positions where the rotation angles are large
FAR_DECODE = 16  # steps from each far start
CHAIN_DOC_LEN = {"test": 40, "rag_shared": 480}  # whole tiles at either shape
BENCH_CONFIG = {
    "model": SHAPES["test"][0],
    "recipe": {"n_doc_chunks": 2, "chunk_len": 24, "system_len": 12, "question_len": 6,
               "data_seed": 3, "kind": "needle"},
    "r_grid": [0.1, 0.3],
    "eviction": {"capacity": 48},
    "gen_len": GEN_LEN,
    "seeds": [0, 1, 2],
}
TIMING_COLUMNS = ("ttft_ms", "tpot_ms")  # reported by older trees only


def digest(array) -> str:
    a = np.ascontiguousarray(np.asarray(array))
    return hashlib.sha256(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes()).hexdigest()


def emit(label: str, array) -> None:
    print(f"{label} {digest(array)}")


def emit_decode(tag: str, model, segments, store, capacity: int, start: int,
                steps: int) -> None:
    plan = fusion.FusionPlan("attention_aware", r=0.15)
    for evicted in (False, True):
        patched, logits, _ = fusion.fused_prefill(model, segments, plan, store)
        cache = (evict(patched, EvictionPolicy(capacity=capacity)) if evicted
                 else patched.to_decode_cache())
        for step in range(steps):
            logits = M.decode_step(model, cache, M.greedy_token(logits), start + step)
            emit(f"{tag} evict={evicted} step {step} logits", logits)
        emit(f"{tag} evict={evicted} cache",
             np.stack([cache.keys_view(l) for l in range(model.config.n_layers)]))


def emit_prefill(tag: str, model, segments, strategy: str, store) -> None:
    plan = fusion.FusionPlan(strategy, r=0.15)
    patched, logits, trace = fusion.fused_prefill(model, segments, plan, store)
    emit(f"{tag} keys", patched.keys)
    emit(f"{tag} values", patched.values)
    emit(f"{tag} question_queries", patched.question_queries)
    scores = trace.scores_doc
    emit(f"{tag} scores", np.zeros(0) if scores is None else scores)
    emit(f"{tag} first_logits", logits)


def emit_chain(name: str, model, segments, store) -> None:
    vocab = model.config.vocab_size
    a, b, c = (bench._draw_ids(7, 10 + i, CHAIN_DOC_LEN[name], vocab) for i in range(3))
    three = fusion.InputSegments(segments.system, [a, b, c], segments.question)
    first_shared = fusion.InputSegments(segments.system, [a, c, b], segments.question)
    system_shared = fusion.InputSegments(segments.system, [b, a, c], segments.question)
    bench.populate_store(model, three, store)
    for strategy in fusion.STRATEGIES:
        fresh = (chunkstore.ChunkStore(store) if hasattr(chunkstore, "ChunkStore")
                 else store)
        for run in ("miss", "hit"):
            emit_prefill(f"{name} {strategy} r=0.15 3 documents {run}", model, three, strategy,
                         fresh)
        emit_prefill(f"{name} {strategy} r=0.15 first document shared", model, first_shared,
                     strategy, fresh)
        emit_prefill(f"{name} {strategy} r=0.15 system shared", model, system_shared,
                     strategy, fresh)


def emit_ingest(name: str, model, segments, store) -> None:
    vocab = model.config.vocab_size
    docs = [bench._draw_ids(7, 20 + i, len(d), vocab) for i, d in enumerate(segments.documents)]
    ingest = fusion.InputSegments(segments.system, docs, segments.question)
    writes_through = "store" in inspect.signature(chunkstore.store_chunk).parameters
    for strategy in fusion.STRATEGIES:
        written = chunkstore.ChunkStore(store)
        for part in ingest.context_chunks():
            chunkstore.store_chunk(chunkstore.precompute_chunk(part, model),
                                   written if writes_through else store)
        emit_prefill(f"{name} {strategy} r=0.15 ingest written", model, ingest, strategy,
                     written)
        emit_prefill(f"{name} {strategy} r=0.15 ingest read", model, ingest, strategy,
                     chunkstore.ChunkStore(store))


def main() -> None:
    for name, (cfg, sys_len, doc_lens, q_len, capacity) in SHAPES.items():
        model = M.build_model(M.ModelConfig(**cfg))
        vocab = model.config.vocab_size
        segments = fusion.InputSegments(
            system=bench._draw_ids(7, 0, sys_len, vocab),
            documents=[bench._draw_ids(7, 1 + i, n, vocab) for i, n in enumerate(doc_lens)],
            question=bench._draw_ids(7, 99, q_len, vocab),
        )
        res = M.prefill_forward(model, segments.all_ids(), record_queries=True)
        whole = chunkstore.precompute_chunk(segments.all_ids(), model)
        for l, cache in enumerate(res.caches):
            emit(f"{name} prefill L{l} keys", cache.keys)
            emit(f"{name} prefill L{l} values", cache.values)
            emit(f"{name} prefill L{l} raw_keys", whole.layers[l].keys)
            emit(f"{name} prefill L{l} queries", res.queries[l])
        emit(f"{name} prefill logits", res.logits)
        for i, part in enumerate(segments.context_chunks()):
            rotated = chunkstore.rotate_chunk_local(chunkstore.precompute_chunk(part, model),
                                                    model.config)
            emit(f"{name} rotate_chunk_local chunk {i} keys",
                 np.stack([layer.keys for layer in rotated.layers]))
        with tempfile.TemporaryDirectory() as store:
            bench.populate_store(model, segments, store)
            for strategy in fusion.STRATEGIES:
                for r in RATIOS:
                    plan = fusion.FusionPlan(strategy, r=r)
                    patched, logits, trace = fusion.fused_prefill(model, segments, plan, store)
                    tag = f"{name} {strategy} r={r}"
                    emit(f"{tag} keys", patched.keys)
                    emit(f"{tag} values", patched.values)
                    emit(f"{tag} question_queries", patched.question_queries)
                    emit(f"{tag} selected", patched.recompute.indices)
                    emit(f"{tag} patched_offsets", patched.patched_offsets)
                    scores = trace.scores_doc
                    emit(f"{tag} scores", np.zeros(0) if scores is None else scores)
                    emit(f"{tag} first_logits", logits)
                    for kind in ("prefill", "vanilla", "scoring"):
                        print(f"{tag} flops_{kind} {trace.flops[kind]!r}")
                    print(f"{tag} rope_recovered {patched.rope_recovered}")
                    exact = all(np.array_equal(patched.keys[l], res.caches[l].keys)
                                and np.array_equal(patched.values[l], res.caches[l].values)
                                for l in (0, 1))
                    print(f"{tag} layers01_vanilla {exact}")
                    system = np.s_[:, :sys_len]
                    exact = all(np.array_equal(patched.keys[l][system], res.caches[l].keys[system])
                                and np.array_equal(patched.values[l][system],
                                                   res.caches[l].values[system])
                                for l in range(model.config.n_layers))
                    print(f"{tag} system_vanilla {exact}")
            for strategy in fusion.STRATEGIES:
                fresh = (chunkstore.ChunkStore(store) if hasattr(chunkstore, "ChunkStore")
                         else store)
                for run in ("miss", "hit"):
                    emit_prefill(f"{name} {strategy} r=0.15 store {run}", model, segments,
                                 strategy, fresh)
            for strategy in bench.ALL_STRATEGIES:
                run = bench.run_strategy(model, segments, strategy, store, gen_len=GEN_LEN)
                emit(f"{name} {strategy} tokens", run.tokens)
            for strategy in fusion.STRATEGIES[:4]:
                run = bench.run_strategy(model, segments, strategy, store, gen_len=GEN_LEN,
                                         eviction=EvictionPolicy(capacity=capacity))
                emit(f"{name} {strategy} evicted tokens", run.tokens)
                emit(f"{name} {strategy} snap_scores", snap_scores(run.patched))
                emit(f"{name} {strategy} evicted cache",
                     np.stack([run.cache.keys_view(l) for l in range(model.config.n_layers)]))
            if name == "test":
                emit_decode("test long decode", model, segments, store, capacity,
                            segments.n, LONG_DECODE)
            for start in FAR_STARTS:
                emit_decode(f"{name} decode from {start}", model, segments, store, capacity,
                            start, FAR_DECODE)
            emit_chain(name, model, segments, store)
            if hasattr(chunkstore, "ChunkStore"):
                emit_ingest(name, model, segments, store)
    report = bench.run_bench(bench.BenchConfig.from_dict(BENCH_CONFIG))
    for row in report.rows:
        kept = {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
        blob = json.dumps(kept, sort_keys=True).encode()
        print(f"bench {row['strategy']} r={row['r']} evict={row['evict']} "
              f"{hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
