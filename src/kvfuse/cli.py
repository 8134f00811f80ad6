"""Command-line front end.

Subcommands: `precompute` builds per-chunk KV files from a context,
`generate` answers a question against a precomputed store, `bench` runs
the quality harness, `inspect` dumps and verifies one chunk file.

Exit codes: 0 success, 1 usage or configuration problem, 2 missing or
corrupt stored data, 3 a bench acceptance assertion failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from .bench import BenchConfig, check_run_args, evaluate_acceptance, run_bench, run_strategy
from .chunkstore import (
    DEFAULT_CHUNK_LEN,
    ChunkStore,
    chunk_id,
    precompute_chunk,
    read_header,
    remove_orphaned_temps,
    split_into_chunks,
    store_chunk,
    verify_chunk_file,
)
from .errors import (
    AssertionFailure,
    ChunkNotFoundError,
    ConfigError,
    ContractViolation,
    FingerprintError,
    InputError,
    IntegrityError,
    ShapeError,
)
from .eviction import EvictionPolicy
from .fusion import STRATEGIES, InputSegments
from .model import ModelConfig, _check_tokens, _is_int, build_model

BOS = 256
EOS = 257
BYTE_VOCAB = 258  # 256 byte values plus the two specials
_HEX_ID = re.compile(r"[0-9a-fA-F]{64}")


def encode_bytes(data: bytes, config: ModelConfig, *, bos=False, eos=False) -> np.ndarray:
    """Byte-level fallback tokenizer: one id per byte value."""
    if config.vocab_size < BYTE_VOCAB:
        raise ConfigError(
            f"byte tokenizer needs vocab_size >= {BYTE_VOCAB}, model has {config.vocab_size}"
        )
    ids = list(data)
    if bos:
        ids.insert(0, BOS)
    if eos:
        ids.append(EOS)
    return np.asarray(ids, dtype=np.int64)


def decode_bytes(ids) -> bytes:
    return bytes(int(i) for i in ids if 0 <= int(i) < 256)


class _Parser(argparse.ArgumentParser):
    # argparse calls error() then SystemExit(2); route through the usual
    # configuration-error path instead so exit codes stay consistent.
    def error(self, message):
        raise ConfigError(message)


def _read_tokens(path: str, fmt: str, config: ModelConfig, *, bos: bool = False) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "bytes":
        return encode_bytes(raw, config, bos=bos)
    try:
        ids = [int(tok) for tok in raw.decode("utf-8").split()]
    except (UnicodeDecodeError, ValueError) as exc:
        raise InputError(f"{path} is not a whitespace-separated id list: {exc}") from exc
    if not ids:
        raise InputError(f"{path} holds no token ids")
    return _check_tokens(config, ids)


def cmd_precompute(args) -> int:
    with open(args.model) as fh:
        config = ModelConfig.from_json(fh.read())
    model = build_model(config)
    system_len = args.system_len if args.system_len is not None else args.chunk_len
    # The first input provides the system chunk; each later input is split
    # independently, so no chunk ever spans two files.
    parts = []
    for i, path in enumerate(args.input):
        tokens = _read_tokens(path, args.format, config, bos=(i == 0))
        if i == 0:
            if system_len < 1 or system_len >= len(tokens) + (len(args.input) > 1):
                raise ConfigError(
                    f"system_len {system_len} must leave at least one document token "
                    f"(first input has {len(tokens)})"
                )
            parts.append(tokens[:system_len])
            parts.extend(split_into_chunks(tokens[system_len:], args.chunk_len))
        else:
            parts.extend(split_into_chunks(tokens, args.chunk_len))
    if len(parts) < 2:
        raise ConfigError("need a system chunk plus at least one document chunk")
    os.makedirs(args.store, exist_ok=True)
    for name in remove_orphaned_temps(args.store):
        print(f"removed orphaned {name}")
    entries = []
    fp = config.fingerprint()
    for part in parts:
        # Only a missing or corrupt file costs a forward.
        cid = chunk_id(part, fp)
        hexid = cid.hex()
        path = os.path.join(args.store, hexid)
        status = "stored"
        if os.path.exists(path):
            try:
                verify_chunk_file(path, expect_id=cid)
                status = "cached"
            except IntegrityError:
                status = "repaired"
        if status != "cached":
            store_chunk(precompute_chunk(part, model), args.store)
        entries.append({"id": hexid, "length": int(len(part))})
        print(f"{status} {hexid} ({len(part)} tokens)")
    manifest = {
        "model": config.to_dict(),
        "store": os.path.abspath(args.store),
        "chunk_len": args.chunk_len,
        "system_len": int(system_len),
        "chunks": entries,
    }
    with open(args.manifest_out, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"manifest: {args.manifest_out} ({len(entries)} chunks)")
    return 0


def _load_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError("manifest must be a JSON object")
    for key in ("model", "store", "chunks"):
        if key not in manifest:
            raise ConfigError(f"manifest is missing {key!r}")
    if not isinstance(manifest["model"], dict):
        raise ConfigError("manifest 'model' must be an object")
    if not isinstance(manifest["store"], str):
        raise ConfigError("manifest 'store' must be a path string")
    chunks = manifest["chunks"]
    if not isinstance(chunks, list) or len(chunks) < 2:
        raise ConfigError("manifest needs a system chunk and at least one document chunk")
    for entry in chunks:
        cid = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(cid, str) or not _HEX_ID.fullmatch(cid):
            raise ConfigError(f"manifest chunk {entry!r} needs a 64-character hex 'id'")
    return manifest


def cmd_generate(args) -> int:
    manifest = _load_manifest(args.manifest)
    config = ModelConfig.from_dict(manifest["model"])
    model = build_model(config)
    store = ChunkStore.of(manifest["store"])

    if args.question_text is not None:
        question = encode_bytes(args.question_text.encode("utf-8"), config, eos=True)
    else:
        with open(args.question_file, "rb") as fh:
            question = encode_bytes(fh.read(), config, eos=True)
    eviction = None if args.evict_capacity is None else EvictionPolicy(args.evict_capacity)
    # What run_strategy refuses from the arguments alone, or from the system
    # length the manifest gives, is refused before any chunk is read.
    check_run_args(args.strategy, r=args.r, head_tail_k=args.head_tail_k,
                   gen_len=args.gen_len, eviction=eviction)
    system_len = manifest["chunks"][0].get("length")
    if eviction is not None and _is_int(system_len):
        eviction.check_protected(system_len + len(question))

    # Context token ids always come from the store; the vanilla baseline
    # ignores the cached KV but reads the same files. The fused prefill then
    # takes the chunks read here from the same store, so each file is read
    # and verified once while they fit in `chunkstore.RESIDENT_BYTES`.
    parts = [store.load(entry["id"]).token_ids.astype(np.int64)
             for entry in manifest["chunks"]]
    segments = InputSegments(system=parts[0], documents=parts[1:], question=question)

    run = run_strategy(
        model, segments, args.strategy, store,
        r=args.r, head_tail_k=args.head_tail_k, gen_len=args.gen_len,
        eviction=eviction,
    )
    print(" ".join(str(int(t)) for t in run.tokens))
    rendered = decode_bytes(run.tokens)
    print("bytes:", rendered.decode("utf-8", errors="replace"))
    if args.trace_out:
        if run.trace is not None:
            payload = run.trace.to_json_dict()
        else:
            payload = {"strategy": "vanilla", "n": int(segments.n)}
        payload["tokens"] = [int(t) for t in run.tokens]
        with open(args.trace_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bench config is not valid JSON: {exc}") from exc
    config = BenchConfig.from_dict(data)
    if args.quick:
        config = dataclasses.replace(
            config,
            seeds=config.seeds[:1],
            gen_len=min(config.gen_len, 8),
        )
    report = run_bench(config, out_dir=args.out_dir)
    for row in report.rows:
        label = row["strategy"] + (f" r={row['r']}" if row["r"] else "")
        label += " evicted" if row["evict"] == "true" else ""
        print(
            f"{label:32s} flops_prefill={row['flops_prefill']} hit_rate={row['hit_rate']} "
            f"agree={row['gen_agree_frac']}"
        )
    print(f"report: {os.path.join(args.out_dir, 'report.csv')}")
    if config.acceptance:
        results = evaluate_acceptance(report, config.acceptance)
        failures = 0
        for res in results:
            mark = "PASS" if res["ok"] else "FAIL"
            print(f"[{mark}] {res['name']} ({res['left']:g} {res['op']} {res['right']:g})")
            failures += 0 if res["ok"] else 1
        if failures:
            raise AssertionFailure(f"{failures} of {len(results)} bench assertions failed")
    return 0


def cmd_inspect(args) -> int:
    header = read_header(args.file)
    for key, value in header.items():
        print(f"{key}: {value}")
    try:
        chunk = verify_chunk_file(args.file)
    except IntegrityError as exc:
        raise IntegrityError(f"corrupt: {exc}") from exc
    print(f"tokens: {chunk.length}")
    print("integrity: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kvfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", parents=[], help="build per-chunk KV files")
    p.add_argument("--model", required=True, help="model config JSON file")
    p.add_argument("--store", required=True, help="chunk store directory")
    p.add_argument("--input", required=True, action="append",
                   help="context file; repeat for multiple documents")
    p.add_argument("--format", choices=("bytes", "ids"), default="bytes")
    p.add_argument("--chunk-len", type=int, default=DEFAULT_CHUNK_LEN)
    p.add_argument("--system-len", type=int, default=None,
                   help="length of the leading system chunk (default: chunk length)")
    p.add_argument("--manifest-out", required=True)
    p.set_defaults(func=cmd_precompute)

    # Exact option names only, so --evict is not read as --evict-capacity.
    p = sub.add_parser("generate", help="greedy-decode an answer over a store",
                       allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--question-text")
    q.add_argument("--question-file")
    p.add_argument("--strategy", choices=("vanilla",) + STRATEGIES, default="attention_aware")
    p.add_argument("--r", type=float, default=0.15)
    p.add_argument("--head-tail-k", type=int, default=20)
    p.add_argument("--gen-len", type=int, default=16)
    p.add_argument("--evict-capacity", type=int, default=None,
                   help="rows per layer and head kept after the first token; turns eviction on")
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="run the quality harness")
    p.add_argument("--config", required=True, help="bench config JSON file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--quick", action="store_true",
                   help="single seed, short generation")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="dump and verify one chunk file")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, InputError, ShapeError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChunkNotFoundError, IntegrityError, FingerprintError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
