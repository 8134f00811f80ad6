import dataclasses
import hashlib
import multiprocessing
import os
import re
import shutil
import struct

import numpy as np
import pytest

from kvfuse import chunkstore as CS
from kvfuse import model as M
from kvfuse.cli import main
from kvfuse.errors import (
    ChunkNotFoundError,
    ContractViolation,
    FingerprintError,
    InputError,
    IntegrityError,
    ShapeError,
)

from forged_chunks import forge_chunk_file


def make_model(**over):
    base = dict(n_layers=4, n_heads=2, head_dim=8, d_ff=32, vocab_size=64, seed=11)
    base.update(over)
    return M.build_model(M.ModelConfig(**base))


def random_ids(rng, n, vocab=64):
    return rng.integers(0, vocab, size=n).astype(np.int64)


# ---------------------------------------------------------------------------
# chunk_id


def test_chunk_id_deterministic_and_sensitive():
    fp = bytes(range(32))
    assert CS.chunk_id([1, 2], fp) == CS.chunk_id([1, 2], fp)
    assert CS.chunk_id([1, 2], fp) != CS.chunk_id([2, 1], fp)
    assert CS.chunk_id([1, 2], fp) != CS.chunk_id([1, 2], bytes(32))


def test_chunk_id_matches_fingerprint_of_model():
    m7 = make_model(seed=7)
    m8 = make_model(seed=8)
    assert CS.chunk_id([5], m7.config.fingerprint()) != CS.chunk_id([5], m8.config.fingerprint())


# ---------------------------------------------------------------------------
# precompute_chunk


def test_precompute_rejects_empty():
    with pytest.raises(InputError):
        CS.precompute_chunk([], make_model())


def test_precompute_single_token_key_is_projection():
    # With one token there is no context: the stored key must equal the
    # normalized embedding row times W^k at every layer's input state.
    # Position 0 rotates by angle 0, so the forward's rotated keys are the
    # raw projections too.
    model = make_model()
    cfg = model.config
    chunk = CS.precompute_chunk([9], model)
    res = M.prefill_forward(model, [9])
    assert not chunk.rope_applied
    assert chunk.keys.shape == (cfg.n_layers, cfg.n_heads, cfg.head_dim, 1)
    for l in range(cfg.n_layers):
        assert np.array_equal(chunk.layers[l].keys, res.caches[l].keys)
    # layer 0 explicitly: rms-normed embedding through W^k, in float32 as
    # the blocks run, one row as a one-token prefill has
    x = model.weights.embedding[9:10]
    assert x.dtype == np.float32
    h = x / np.sqrt(np.sum(x**2, axis=-1, keepdims=True) / x.shape[-1] + np.float32(1e-6))
    k = (h @ model.weights.layers[0].wqkv[1])[0]
    stored = chunk.layers[0].keys.transpose(1, 0, 2).reshape(1, -1)[0]
    np.testing.assert_array_equal(stored, k)


def test_precompute_layer0_matches_longer_sequence():
    # Layer-0 projections depend only on the embeddings, so the chunk's
    # stored layer-0 keys equal the same rows inside any longer sequence.
    model = make_model()
    rng = np.random.default_rng(0)
    prefix = random_ids(rng, 6)
    suffix = random_ids(rng, 10)
    chunk = CS.precompute_chunk(suffix, model)
    longer = CS.precompute_chunk(np.concatenate([prefix, suffix]), model)
    np.testing.assert_allclose(
        chunk.layers[0].keys, longer.layers[0].keys[:, len(prefix) :], atol=1e-6
    )
    np.testing.assert_allclose(
        chunk.layers[0].values, longer.layers[0].values[:, len(prefix) :], atol=1e-6
    )


@pytest.mark.parametrize("rotated", [False, True])
def test_a_chunk_is_one_key_and_one_value_array(tmp_path, rotated):
    # A precomputed chunk, the resident chunk a store keeps as written and
    # the chunk read from its file each hold keys and values as one
    # (L, H, head_dim, n) array and one rotation flag; `layers` are views
    # of them that carry that flag.
    model = make_model(n_layers=3)
    cfg = model.config
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(6), 11), model)
    if rotated:
        local = CS.rotate_chunk_local(chunk, cfg)
        assert local.values is chunk.values and not np.shares_memory(local.keys, chunk.keys)
        chunk = local
    store = CS.ChunkStore(tmp_path)
    CS.store_chunk(chunk, store)
    written = store.load(chunk.chunk_id)
    read = CS.load_chunk(chunk.chunk_id, tmp_path)
    assert store.reads == 0 and written is not read
    for c in (chunk, written, read):
        assert c.keys.shape == c.values.shape == (3, cfg.n_heads, cfg.head_dim, 11)
        assert c.keys.dtype == c.values.dtype == M.DTYPE
        assert c.keys.tobytes() == chunk.keys.tobytes()
        assert c.values.tobytes() == chunk.values.tobytes()
        assert c.rope_applied is rotated
        assert len(c.layers) == 3
        for l, layer in enumerate(c.layers):
            assert layer.rope_applied is rotated
            assert np.shares_memory(layer.keys, c.keys[l])
            assert np.shares_memory(layer.values, c.values[l])
            assert layer.keys.shape == (cfg.n_heads, 11, cfg.head_dim)
            assert np.array_equal(layer.keys, c.keys[l].swapaxes(1, 2))
            assert np.array_equal(layer.values, c.values[l].swapaxes(1, 2))


def test_split_into_chunks():
    ids = np.arange(1034)
    parts = CS.split_into_chunks(ids, 512)
    assert [len(p) for p in parts] == [512, 512, 10]
    with pytest.raises(InputError):
        CS.split_into_chunks(ids, 0)


# ---------------------------------------------------------------------------
# Persistence


def test_store_load_round_trip_bitwise(tmp_path):
    model = make_model()
    rng = np.random.default_rng(1)
    chunk = CS.precompute_chunk(random_ids(rng, 17), model)
    CS.store_chunk(chunk, tmp_path)
    loaded = CS.load_chunk(chunk.chunk_id, tmp_path)
    assert loaded.chunk_id == chunk.chunk_id
    assert loaded.model_fingerprint == chunk.model_fingerprint
    assert np.array_equal(loaded.token_ids, chunk.token_ids)
    for a, b in zip(loaded.layers, chunk.layers):
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)
        assert a.rope_applied == b.rope_applied


@pytest.mark.parametrize("rotated", [False, True])
def test_store_writes_the_documented_layout(tmp_path, rotated):
    model = make_model(n_layers=3)
    cfg = model.config
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(5), 13), model)
    if rotated:
        chunk = CS.rotate_chunk_local(chunk, cfg)
    path = CS.store_chunk(chunk, tmp_path)
    # The layout of the Persistence comment in chunkstore, assembled by hand.
    header = struct.pack("<4sI32s32sIIIIBBH", b"A3KV", 2, chunk.model_fingerprint,
                         chunk.chunk_id, cfg.n_layers, cfg.n_heads, cfg.head_dim, 13,
                         0, int(rotated), 0)
    body = b"".join([header, chunk.token_ids.astype("<u4").tobytes()]
                    + [l.keys.swapaxes(1, 2).astype("<f4").tobytes() for l in chunk.layers]
                    + [l.values.swapaxes(1, 2).astype("<f4").tobytes() for l in chunk.layers])
    with open(path, "rb") as fh:
        assert fh.read() == body + hashlib.sha256(body).digest()
    assert chunk.file_bytes == len(body) + 32 == os.path.getsize(path)


@pytest.mark.parametrize("shape", [
    dict(n_layers=0), dict(n_heads=0), dict(length=0), dict(head_dim=0), dict(head_dim=7),
])
def test_impossible_headers_are_refused(tmp_path, shape):
    # No writer makes a chunk of no layers, heads or tokens, or with a
    # head_dim RoPE cannot rotate in pairs; each such file's size, digest
    # and id are consistent, so the header check alone refuses it.
    fp = make_model().config.fingerprint()
    fields = dict(n_layers=2, n_heads=2, head_dim=8, length=3) | shape
    cid = forge_chunk_file(tmp_path, fp, list(range(fields.pop("length"))), **fields)
    with pytest.raises(IntegrityError, match="impossible shape"):
        CS.verify_chunk_file(tmp_path / cid, expect_id=bytes.fromhex(cid))
    with pytest.raises(IntegrityError):
        CS.ChunkStore(tmp_path).load(cid)
    # The same file with a possible header loads.
    cid = forge_chunk_file(tmp_path, fp, [0, 1, 2], n_layers=2, n_heads=2, head_dim=8)
    assert CS.ChunkStore(tmp_path).load(cid).file_bytes == os.path.getsize(tmp_path / cid)


@pytest.mark.parametrize("forged, message", [
    (dict(magic=b"A3KW"), "has bad magic b'A3KW'"),
    (dict(trailing=4), "has wrong payload size"),
])
def test_a_file_with_a_valid_digest_and_id_is_refused_for_its_magic_or_size(
        tmp_path, capsys, forged, message):
    # A byte flip fails the digest first; these files pass it and the id
    # check, so only the magic or the size check can refuse them.
    fp = make_model().config.fingerprint()
    cid = forge_chunk_file(tmp_path, fp, [0, 1, 2], n_layers=2, n_heads=2, head_dim=8, **forged)
    with pytest.raises(IntegrityError, match=re.escape(message)):
        CS.verify_chunk_file(tmp_path / cid, expect_id=bytes.fromhex(cid))
    with pytest.raises(IntegrityError, match=re.escape(message)):
        CS.ChunkStore(tmp_path).load(cid)
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / cid)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: corrupt: chunk file {tmp_path / cid} "
                                              f"{message}")


def test_load_unknown_id(tmp_path):
    with pytest.raises(ChunkNotFoundError):
        CS.load_chunk(bytes(32), tmp_path)


def test_single_byte_corruption_detected(tmp_path):
    model = make_model(n_layers=2)
    rng = np.random.default_rng(2)
    chunk = CS.precompute_chunk(random_ids(rng, 8), model)
    path = CS.store_chunk(chunk, tmp_path)
    raw = bytearray(open(path, "rb").read())
    for offset in rng.choice(len(raw), size=60, replace=False):
        mutated = bytearray(raw)
        mutated[offset] ^= 0x40
        with open(path, "wb") as fh:
            fh.write(mutated)
        with pytest.raises(IntegrityError):
            CS.load_chunk(chunk.chunk_id, tmp_path)
    with open(path, "wb") as fh:
        fh.write(raw)
    CS.load_chunk(chunk.chunk_id, tmp_path)


def test_truncated_file_detected(tmp_path, capsys):
    # Every cut, from the empty file to one byte short, is caught by the
    # verifier, the loader and `kvfuse inspect` alike.
    model = make_model(n_layers=2)
    chunk = CS.precompute_chunk([1, 2, 3, 4, 5], model)
    path = CS.store_chunk(chunk, tmp_path)
    raw = open(path, "rb").read()
    for cut in range(len(raw)):
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        with pytest.raises(IntegrityError):
            CS.verify_chunk_file(path)
        with pytest.raises(IntegrityError):
            CS.load_chunk(chunk.chunk_id, tmp_path)
        assert main(["inspect", str(path)]) == 2, cut
    assert capsys.readouterr().err.count("data error:") == len(raw)


def test_loads_return_writable_arrays_that_share_no_memory(tmp_path):
    # A load reads the file into its own buffer and returns views of it, so
    # two loads of one chunk never alias and either may be written to.
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(9), 12), make_model(n_layers=2))
    CS.store_chunk(chunk, tmp_path)
    a, b = (CS.load_chunk(chunk.chunk_id, tmp_path) for _ in range(2))
    arrays_a = [a.token_ids] + [x for l in a.layers for x in (l.keys, l.values)]
    arrays_b = [b.token_ids] + [x for l in b.layers for x in (l.keys, l.values)]
    for x in arrays_a + arrays_b:
        assert x.flags.writeable
    for x in arrays_a:
        assert not any(np.shares_memory(x, y) for y in arrays_b)


def test_short_read_detected(tmp_path, monkeypatch):
    # A file that yields fewer bytes than its size said (it shrank between
    # the stat and the read) fails the load.
    chunk = CS.precompute_chunk([1, 2, 3], make_model(n_layers=1))
    path = CS.store_chunk(chunk, tmp_path)
    real_fstat = os.fstat

    def fstat_one_byte_more(fd):
        fields = list(real_fstat(fd))
        fields[6] += 1  # st_size
        return os.stat_result(fields)

    monkeypatch.setattr(CS.os, "fstat", fstat_one_byte_more)
    with pytest.raises(IntegrityError, match=r"read \d+ of its \d+ bytes"):
        CS.verify_chunk_file(path)


def test_store_names_its_temp_file_by_pid(tmp_path, monkeypatch):
    # The pid lets `kvfuse precompute` tell a killed writer's leftover from
    # a live one's; a failed rename leaves no temp file behind.
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(4), 12), make_model(n_layers=1))
    seen = []

    def failing_replace(src, dst):
        seen.append(os.path.basename(src))
        raise OSError("disk full")

    monkeypatch.setattr(CS.os, "replace", failing_replace)
    with pytest.raises(OSError):
        CS.store_chunk(chunk, tmp_path)
    assert len(seen) == 1 and seen[0].startswith(f".tmp-chunk-{os.getpid()}-")
    assert list(tmp_path.iterdir()) == []


def _store_after(barrier, chunk, directory, repeats):
    barrier.wait()
    for _ in range(repeats):
        CS.store_chunk(chunk, directory)


def test_two_writers_of_one_chunk(tmp_path):
    # Two processes store the same chunk into one store at once. Each write
    # goes through its own temp file and an atomic rename, so one whole
    # file remains and no temp file is left behind.
    model = make_model(n_layers=2)
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(3), 40), model)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_store_after, args=(barrier, chunk, tmp_path, 25))
               for _ in range(2)]
    try:
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=60)
        assert [w.exitcode for w in writers] == [0, 0]
    finally:
        for w in writers:
            if w.is_alive():
                w.kill()
                w.join()
    assert [p.name for p in tmp_path.iterdir()] == [chunk.chunk_id.hex()]
    stored = CS.verify_chunk_file(tmp_path / chunk.chunk_id.hex(), chunk.chunk_id)
    for a, b in zip(stored.layers, chunk.layers):
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# SegmentMap / concat


def test_concat_shapes_and_spans():
    model = make_model(n_layers=2)
    rng = np.random.default_rng(3)
    chunks = [
        CS.precompute_chunk(random_ids(rng, n), model) for n in (10, 20, 15)
    ]
    fused = CS.concat_chunks(chunks)
    assert fused.n == 45
    spans = fused.segments.spans
    assert [s.kind for s in spans] == ["system", "document", "document", "question"]
    assert [(s.start, s.length) for s in spans] == [(0, 10), (10, 20), (30, 15), (45, 0)]
    assert fused.segments.question_span.length == 0
    assert not fused.rope_recovered
    assert fused.keys.shape == (2, model.config.n_heads, 45, model.config.head_dim)


def test_concat_lays_out_zeroed_question_rows_that_recovery_leaves_zero():
    # With the question's length, concat lays out the one buffer that fused
    # prefill patches: the chunk rows as without it, then that many rows of
    # +0.0, which recovery leaves as they are, since they hold no cached key.
    model = make_model(n_layers=2)
    rng = np.random.default_rng(3)
    chunks = [CS.precompute_chunk(random_ids(rng, n), model) for n in (10, 20)]
    bare, fused = CS.concat_chunks(chunks), CS.concat_chunks(chunks, 7)
    assert fused.n == 37 and fused.segments.spans[-1] == CS.Span("question", 30, 7)
    assert np.array_equal(fused.token_ids, bare.token_ids)
    zeros = np.zeros((2, model.config.n_heads, 7, model.config.head_dim), dtype=M.DTYPE)

    def check():
        for got, want in ((fused.keys, bare.keys), (fused.values, bare.values)):
            assert got[:, :, :30].tobytes() == want.tobytes()
            assert got[:, :, 30:].tobytes() == zeros.tobytes()

    check()
    CS.recover_positions(bare, model.config)
    CS.recover_positions(fused, model.config)
    check()


def test_concat_rejects_bad_inputs():
    model = make_model(n_layers=2)
    other = make_model(n_layers=2, seed=99)
    c1 = CS.precompute_chunk([1, 2], model)
    c2 = CS.precompute_chunk([3, 4], other)
    with pytest.raises(InputError):
        CS.concat_chunks([])
    with pytest.raises(FingerprintError):
        CS.concat_chunks([c1, c2])
    rotated = CS.rotate_chunk_local(CS.precompute_chunk([5, 6], model), model.config)
    with pytest.raises(ContractViolation):
        CS.concat_chunks([c1, rotated])


@pytest.mark.parametrize("other", [dict(n_heads=1, head_dim=16), dict(n_layers=3)])
def test_concat_refuses_chunks_of_another_shape(other):
    # One fingerprint vouches for no shape: a chunk with other layers,
    # heads or head_dim than the first is refused before any copy.
    model = make_model(n_layers=2)
    first = CS.precompute_chunk([1, 2], model)
    misfit = CS.precompute_chunk([3, 4], make_model(**{"n_layers": 2, **other}))
    misfit = dataclasses.replace(misfit, model_fingerprint=first.model_fingerprint)
    with pytest.raises(ShapeError, match="layers, heads, head_dim"):
        CS.concat_chunks([first, misfit])


def test_segment_map_offsets():
    sm = CS.SegmentMap(
        [
            CS.Span("system", 0, 3),
            CS.Span("document", 3, 4),
            CS.Span("document", 7, 2),
            CS.Span("question", 9, 5),
        ]
    )
    assert sm.n == 14
    assert list(sm.document_offsets()) == [3, 4, 5, 6, 7, 8]
    assert list(sm.protected_offsets()) == [0, 1, 2, 9, 10, 11, 12, 13]
    with pytest.raises(InputError):
        CS.SegmentMap([CS.Span("document", 0, 3), CS.Span("question", 3, 1)])


# ---------------------------------------------------------------------------
# recover_positions


def test_recover_zero_offset_rows_unchanged():
    model = make_model()
    chunk = CS.precompute_chunk([1, 2, 3], model)
    fused = CS.concat_chunks([chunk])
    before = fused.keys[:, :, 0].copy()
    CS.recover_positions(fused, model.config)
    np.testing.assert_allclose(fused.keys[:, :, 0], before, atol=1e-7)
    assert fused.rope_recovered


def test_recover_layer0_matches_oracle():
    model = make_model()
    rng = np.random.default_rng(4)
    parts = [random_ids(rng, 7), random_ids(rng, 9), random_ids(rng, 5)]
    fused = CS.concat_chunks([CS.precompute_chunk(p, model) for p in parts])
    CS.recover_positions(fused, model.config)
    oracle = M.prefill_forward(model, np.concatenate(parts)).caches
    np.testing.assert_allclose(fused.keys[0], oracle[0].keys, atol=1e-6)
    np.testing.assert_allclose(fused.values[0], oracle[0].values, atol=1e-6)


def test_recover_values_untouched():
    model = make_model()
    chunk = CS.precompute_chunk([1, 2, 3, 4], model)
    fused = CS.concat_chunks([chunk])
    before = fused.values.copy()
    CS.recover_positions(fused, model.config)
    assert np.array_equal(fused.values, before)


def test_recover_deeper_layers_differ_from_oracle():
    # Cross-chunk attention is missing, so a non-trivial gap must exist
    # past layer 0 on a two-chunk input.
    model = make_model()
    rng = np.random.default_rng(5)
    parts = [random_ids(rng, 12), random_ids(rng, 12)]
    fused = CS.concat_chunks([CS.precompute_chunk(p, model) for p in parts])
    CS.recover_positions(fused, model.config)
    oracle = M.prefill_forward(model, np.concatenate(parts)).caches
    gap = np.abs(fused.keys[2] - oracle[2].keys).max()
    assert gap > 1e-3


def test_recover_twice_rejected():
    model = make_model()
    fused = CS.concat_chunks([CS.precompute_chunk([1, 2], model)])
    CS.recover_positions(fused, model.config)
    with pytest.raises(ContractViolation):
        CS.recover_positions(fused, model.config)


def test_recover_rejects_locally_rotated():
    model = make_model()
    chunk = CS.rotate_chunk_local(CS.precompute_chunk([1, 2], model), model.config)
    with pytest.raises(ContractViolation):
        fused = CS.concat_chunks([chunk])
        CS.recover_positions(fused, model.config)


def test_system_prefix_exact_at_every_layer():
    # The system chunk sees the same context during precompute as during
    # inference, so its recovered cache matches the oracle at all layers.
    model = make_model()
    rng = np.random.default_rng(6)
    system = random_ids(rng, 10)
    doc = random_ids(rng, 14)
    fused = CS.concat_chunks(
        [CS.precompute_chunk(system, model), CS.precompute_chunk(doc, model)]
    )
    CS.recover_positions(fused, model.config)
    oracle = M.prefill_forward(model, np.concatenate([system, doc])).caches
    for l in range(model.config.n_layers):
        np.testing.assert_allclose(fused.keys[l][:, :10], oracle[l].keys[:, :10], atol=1e-6)
        np.testing.assert_allclose(fused.values[l][:, :10], oracle[l].values[:, :10], atol=1e-6)


# ---------------------------------------------------------------------------
# Resident chunks


def stored_chunks(directory, count, n=12, seed=41):
    rng = np.random.default_rng(seed)
    model = make_model(n_layers=2)
    chunks = [CS.precompute_chunk(random_ids(rng, n), model) for _ in range(count)]
    for chunk in chunks:
        CS.store_chunk(chunk, directory)
    return chunks


def served(store, cid) -> bool:
    """Whether `store.load(cid)` served the chunk resident rather than read its file."""
    reads = store.reads
    store.load(cid)
    return store.reads == reads


def test_resident_chunks_are_read_only_and_the_bits_of_a_load(tmp_path):
    chunk, = stored_chunks(tmp_path, 1)
    store = CS.ChunkStore(tmp_path)
    miss = store.load(chunk.chunk_id)
    assert (store.reads, store.bytes_read) == (1, chunk.file_bytes)
    hit = store.load(chunk.chunk_id.hex())
    assert store.reads == 1 and hit is miss
    fresh = CS.load_chunk(chunk.chunk_id, tmp_path)
    resident = [hit.token_ids] + [a for l in hit.layers for a in (l.keys, l.values)]
    loaded = [fresh.token_ids] + [a for l in fresh.layers for a in (l.keys, l.values)]
    for a, b in zip(resident, loaded):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
        assert not a.flags.writeable and b.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    assert store.resident_bytes == chunk.file_bytes == os.path.getsize(
        tmp_path / chunk.chunk_id.hex())


def test_resident_bytes_hold_in_lru_order(tmp_path, monkeypatch):
    chunks = stored_chunks(tmp_path, 4)
    size = chunks[0].file_bytes
    monkeypatch.setattr(CS, "RESIDENT_BYTES", 3 * size)
    store = CS.ChunkStore(tmp_path)

    def load(i):
        hit = served(store, chunks[i].chunk_id)
        assert store.resident_bytes <= CS.RESIDENT_BYTES
        return hit

    assert [load(i) for i in (0, 1, 2, 0)] == [False, False, False, True]
    assert load(3) is False  # drops 1, the least recently used
    # Any other entry shares the budget and the order: this one drops 2.
    entry = object()
    store.put("entry", entry, size // 2)
    assert store.resident_bytes == 2 * size + size // 2
    assert store.get("entry") is entry  # now the most recently used
    assert [load(i) for i in (0, 3, 2)] == [True, True, False]  # drops the entry
    assert store.get("entry") is None and store.resident_bytes == 3 * size
    assert [load(i) for i in (0, 3, 2, 1)] == [True, True, True, False]


def test_an_entry_over_the_whole_budget_is_not_kept(tmp_path, monkeypatch):
    chunks = stored_chunks(tmp_path, 3)
    size = chunks[0].file_bytes
    monkeypatch.setattr(CS, "RESIDENT_BYTES", 2 * size)
    store = CS.ChunkStore(tmp_path)
    for chunk in chunks[:2]:
        store.load(chunk.chunk_id)
    store.put("big", object(), 2 * size + 1)
    assert store.get("big") is None and store.resident_bytes == 2 * size
    assert [served(store, c.chunk_id) for c in chunks[:2]] == [True, True]
    # It replaces what its key held, with nothing.
    store.put("entry", object(), 1)
    held = store.resident_bytes
    store.put("entry", object(), 2 * size + 1)
    assert store.get("entry") is None and store.resident_bytes == held - 1
    # A chunk stored over the budget is written but not kept.
    monkeypatch.setattr(CS, "RESIDENT_BYTES", 2 * size - 1)
    store = CS.ChunkStore(tmp_path)
    store.load(chunks[0].chunk_id)
    big = CS.precompute_chunk(random_ids(np.random.default_rng(43), 30), make_model(n_layers=2))
    assert big.file_bytes > CS.RESIDENT_BYTES
    CS.store_chunk(big, store)
    assert store.resident_bytes == size and served(store, chunks[0].chunk_id) is True
    assert served(store, big.chunk_id) is False


def test_load_chunk_serves_through_a_store_and_reads_a_path(tmp_path):
    chunk, other = stored_chunks(tmp_path, 2)
    store = CS.ChunkStore(tmp_path)
    CS.store_chunk(chunk, store)
    # A store serves what it holds and reads the rest, counting the reads.
    assert CS.load_chunk(chunk.chunk_id, store) is store.load(chunk.chunk_id)
    assert (store.reads, store.bytes_read) == (0, 0)
    read = CS.load_chunk(other.chunk_id.hex(), store)
    assert not read.token_ids.flags.writeable
    assert (store.reads, store.bytes_read) == (1, other.file_bytes)
    assert CS.load_chunk(other.chunk_id, store) is read and store.reads == 1
    # A path reads and verifies the file and keeps nothing.
    fresh = CS.load_chunk(chunk.chunk_id, tmp_path)
    assert fresh.token_ids.flags.writeable
    assert fresh.token_ids.tobytes() == chunk.token_ids.astype("<u4").tobytes()
    assert store.reads == 1


def test_a_stored_chunk_is_served_resident_with_the_bits_of_a_read(tmp_path, monkeypatch):
    chunk = CS.precompute_chunk(random_ids(np.random.default_rng(44), 12), make_model(n_layers=2))
    store = CS.ChunkStore(tmp_path)
    path = CS.store_chunk(chunk, store)
    assert store.resident_bytes == chunk.file_bytes == os.path.getsize(path)
    resident = store.load(chunk.chunk_id)
    assert store.reads == 0
    read = CS.load_chunk(chunk.chunk_id, tmp_path)
    assert (resident.chunk_id, resident.model_fingerprint) == (read.chunk_id,
                                                                read.model_fingerprint)
    arrays = [resident.token_ids] + [a for l in resident.layers for a in (l.keys, l.values)]
    expect = [read.token_ids] + [a for l in read.layers for a in (l.keys, l.values)]
    for a, b in zip(arrays, expect):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape
        assert not a.flags.writeable
    assert [l.rope_applied for l in resident.layers] == [l.rope_applied for l in read.layers]
    # A chunk whose id is not its token ids' is written but not kept, and
    # a read refuses it, as it refuses the file.
    forged = dataclasses.replace(chunk, chunk_id=bytes(32))
    CS.store_chunk(forged, store)
    assert store.get(forged.chunk_id) is None
    with pytest.raises(IntegrityError):
        store.load(forged.chunk_id)
    # A path stands for the process's store of that directory, if it is
    # already that directory's; otherwise the write keeps nothing, and the
    # process's store, with what it holds, stays.
    monkeypatch.setattr(CS.ChunkStore, "_process_store", None)
    CS.store_chunk(chunk, tmp_path)
    assert CS.ChunkStore._process_store is None
    process = CS.ChunkStore.of(tmp_path)
    CS.store_chunk(chunk, tmp_path)
    held = process.resident_bytes
    assert held == chunk.file_bytes
    (tmp_path / "elsewhere").mkdir()
    CS.store_chunk(chunk, tmp_path / "elsewhere")
    assert CS.ChunkStore._process_store is process and process.resident_bytes == held
    assert served(process, chunk.chunk_id) is True


def test_a_stored_chunk_whose_file_changes_is_read_again(tmp_path, monkeypatch):
    chunk, other = (CS.precompute_chunk(random_ids(np.random.default_rng(s), 12),
                                        make_model(n_layers=2)) for s in (45, 46))
    store = CS.ChunkStore(tmp_path)
    path = tmp_path / chunk.chunk_id.hex()
    # Replaced by a copy of its bytes: another inode, read again.
    CS.store_chunk(chunk, store)
    copy = tmp_path / "copy"
    copy.write_bytes(path.read_bytes())
    os.replace(copy, path)
    assert [served(store, chunk.chunk_id) for _ in range(2)] == [False, True]
    # Rewritten in place, one byte flipped: same inode and size, new ctime.
    CS.store_chunk(chunk, store)
    with open(path, "r+b") as fh:
        fh.seek(200)
        byte = fh.read(1)
        fh.seek(200)
        fh.write(bytes([byte[0] ^ 1]))
    with pytest.raises(IntegrityError):
        store.load(chunk.chunk_id)
    # Deleted.
    CS.store_chunk(chunk, store)
    path.unlink()
    with pytest.raises(ChunkNotFoundError):
        store.load(chunk.chunk_id)
    assert store.resident_bytes == 0
    # Replaced by another writer between this one's rename and its stat:
    # the name no longer holds what this call wrote, so nothing is kept.
    real_replace = os.replace

    def raced(src, dst):
        real_replace(src, dst)
        if os.path.basename(dst) == chunk.chunk_id.hex():
            CS.store_chunk(other, CS.ChunkStore(tmp_path / "elsewhere"))
            real_replace(tmp_path / "elsewhere" / other.chunk_id.hex(), dst)

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.setattr(CS.os, "replace", raced)
    CS.store_chunk(chunk, store)
    monkeypatch.undo()
    assert store.get(chunk.chunk_id) is None
    with pytest.raises(IntegrityError):
        store.load(chunk.chunk_id)


def test_a_changed_file_is_read_again(tmp_path):
    chunk, other = stored_chunks(tmp_path, 2)
    store = CS.ChunkStore(tmp_path)
    path = tmp_path / chunk.chunk_id.hex()
    assert served(store, chunk.chunk_id) is False
    # Replaced by a new file of the same bytes: another inode, read again.
    CS.store_chunk(chunk, tmp_path)
    assert [served(store, chunk.chunk_id) for _ in range(2)] == [False, True]
    # Rewritten in place, one byte flipped: same inode and size, new ctime.
    with open(path, "r+b") as fh:
        fh.seek(200)
        byte = fh.read(1)
        fh.seek(200)
        fh.write(bytes([byte[0] ^ 1]))
    for _ in range(2):  # the failure cached nothing
        with pytest.raises(IntegrityError):
            store.load(chunk.chunk_id)
    assert store.resident_bytes == 0
    # Replaced by another chunk's file: its id is not the name's.
    os.replace(tmp_path / other.chunk_id.hex(), path)
    with pytest.raises(IntegrityError):
        store.load(chunk.chunk_id)


def test_a_deleted_file_is_not_served_while_resident(tmp_path):
    chunk, = stored_chunks(tmp_path, 1)
    store = CS.ChunkStore(tmp_path)
    store.load(chunk.chunk_id)
    os.unlink(tmp_path / chunk.chunk_id.hex())
    with pytest.raises(ChunkNotFoundError):
        store.load(chunk.chunk_id)
    assert store.resident_bytes == 0


def test_a_write_drops_the_process_store_of_a_deleted_directory(tmp_path, monkeypatch):
    # Once its directory is gone, the process's store holds chunks no load
    # can serve; a write to another directory releases them, then keeps
    # nothing, as for any directory that is not the process's store's.
    monkeypatch.setattr(CS.ChunkStore, "_process_store", None)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    chunk, = stored_chunks(a, 1)
    CS.ChunkStore.of(a).load(chunk.chunk_id)
    assert CS.ChunkStore._process_store.resident_bytes == chunk.file_bytes
    shutil.rmtree(a)
    for _ in range(3):
        CS.store_chunk(chunk, b)
        assert CS.ChunkStore._process_store is None
    # The directory's own store is kept while the directory exists.
    held = CS.ChunkStore.of(b)
    CS.store_chunk(chunk, b)
    assert CS.ChunkStore._process_store is held and served(held, chunk.chunk_id) is True


def test_a_path_maps_to_the_one_process_store(tmp_path, monkeypatch):
    monkeypatch.setattr(CS.ChunkStore, "_process_store", None)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (tmp_path / "link").symlink_to(a)
    chunk, = stored_chunks(a, 1)
    store = CS.ChunkStore.of(a)
    assert CS.ChunkStore.of(str(tmp_path / "link")) is store
    assert store.directory == os.path.realpath(a)
    store.load(chunk.chunk_id)
    assert CS.ChunkStore.of(b) is not store  # another directory replaces it
    cold = CS.ChunkStore.of(a)
    assert cold is not store and served(cold, chunk.chunk_id) is False
