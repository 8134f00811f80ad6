"""Per-chunk KV precompute, content-addressed persistence, and position recovery.

Chunks are processed standalone: each forward runs with local positions
0..len-1, but the stored keys are the pre-rotation projections, so a chunk
can later be re-rotated at whatever global offset it lands on. Values are
never rotated. One binary format serves every strategy; re-applying local
rotation at load time realizes the plain concatenation baseline.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChunkNotFoundError,
    ContractViolation,
    FingerprintError,
    InputError,
    IntegrityError,
    ShapeError,
)
from .model import (
    DTYPE,
    LayerKV,
    Model,
    ModelConfig,
    _F64,
    _rope_table,
    _rotate,
    prefill_forward,
)

MAGIC = b"A3KV"
VERSION = 1
_HEADER = struct.Struct("<4sI32s32sIIIIBBH")
_DIGEST_LEN = 32

DEFAULT_CHUNK_LEN = 512


def chunk_id(token_ids, fingerprint: bytes) -> bytes:
    """Content address: digest of the model fingerprint and the raw token ids."""
    ids = np.ascontiguousarray(np.asarray(token_ids, dtype="<u4"))
    h = hashlib.sha256()
    h.update(fingerprint)
    h.update(ids.tobytes())
    return h.digest()


@dataclass
class ChunkKV:
    chunk_id: bytes
    token_ids: np.ndarray  # (n,) uint32
    layers: list[LayerKV]
    model_fingerprint: bytes

    @property
    def length(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def rope_applied(self) -> bool:
        return self.layers[0].rope_applied

    @property
    def file_bytes(self) -> int:
        """The size of this chunk's file, which a load reads and verifies whole."""
        n_heads, n, head_dim = self.layers[0].keys.shape
        return _file_size(len(self.layers), n_heads, n, head_dim)


def precompute_chunk(token_ids, model: Model) -> ChunkKV:
    """Standalone forward of one chunk; keys stored pre-rotation.

    The forward itself attends with local positions 0..len-1 (that is what
    makes deeper layers approximate), but the persisted keys carry no
    rotation so they can be placed at any global offset later.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        raise InputError("cannot precompute an empty chunk")
    res = prefill_forward(model, ids, record_raw_keys=True)
    layers = [
        LayerKV(keys=raw, values=cache.values, rope_applied=False)
        for raw, cache in zip(res.raw_keys, res.caches)
    ]
    fp = model.config.fingerprint()
    return ChunkKV(
        chunk_id=chunk_id(ids, fp),
        token_ids=ids.astype(np.uint32),
        layers=layers,
        model_fingerprint=fp,
    )


def split_into_chunks(token_ids, chunk_len: int = DEFAULT_CHUNK_LEN) -> list[np.ndarray]:
    ids = np.asarray(token_ids)
    if chunk_len < 1:
        raise InputError(f"chunk_len must be >= 1, got {chunk_len}")
    return [ids[i : i + chunk_len] for i in range(0, len(ids), chunk_len)]


# ---------------------------------------------------------------------------
# Persistence
#
# Little-endian layout:
#   magic "A3KV", version u32, model_fingerprint 32B, chunk_id 32B,
#   n_layers u32, n_heads u32, head_dim u32, chunk_len u32,
#   dtype u8 (0 = f32), flags u8 (bit0 = rope_applied), reserved u16,
#   token ids (chunk_len x u32), K then V as [layer][head][token][dim] f32,
#   then a 32-byte SHA-256 digest over all preceding bytes. Every payload
#   byte is covered, so any single-byte corruption is detected.
# File name = lowercase hex of chunk_id.


def _chunk_path(directory, cid: bytes) -> str:
    return os.path.join(os.fspath(directory), cid.hex())


# A writer's temp file carries its pid, so a later run can tell a killed
# writer's leftover from a file still being written.
_TMP_PREFIX = ".tmp-chunk-"
_TMP_NAME = re.compile(re.escape(_TMP_PREFIX) + r"([1-9][0-9]*)-", re.ASCII)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):  # no such process, or no such pid
        return False
    except PermissionError:
        pass  # alive, owned by another user
    return True


def remove_orphaned_temps(directory) -> list[str]:
    """Delete the `.tmp-chunk-<pid>-*` files of `directory` whose writer
    process is gone; returns their names. A live writer's file, and a temp
    file that names no pid, is left alone."""
    removed = []
    for name in sorted(os.listdir(directory)):
        match = _TMP_NAME.match(name)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            os.unlink(os.path.join(os.fspath(directory), name))
        except FileNotFoundError:
            continue
        removed.append(name)
    return removed


def _file_size(n_layers: int, n_heads: int, n: int, head_dim: int) -> int:
    # Header, token ids, keys and values, digest.
    return _HEADER.size + 4 * n + 2 * 4 * n_layers * n_heads * n * head_dim + _DIGEST_LEN


def store_chunk(chunk: ChunkKV, store) -> str:
    """Atomically persist a chunk into `store`, a `ChunkStore` or a
    directory path, and keep it resident there; returns the file path.

    A path keeps it in the process's store when that store is the
    directory's (`ChunkStore.of`), and otherwise writes it and keeps
    nothing, so a write never replaces the process's store.

    Each layer is copied once, into one buffer laid out as the file; the
    digest is taken over a view of it and the buffer written as it stands.
    The resident chunk is read-only views of that buffer, held under the
    file's stat signature taken after the replace, so a load that follows
    serves the bytes this call hashed and wrote without reading them back.
    Nothing is kept if the name no longer holds the file as written by then
    (another writer replaced or rewrote it), or if `chunk.chunk_id` is not
    the id of its token ids, which a read of the file would refuse.
    """
    if not isinstance(store, ChunkStore):
        held, real = ChunkStore._process_store, os.path.realpath(store)
        store = held if held is not None and held.directory == real else ChunkStore(real)
    n_layers = len(chunk.layers)
    n_heads, n, head_dim = chunk.layers[0].keys.shape
    flags = 1 if chunk.rope_applied else 0
    buf = bytearray(_file_size(n_layers, n_heads, n, head_dim))
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, chunk.model_fingerprint, chunk.chunk_id,
                      n_layers, n_heads, head_dim, n, 0, flags, 0)
    written = _chunk_views(buf, _unpack_header(buf))
    written.token_ids[:] = chunk.token_ids
    for dst, src in zip(written.layers, chunk.layers):
        dst.keys[...] = src.keys
        dst.values[...] = src.values
    buf[-_DIGEST_LEN:] = hashlib.sha256(memoryview(buf)[:-_DIGEST_LEN]).digest()
    path = _chunk_path(store.directory, chunk.chunk_id)
    fd, tmp = tempfile.mkstemp(dir=store.directory, prefix=f"{_TMP_PREFIX}{os.getpid()}-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf)
            fh.flush()
            st = os.fstat(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    # Kept only while the name holds the file as written: a rename keeps
    # its inode, size and mtime and moves only the ctime, so another
    # writer's replace or rewrite since the fstat shows here.
    signature = _signature(path)
    if (signature is not None and signature[:3] == (st.st_ino, st.st_size, st.st_mtime_ns)
            and chunk_id(written.token_ids, written.model_fingerprint) == chunk.chunk_id):
        store.put(chunk.chunk_id, (_read_only(written), signature), written.file_bytes)
    return path


def _unpack_header(raw: bytes) -> dict:
    (magic, version, fp, stored_id, n_layers, n_heads, head_dim, n, dtype_code, flags, _r) = (
        _HEADER.unpack_from(raw, 0)
    )
    return {
        "magic": magic,
        "version": version,
        "model_fingerprint": fp,
        "chunk_id": stored_id,
        "n_layers": n_layers,
        "n_heads": n_heads,
        "head_dim": head_dim,
        "chunk_len": n,
        "dtype": dtype_code,
        "rope_applied": bool(flags & 1),
    }


def read_header(path) -> dict:
    """Header fields of a chunk file, without any integrity verification.

    Useful for diagnosing files that fail the full load. Only requires the
    file to be at least header-sized.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
    except FileNotFoundError:
        raise ChunkNotFoundError(f"no chunk file at {path}") from None
    if len(raw) < _HEADER.size:
        raise IntegrityError(f"chunk file {path} is shorter than its header")
    h = _unpack_header(raw)
    return {
        **h,
        "magic": h["magic"].decode("ascii", errors="replace"),
        "model_fingerprint": h["model_fingerprint"].hex(),
        "chunk_id": h["chunk_id"].hex(),
        "dtype": "float32" if h["dtype"] == 0 else f"unknown({h['dtype']})",
    }


def verify_chunk_file(path, expect_id: bytes | None = None) -> ChunkKV:
    """Full load of one file path with every integrity check applied.

    The file is read once into a writable buffer; the digest is taken over
    a view of it, and the returned token ids, keys and values are views of
    it too, so a load copies the stored cache once.
    """
    try:
        with open(path, "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            got = fh.readinto(raw)
    except FileNotFoundError:
        raise ChunkNotFoundError(f"no chunk file at {path}") from None
    if got != len(raw):
        raise IntegrityError(f"chunk file {path} read {got} of its {len(raw)} bytes")
    if len(raw) < _HEADER.size + _DIGEST_LEN:
        raise IntegrityError(f"chunk file {path} is truncated")
    body = memoryview(raw)[:-_DIGEST_LEN]
    if hashlib.sha256(body).digest() != raw[-_DIGEST_LEN:]:
        raise IntegrityError(f"chunk file {path} fails its content digest")
    h = _unpack_header(body)
    if h["magic"] != MAGIC:
        raise IntegrityError(f"chunk file {path} has bad magic {h['magic']!r}")
    if h["version"] != VERSION:
        raise IntegrityError(f"chunk file {path} has unsupported version {h['version']}")
    if h["dtype"] != 0:
        raise IntegrityError(f"chunk file {path} has unknown dtype code {h['dtype']}")
    stored_id = h["chunk_id"]
    if expect_id is not None and stored_id != expect_id:
        raise IntegrityError(
            f"chunk file {path} holds id {stored_id.hex()}, expected {expect_id.hex()}"
        )
    if len(raw) != _file_size(h["n_layers"], h["n_heads"], h["chunk_len"], h["head_dim"]):
        raise IntegrityError(f"chunk file {path} has wrong payload size")
    chunk = _chunk_views(raw, h)
    if chunk_id(chunk.token_ids, chunk.model_fingerprint) != chunk.chunk_id:
        raise IntegrityError(f"chunk file {path} id does not match its own content")
    return chunk


def _chunk_views(raw, h: dict) -> ChunkKV:
    """The chunk laid out in `raw` as a file whose unpacked header is `h`;
    its token ids, keys and values are views of `raw`."""
    n_layers, n_heads, n, head_dim = h["n_layers"], h["n_heads"], h["chunk_len"], h["head_dim"]
    offset = _HEADER.size
    token_ids = np.frombuffer(raw, dtype="<u4", count=n, offset=offset)
    offset += 4 * n
    count = n_layers * n_heads * n * head_dim
    shape = (n_layers, n_heads, n, head_dim)
    keys = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape)
    offset += count * 4
    values = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape)
    layers = [
        LayerKV(keys=keys[l], values=values[l], rope_applied=h["rope_applied"])
        for l in range(n_layers)
    ]
    return ChunkKV(chunk_id=h["chunk_id"], token_ids=token_ids, layers=layers,
                   model_fingerprint=h["model_fingerprint"])


def _read_only(chunk: ChunkKV) -> ChunkKV:
    """`chunk`, its arrays made read-only, as a store holds it."""
    for array in [chunk.token_ids] + [a for l in chunk.layers for a in (l.keys, l.values)]:
        array.flags.writeable = False
    return chunk


def load_chunk(cid: bytes | str, store) -> ChunkKV:
    """The verified chunk `cid` from `store`, a `ChunkStore` or a directory
    path; integrity failures never return garbage.

    A store serves it as `ChunkStore.load` does: resident while its file's
    signature is unchanged, otherwise read and verified, with read-only
    arrays. A path reads and verifies the file and keeps nothing. Every
    chunk a prefill takes from a store passes through here, so a tracer
    that wraps this function sees each one, resident or read; the store's
    `reads` and `bytes_read` count the files among them.
    """
    if isinstance(store, ChunkStore):
        return store.load(cid)
    return _read_chunk(cid, store)


def _read_chunk(cid: bytes | str, directory) -> ChunkKV:
    """Read and verify the file of chunk `cid` in `directory`."""
    if isinstance(cid, str):
        cid = bytes.fromhex(cid)
    path = _chunk_path(directory, cid)
    if not os.path.exists(path):
        raise ChunkNotFoundError(f"no chunk {cid.hex()} in {directory}")
    return verify_chunk_file(path, expect_id=cid)


# ---------------------------------------------------------------------------
# Residency

# Bytes the process's chunk store keeps resident: chunks (a chunk's file
# size, 1.97 MB at the benchmark shape), whether verified from their files
# or kept as `store_chunk` wrote them, plus the prefix entries `fusion`
# keeps there, counted at their arrays' bytes: a system's layers 0-1
# (0.74 MB) and a document prefix's layer-1 inputs (0.12 MB). An entry
# larger than the whole budget is never kept.
RESIDENT_BYTES = 26 * 2**20


def _signature(path: str) -> tuple[int, int, int, int] | None:
    """(inode, size, mtime, ctime) of the file at `path`, None if it is gone.

    A write in place moves the ctime and `os.replace` the inode. With
    multigrain timestamps (Linux 6.13 and later on ext4, xfs, btrfs and
    tmpfs) the first change after a `stat` gets a fine-grained ctime, so a
    write within one clock tick of the previous change is seen too; an
    older kernel may stamp such a write with the ctime it already had.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class ChunkStore:
    """A chunk directory plus one LRU of resident entries under `RESIDENT_BYTES`.

    A chunk becomes resident when `load` reads and verifies its file, or
    when `store_chunk` writes it: then the buffer it hashed and wrote is
    kept, without reading the file back. Each entry is held under its
    file's stat signature: for a load, the one taken before the read; for
    a store, the one taken after the replace. `load` serves a resident
    chunk while the signature is unchanged; a changed one drops the entry
    and reads and verifies the file again, and a missing file raises
    `ChunkNotFoundError` even while resident. So each byte served was
    either verified from the file by this process's SHA-256 check or
    hashed and written by this process under the id of its token ids, and
    the file's signature has not changed since. A failed verification
    caches nothing. Resident arrays
    are read-only, and callers copy before they write. Other entries (the
    prefix entries of `fusion`) share the LRU and the budget through `get`
    and `put`.
    """

    _process_store: ChunkStore | None = None

    def __init__(self, directory):
        self.directory = os.fspath(directory)
        # key -> (value, nbytes), the least recently used first; a chunk's
        # value is the pair (chunk, signature).
        self._entries: OrderedDict = OrderedDict()
        self.resident_bytes = 0
        # Chunk files `load` has read and verified, and their bytes.
        self.reads = 0
        self.bytes_read = 0

    @classmethod
    def of(cls, directory) -> ChunkStore:
        """The process's one store, for `directory` by its real path; a
        store for another directory replaces it. `store_chunk` given a path
        uses the process's store only if it is already that directory's."""
        real = os.path.realpath(directory)
        if cls._process_store is None or cls._process_store.directory != real:
            cls._process_store = cls(real)
        return cls._process_store

    def get(self, key):
        """The entry under `key`, now the most recently used; None if absent."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key][0]

    def put(self, key, value, nbytes: int) -> None:
        """Keep `value` under `key` as the most recently used entry, then
        drop the least recently used ones until the budget holds. A value
        larger than the whole budget replaces what `key` held with nothing
        and drops no other entry."""
        self._drop(key)
        if nbytes > RESIDENT_BYTES:
            return
        self._entries[key] = (value, nbytes)
        self.resident_bytes += nbytes
        while self.resident_bytes > RESIDENT_BYTES:
            self.resident_bytes -= self._entries.popitem(last=False)[1][1]

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.resident_bytes -= entry[1]

    def load(self, cid: bytes | str) -> ChunkKV:
        """The verified chunk `cid` with read-only arrays; `reads` and
        `bytes_read` count it if it was read from its file rather than
        served resident."""
        if isinstance(cid, str):
            cid = bytes.fromhex(cid)
        signature = _signature(_chunk_path(self.directory, cid))
        resident = self._entries.get(cid)
        if resident is not None:
            chunk, held = resident[0]
            if held == signature:
                self._entries.move_to_end(cid)
                return chunk
            self._drop(cid)
        chunk = _read_only(_read_chunk(cid, self.directory))
        self.reads += 1
        self.bytes_read += chunk.file_bytes
        if signature is not None:
            self.put(cid, (chunk, signature), chunk.file_bytes)
        return chunk


# ---------------------------------------------------------------------------
# Segments and concatenation


@dataclass(frozen=True)
class Span:
    kind: str  # "system" | "document" | "question"
    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass
class SegmentMap:
    spans: list[Span]

    def __post_init__(self) -> None:
        if not self.spans:
            raise InputError("segment map needs at least one span")
        offset = 0
        for span in self.spans:
            if span.start != offset or span.length < 0:
                raise InputError("spans must be contiguous and non-overlapping from offset 0")
            offset = span.stop
        if self.spans[0].kind != "system":
            raise InputError("first span must be the system span")
        if self.spans[-1].kind != "question":
            raise InputError("last span must be the question span")
        kinds = [s.kind for s in self.spans]
        if kinds.count("system") != 1 or kinds.count("question") != 1:
            raise InputError("exactly one system span and one question span required")
        if any(k == "question" for k in kinds[:-1]) or any(
            k not in ("system", "document", "question") for k in kinds
        ):
            raise InputError("span roles must be system, document(i), question")

    @property
    def n(self) -> int:
        return self.spans[-1].stop

    @property
    def question_span(self) -> Span:
        return self.spans[-1]

    def document_spans(self) -> list[Span]:
        return [s for s in self.spans if s.kind == "document"]

    def offsets(self, kind: str) -> np.ndarray:
        parts = [np.arange(s.start, s.stop) for s in self.spans if s.kind == kind]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64)

    def document_offsets(self) -> np.ndarray:
        return self.offsets("document")

    def protected_offsets(self) -> np.ndarray:
        return np.sort(np.concatenate([self.offsets("system"), self.offsets("question")]))

    def with_question_length(self, q_len: int) -> "SegmentMap":
        head = self.spans[:-1]
        q = self.spans[-1]
        return SegmentMap(head + [Span("question", q.start, q_len)])


@dataclass
class FusedCache:
    keys: np.ndarray  # (L, H, n, hd) float32
    values: np.ndarray  # (L, H, n, hd) float32
    segments: SegmentMap
    rope_recovered: bool
    local_rotation: bool
    token_ids: np.ndarray  # (n,) uint32, system + documents

    @property
    def n(self) -> int:
        return int(self.keys.shape[2])


def concat_chunks(chunks: list[ChunkKV]) -> FusedCache:
    """Concatenate system + document chunks along the token axis.

    The first chunk is the system span; the rest are documents in order.
    Question tokens are never cached: the question span enters as a
    zero-length placeholder until fused prefill appends fresh rows.
    """
    if not chunks:
        raise InputError("need at least one chunk (the system span)")
    fp = chunks[0].model_fingerprint
    for c in chunks[1:]:
        if c.model_fingerprint != fp:
            raise FingerprintError("chunks come from different model configurations")
    rotated = {c.rope_applied for c in chunks}
    if len(rotated) > 1:
        raise ContractViolation("cannot mix rotated and unrotated chunks")
    local_rotation = rotated.pop()
    n_layers = len(chunks[0].layers)
    n_heads, _, head_dim = chunks[0].layers[0].keys.shape
    n = sum(c.length for c in chunks)
    keys = np.empty((n_layers, n_heads, n, head_dim), dtype=DTYPE)
    values = np.empty_like(keys)
    spans, offset = [], 0
    for c in chunks:
        if len(c.layers) != n_layers:
            raise ShapeError(f"chunks disagree on layer count: {len(c.layers)} vs {n_layers}")
        span = slice(offset, offset + c.length)
        for l, layer in enumerate(c.layers):
            keys[l, :, span] = layer.keys
            values[l, :, span] = layer.values
        spans.append(Span("document" if spans else "system", offset, c.length))
        offset += c.length
    spans.append(Span("question", offset, 0))
    token_ids = np.concatenate([c.token_ids for c in chunks]).astype(np.uint32)
    return FusedCache(
        keys=keys,
        values=values,
        segments=SegmentMap(spans),
        rope_recovered=False,
        local_rotation=local_rotation,
        token_ids=token_ids,
    )


def recover_positions(fused: FusedCache, config: ModelConfig) -> FusedCache:
    """Rotate every key row at its global offset; values untouched.

    Only valid once, and only on caches built from unrotated chunks:
    rotations compose additively, so a second application would encode
    position 2m.
    """
    if fused.rope_recovered:
        raise ContractViolation("positions already recovered; rotation is not idempotent")
    if fused.local_rotation:
        raise ContractViolation("locally rotated chunks cannot be position-recovered")
    if fused.keys.shape[-1] != config.head_dim:
        raise ShapeError(f"last axis {fused.keys.shape[-1]} != head_dim {config.head_dim}")
    # One table for every layer, and one layer rotated at a time, written
    # back rounded to float32: the bits of `rope_rotate` over the whole
    # cache, without its float64 copy of every layer at once.
    rope = _rope_table(np.arange(fused.n, dtype=np.int64), config)
    for layer in fused.keys:
        layer[...] = _rotate(np.asarray(layer, dtype=_F64), *rope)
    fused.rope_recovered = True
    return fused


def rotate_chunk_local(chunk: ChunkKV, config: ModelConfig) -> ChunkKV:
    """Apply rotation at local positions 0..len-1 (plain-concatenation baseline).

    One cos/sin table serves every layer, since all sit at the same positions.
    """
    if chunk.rope_applied:
        raise ContractViolation("chunk already rotated")
    rope = _rope_table(np.arange(chunk.length, dtype=np.int64), config)
    layers = [
        LayerKV(
            keys=_rotate(np.asarray(l.keys, dtype=_F64), *rope).astype(DTYPE),
            values=l.values,
            rope_applied=True,
        )
        for l in chunk.layers
    ]
    return ChunkKV(
        chunk_id=chunk.chunk_id,
        token_ids=chunk.token_ids,
        layers=layers,
        model_fingerprint=chunk.model_fingerprint,
    )
