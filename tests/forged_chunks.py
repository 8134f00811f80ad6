"""Chunk files written by hand, for tests of what a reader makes of them.

`forge_chunk_file` lays out the file format of `kvfuse.chunkstore` (its
Persistence comment) with any magic and header fields, random float32 keys
and values of the size the header gives plus any number of trailing
payload bytes, a valid SHA-256 digest and, under the model fingerprint
given, the content id of its token ids, so the file passes every check but
those of its magic, its header's fields and its size.
"""

import hashlib
import os
import struct

import numpy as np

from kvfuse import chunkstore

HEADER = struct.Struct("<4sI32s32sIIIIBBH")


def forge_chunk_file(directory, fingerprint: bytes, token_ids, n_layers: int, n_heads: int,
                     head_dim: int, flags: int = 0, version: int = chunkstore.VERSION,
                     dtype: int = 0, magic: bytes = chunkstore.MAGIC, trailing: int = 0,
                     seed: int = 0) -> str:
    """Write the forged chunk file into `directory`, with `trailing` bytes
    after the keys and values; returns its id in hex."""
    ids = np.asarray(token_ids, dtype="<u4")
    cid = chunkstore.chunk_id(ids, fingerprint)
    header = HEADER.pack(magic, version, fingerprint, cid, n_layers, n_heads, head_dim,
                         ids.size, dtype, flags, 0)
    payload = np.random.default_rng(seed).normal(
        size=2 * n_layers * n_heads * ids.size * head_dim).astype("<f4")
    body = header + ids.tobytes() + payload.tobytes() + bytes(trailing)
    with open(os.path.join(os.fspath(directory), cid.hex()), "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())
    return cid.hex()
