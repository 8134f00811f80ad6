"""Capacity-bounded cache compaction after the first generated token.

Every cached row is scored per layer and per head by the question rows'
attention (`fusion.question_attention`), summed over the question rows
and max-pooled along the position axis with the fixed width
`POOL_KERNEL`, as in SnapKV. System and question rows are always kept;
document rows compete for the remaining capacity independently in each
layer and head, by `fusion._top_p` (ties to the lower offset). Eviction
happens exactly once; rows appended during decoding are never evicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chunkstore import FusedCache
from .errors import ConfigError, ContractViolation
from .fusion import _top_p, question_attention
from .model import DecodeCache, _is_int, kv_buffers

POOL_KERNEL = 7  # max-pool width over positions, in rows


def _max_pool(x: np.ndarray) -> np.ndarray:
    """Max over a centred window of `POOL_KERNEL` positions along the last
    axis, with the edge values repeated past either end. A maximum is one of
    its inputs, so the result holds the input's bits."""
    half, n = POOL_KERNEL // 2, x.shape[-1]
    padded = np.concatenate([np.repeat(x[..., :1], half, axis=-1), x,
                             np.repeat(x[..., -1:], half, axis=-1)], axis=-1)
    out = padded[..., :n].copy()
    for shift in range(1, POOL_KERNEL):
        np.maximum(out, padded[..., shift:shift + n], out=out)
    return out


@dataclass(frozen=True)
class EvictionPolicy:
    capacity: int

    def __post_init__(self) -> None:
        if not _is_int(self.capacity) or self.capacity < 1:
            raise ConfigError(f"capacity must be an integer >= 1, got {self.capacity!r}")

    def check_protected(self, protected: int) -> None:
        """Refuse a capacity with no room beyond the `protected` system and
        question rows, which are always kept. Callers that know both lengths
        before any prefill call it early; `evict` calls it again."""
        if self.capacity <= protected:
            raise ConfigError(
                f"capacity {self.capacity} must exceed protected span size {protected}"
            )


class CompactedCache(DecodeCache):
    """Dense per-layer per-head retained rows plus their original offsets.

    Retained counts are uniform (min(n, capacity)), so storage stays a
    dense block; which offsets survive differs per layer and head, and
    `index_map` records the retained -> original mapping. Keys keep their
    original rotation; only membership changes.
    """

    def __init__(self, keys, values, index_map, original_length):
        # keys/values: `kv_buffers` holding the kept rows, adopted.
        super().__init__(keys, values, index_map.shape[2])
        self._max_pos = original_length - 1
        self.index_map = index_map  # (L, H, kept) int64
        self.kept = int(index_map.shape[2])
        self.original_length = int(original_length)

    def summary(self) -> dict:
        return {
            "kept_per_layer_head": self.kept,
            "original_length": self.original_length,
            "resident_floats": self.resident_floats(),
        }


def snap_scores(cache: FusedCache) -> np.ndarray:
    """Pooled question attention per layer, head, and position.

    The question rows' weights over all causally visible positions are
    summed over the rows and max-pooled (width `POOL_KERNEL`, stride 1,
    edges clamped). Returns (n_layers, n_heads, n) float64 over all
    offsets; the caller decides which offsets compete.
    """
    if not cache.rope_recovered or cache.question_queries is None:
        raise ContractViolation("eviction scoring needs a position-recovered cache "
                                "from fused_prefill")
    window = cache.question_queries
    summed = np.empty((window.shape[0], window.shape[1], cache.n))
    for l in range(window.shape[0]):
        summed[l] = question_attention(window[l], cache.keys[l], cache.segments).sum(axis=1)
    return _max_pool(summed)


def evict(cache: FusedCache, policy: EvictionPolicy) -> CompactedCache:
    """Compact to `policy.capacity` rows per layer per head.

    Retained = all system/question offsets plus the top capacity - |S| - |Q|
    document offsets by `snap_scores`. With capacity >= n everything
    survives, and nothing is scored.
    """
    segmap = cache.segments
    n = cache.n
    protected = segmap.protected_offsets()
    policy.check_protected(protected.size)
    doc = segmap.document_offsets()
    budget = policy.capacity - protected.size
    kept = min(n, policy.capacity)
    scores = snap_scores(cache) if budget < doc.size else None
    n_layers, n_heads, hd = cache.key_buffer.shape[:3]
    index_map = np.empty((n_layers, n_heads, kept), dtype=np.int64)
    # The kept rows go straight into the decode layout, column by column.
    keys, values = kv_buffers(n_layers, n_heads, hd, kept)
    everything = np.arange(n, dtype=np.int64)
    for l in range(n_layers):
        for h in range(n_heads):
            if scores is None:
                retained = everything
            else:
                top = _top_p(scores[l, h, doc], doc, budget)
                retained = np.sort(np.concatenate([protected, top]))
            index_map[l, h] = retained
            np.take(cache.key_buffer[l, h], retained, axis=1, out=keys[l, h, :, :kept])
            np.take(cache.value_buffer[l, h, :hd], retained, axis=1, out=values[l, h, :hd, :kept])
    return CompactedCache(keys, values, index_map, n)
