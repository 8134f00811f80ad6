"""Capacity-bounded cache compaction after the first generated token.

Question-row attention, pooled along the position axis, scores every
cached row per layer and per head. System and question rows are always
kept; the rest compete for the remaining capacity independently in each
layer and head. Eviction happens exactly once; rows appended during
decoding are never evicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d

from .errors import ConfigError, ContractViolation, InputError
from .fusion import PatchedCache
from .model import DecodeCache, _is_int, attention_weights

DEFAULT_KERNEL = 7


@dataclass(frozen=True)
class EvictionPolicy:
    capacity: int
    kernel: int = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        for name in ("capacity", "kernel"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"pool kernel must be odd and >= 1, got {self.kernel}")


class CompactedCache(DecodeCache):
    """Dense per-layer per-head retained rows plus their original offsets.

    Retained counts are uniform (min(n, capacity)), so storage stays a
    dense block; which offsets survive differs per layer and head, and
    `index_map` records the retained -> original mapping. Keys keep their
    original rotation; only membership changes.
    """

    def __init__(self, keys, values, index_map, original_length):
        super().__init__(keys, values, keys.shape[2])
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


def snap_scores(cache: PatchedCache, kernel: int = DEFAULT_KERNEL) -> np.ndarray:
    """Pooled question-window attention per layer, head, and position.

    The window is the question rows: weights of their true queries over all
    causally visible positions are summed over the window rows and
    max-pooled (width `kernel`, stride 1, edges clamped). Returns
    (n_layers, n_heads, n) float64 over all offsets; the caller decides
    which offsets compete.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"pool kernel must be odd and >= 1, got {kernel}")
    if not cache.rope_recovered:
        raise ContractViolation("eviction scoring needs a position-recovered cache")
    q_span = cache.segments.question_span
    window = cache.question_queries
    if window.shape[2] == 0 or q_span.length == 0:
        raise InputError("observation window (question span) is empty")
    if window.shape[2] != q_span.length:
        raise InputError(f"window has {window.shape[2]} rows, question span {q_span.length}")
    n = cache.n
    q_pos = np.arange(q_span.start, q_span.stop, dtype=np.int64)
    k_pos = np.arange(n, dtype=np.int64)
    out = np.empty((window.shape[0], window.shape[1], n))
    for l in range(window.shape[0]):
        weights = attention_weights(window[l], cache.keys[l], q_pos, k_pos)
        summed = weights.sum(axis=1)  # (H, n)
        out[l] = maximum_filter1d(summed, size=kernel, axis=-1, mode="nearest")
    return out


def evict(cache: PatchedCache, policy: EvictionPolicy, scores: np.ndarray | None = None) -> CompactedCache:
    """Compact to `policy.capacity` rows per layer per head.

    Retained = all system/question offsets plus the top capacity - |S| - |Q|
    scored offsets (ties toward the lower offset). With capacity >= n
    everything survives.
    """
    segmap = cache.segments
    n = cache.n
    protected = segmap.protected_offsets()
    if policy.capacity <= protected.size:
        raise ConfigError(
            f"capacity {policy.capacity} must exceed protected span size {protected.size}"
        )
    doc = segmap.document_offsets()
    budget = policy.capacity - protected.size
    kept = min(n, policy.capacity)
    if scores is None and budget < doc.size:
        scores = snap_scores(cache, kernel=policy.kernel)
    n_layers, n_heads = cache.keys.shape[0], cache.keys.shape[1]
    index_map = np.empty((n_layers, n_heads, kept), dtype=np.int64)
    keys = np.empty((n_layers, n_heads, kept, cache.keys.shape[3]), dtype=cache.keys.dtype)
    values = np.empty_like(keys)
    everything = np.arange(n, dtype=np.int64)
    for l in range(n_layers):
        for h in range(n_heads):
            if budget >= doc.size:
                retained = everything
            else:
                order = np.lexsort((doc, -scores[l, h, doc]))
                retained = np.sort(np.concatenate([protected, doc[order[:budget]]]))
            index_map[l, h] = retained
            keys[l, h] = cache.keys[l, h, retained]
            values[l, h] = cache.values[l, h, retained]
    return CompactedCache(keys, values, index_map, n)

