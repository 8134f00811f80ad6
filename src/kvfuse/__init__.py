"""Chunked KV-cache fusion on a deterministic toy transformer.

Modules:
  model      toy decoder-only transformer (the no-reuse oracle)
  chunkstore per-chunk KV precompute, binary persistence, resident chunks,
             position recovery
  fusion     selective recomputation pipeline and the reuse baselines
  eviction   capacity-bounded cache compaction after the first token
  bench      quality metrics, FLOP accounting, and report generation
  cli        operator commands (precompute / generate / bench / inspect)
"""

from .errors import (
    AssertionFailure,
    ChunkNotFoundError,
    ConfigError,
    ContractViolation,
    FingerprintError,
    InputError,
    IntegrityError,
    KVFuseError,
    ShapeError,
)
from .bench import BenchConfig, InputRecipe, run_bench
from .chunkstore import (
    ChunkKV,
    ChunkStore,
    FusedCache,
    concat_chunks,
    load_chunk,
    precompute_chunk,
    recover_positions,
    split_into_chunks,
    store_chunk,
)
from .eviction import CompactedCache, EvictionPolicy, evict, snap_scores
from .fusion import (
    STRATEGIES,
    FusionPlan,
    FusionTrace,
    InputSegments,
    fused_prefill,
)
from .model import (
    DecodeCache,
    Model,
    ModelConfig,
    ModelWeights,
    build_model,
    decode_step,
    greedy_token,
    prefill_forward,
)

__all__ = [
    "AssertionFailure",
    "BenchConfig",
    "ChunkKV",
    "ChunkNotFoundError",
    "ChunkStore",
    "CompactedCache",
    "ConfigError",
    "ContractViolation",
    "DecodeCache",
    "EvictionPolicy",
    "FingerprintError",
    "FusedCache",
    "FusionPlan",
    "FusionTrace",
    "InputError",
    "InputRecipe",
    "InputSegments",
    "IntegrityError",
    "KVFuseError",
    "Model",
    "ModelConfig",
    "ModelWeights",
    "STRATEGIES",
    "ShapeError",
    "build_model",
    "concat_chunks",
    "decode_step",
    "evict",
    "fused_prefill",
    "greedy_token",
    "load_chunk",
    "precompute_chunk",
    "prefill_forward",
    "recover_positions",
    "run_bench",
    "snap_scores",
    "split_into_chunks",
    "store_chunk",
]

__version__ = "0.1.0"
