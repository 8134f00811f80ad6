"""Workload shapes and the deterministic request generator.

Every token id the program sees comes from here, drawn from counter-based
Philox streams keyed by (seed, stream). A request is therefore a pure
function of (workload, seed, index): the same seed gives the same inputs
whatever order requests are drawn in, and the program receives only the
generated ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kvfuse.bench import _draw_ids

# The acceptance model shape (tests/test_acceptance.py) with the strategy
# and ratio the README documents as the default serving path.
MODEL = dict(n_layers=8, n_heads=4, head_dim=16, d_ff=256, vocab_size=512, seed=101)
STRATEGY = "attention_aware"
RATIO = 0.15

# Stream layout: 0 is the system chunk, 1..library_size the library
# documents; per-request streams sit far above so they never collide.
_REQUEST_BASE = 1 << 32
_FRESH_BASE = 2 << 32

# The percentile behind tpot_tail_ms; every workload has hundreds of
# decode gaps per run or more.
TPOT_TAIL_PCT = 95

# Requests drawn for warm-up use indices from here on, disjoint from the
# timed indices 0, 1, 2, ...
WARMUP_INDEX = 1 << 24

# The quality sample is drawn from this seed in every run, so token
# agreement is a function of the program alone and not of --seed.
QUALITY_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    system_len: int
    doc_len: int
    library_size: int  # 0: every request brings never-seen documents
    docs_per_request: int
    question_len: int
    gen_len: int
    evict_capacity: int | None
    # The percentile behind ttft_tail_ms: a step below the highest with at
    # least ten samples beyond it in an untraced 20 s run on a 2-core
    # machine, so that slower runs still have about ten. Fixed rather than
    # derived from each run's sample count, so a faster program is compared
    # at the same quantile as a slower one.
    ttft_tail_pct: int
    # Median times, in ms, of measure.HostProbe's (prefill, decode) kernels
    # for this workload on a 2-vCPU Intel Xeon VM at 2.0 GHz while its host
    # was in its faster state: the host speed that timings are scaled to.
    probe_reference_ms: tuple[float, float]

    @property
    def n(self) -> int:
        return self.system_len + self.docs_per_request * self.doc_len + self.question_len

    @property
    def decode_rows(self) -> int:
        """Cache rows per layer and head that decoding starts from."""
        return self.n if self.evict_capacity is None else min(self.n, self.evict_capacity)


# Why each workload exists (BENCHMARK.json carries the same reasons):
#   rag_shared   the paper's serving case at the test_01 shape; fused prefill
#                dominates and chunk loads repeat across requests.
#   ingest_cold  every request precomputes and stores two never-seen
#                documents first; writes sit beside reads and only the
#                system chunk repeats, so a chunk cache has nothing to hit.
#   long_answer  a short context compacted by eviction, then 256 tokens;
#                decode is over 90% of the request.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rag_shared", system_len=480, doc_len=480, library_size=16,
                 docs_per_request=2, question_len=24, gen_len=16, evict_capacity=None,
                 ttft_tail_pct=70, probe_reference_ms=(3.5, 6.0)),  # about 40 requests
        Workload("ingest_cold", system_len=480, doc_len=480, library_size=0,
                 docs_per_request=2, question_len=24, gen_len=16, evict_capacity=None,
                 ttft_tail_pct=55, probe_reference_ms=(3.5, 6.0)),  # about 25 requests
        Workload("long_answer", system_len=64, doc_len=128, library_size=16,
                 docs_per_request=2, question_len=16, gen_len=256, evict_capacity=192,
                 ttft_tail_pct=60, probe_reference_ms=(3.5, 2.3)),
        # 25 to 50 requests; decode speed varies most
    )
}


@dataclass(frozen=True)
class Request:
    documents: tuple  # token id arrays, in context order
    library_picks: tuple  # library index of each document; empty when fresh
    question: np.ndarray

    @property
    def fresh(self) -> bool:
        return not self.library_picks


class RequestGenerator:
    """The system chunk, the document library, and request `index` of a run."""

    def __init__(self, workload: Workload, seed: int, vocab: int):
        self.workload = workload
        self.seed = int(seed)
        self.vocab = vocab
        self.system = _draw_ids(self.seed, 0, workload.system_len, vocab)
        self.library = [
            _draw_ids(self.seed, 1 + i, workload.doc_len, vocab) for i in range(workload.library_size)
        ]

    def request(self, index: int) -> Request:
        w = self.workload
        gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, _REQUEST_BASE + index], dtype=np.uint64))
        )
        if w.library_size:
            picks = tuple(int(i) for i in gen.choice(w.library_size, w.docs_per_request, replace=False))
            docs = tuple(self.library[i] for i in picks)
        else:
            picks = ()
            docs = tuple(
                _draw_ids(self.seed, _FRESH_BASE + index * w.docs_per_request + j, w.doc_len, self.vocab)
                for j in range(w.docs_per_request)
            )
        question = gen.integers(0, self.vocab, size=w.question_len).astype(np.int64)
        return Request(documents=docs, library_picks=picks, question=question)
