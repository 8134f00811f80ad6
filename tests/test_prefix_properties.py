"""Property check of the layer-0 entries that `fused_prefill` keeps in its store.

A run of requests with random chunk lengths, document counts, document
orders, chunk edges and strategies goes through one warm `ChunkStore`,
under a budget that is either the real one or small enough to evict
entries and chunks between and inside the requests. Every request must
give, bit for bit, what it gives on a cold store. Pieces of up to 80
tokens put chunk edges on both sides of the 32-row attention tile edges
and on them, so entries cover whole documents, parts of them and nothing
at all, and the same tile-aligned piece lands at more than one position.
Requests cut the same leading tokens at other offsets too, so one entry
end is reached from other starts and under systems of other lengths;
100 examples build that case in most runs.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvfuse import chunkstore as CS
from kvfuse import fusion as FU
from kvfuse import model as M

SETTINGS = settings(max_examples=100, deadline=None)

MODEL = M.build_model(M.ModelConfig(n_layers=3, n_heads=2, head_dim=8, d_ff=32,
                                    vocab_size=64, seed=23))


@st.composite
def request_runs(draw):
    """A library of 3 token pieces, one or two orders of it, and 2 to 6
    requests, each with its own question and strategy; plus the store's
    budget. A request takes the leading tokens of one order's pieces and
    cuts them into 2 to 4 chunks, mostly at piece edges: the first chunk
    is the system, the others are documents. Few orders make requests
    share their leading tokens often, cut at the same places or others."""
    length = st.integers(1, 31) | st.integers(32, 80) | st.sampled_from([32, 64])
    lengths = draw(st.lists(length, min_size=3, max_size=3), label="lengths")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="ids seed"))
    library = [rng.integers(0, MODEL.config.vocab_size, size=n) for n in lengths]
    orders = draw(st.lists(st.permutations(library), min_size=1, max_size=2), label="orders")
    runs = []
    for _ in range(draw(st.integers(2, 6), label="requests")):
        pieces = draw(st.sampled_from(orders))
        tokens = np.concatenate(pieces)
        n = tokens.size
        edges = [int(e) for e in np.cumsum([len(p) for p in pieces]) if e < n]
        cut = st.sampled_from(edges) | st.integers(1, n - 1) if edges else st.integers(1, n - 1)
        chunks = np.split(tokens[:n], sorted(draw(st.sets(cut, min_size=1, max_size=3))))
        question = rng.integers(0, MODEL.config.vocab_size, size=draw(st.integers(1, 8)))
        plan = FU.FusionPlan(draw(st.sampled_from(FU.STRATEGIES)), r=0.3, head_tail_k=3)
        runs.append((FU.InputSegments(chunks[0], chunks[1:], question), plan))
    budget = draw(st.sampled_from([CS.RESIDENT_BYTES, 40_000, 100_000]), label="budget")
    return runs, budget


def same_prefill(a, b) -> bool:
    (pa, la, ta), (pb, lb, tb) = a, b
    scores = [np.zeros(0) if t.scores_doc is None else t.scores_doc for t in (ta, tb)]
    return (la.tobytes() == lb.tobytes() and pa.keys.tobytes() == pb.keys.tobytes()
            and pa.values.tobytes() == pb.values.tobytes()
            and pa.question_queries.tobytes() == pb.question_queries.tobytes()
            and scores[0].tobytes() == scores[1].tobytes() and ta.selected == tb.selected
            and np.array_equal(pa.patched_offsets, pb.patched_offsets))


@SETTINGS
@given(request_runs())
def test_a_warm_store_gives_the_bits_of_a_cold_one(case):
    runs, budget = case
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(CS, "RESIDENT_BYTES", budget):
        for segments, _ in runs:
            for ids in segments.context_chunks():
                CS.store_chunk(CS.precompute_chunk(ids, MODEL), directory)
        warm = CS.ChunkStore(directory)
        for segments, plan in runs:
            got = FU.fused_prefill(MODEL, segments, plan, warm)
            assert warm.resident_bytes <= budget
            expect = FU.fused_prefill(MODEL, segments, plan, CS.ChunkStore(directory))
            assert same_prefill(got, expect)
            assert expect[2].reused_rows == 0
