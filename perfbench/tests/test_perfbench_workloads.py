import numpy as np
import pytest

from workloads import MODEL, WORKLOADS, RequestGenerator

VOCAB = MODEL["vocab_size"]


def _request_arrays(gen, index):
    req = gen.request(index)
    return [*req.documents, req.question]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_requests(name):
    w = WORKLOADS[name]
    a, b = RequestGenerator(w, 5, VOCAB), RequestGenerator(w, 5, VOCAB)
    np.testing.assert_array_equal(a.system, b.system)
    # Drawing order does not matter: request 3 is the same first or last.
    first = _request_arrays(b, 3)
    for index in range(6):
        for x, y in zip(_request_arrays(a, index), _request_arrays(b, index)):
            np.testing.assert_array_equal(x, y)
    for x, y in zip(_request_arrays(a, 3), first):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_requests(name):
    w = WORKLOADS[name]
    a, b = RequestGenerator(w, 5, VOCAB), RequestGenerator(w, 6, VOCAB)
    assert not np.array_equal(a.system, b.system)
    assert not np.array_equal(a.request(0).question, b.request(0).question)


@pytest.mark.parametrize(
    "name, n, gen_len", [("rag_shared", 1464, 16), ("ingest_cold", 1464, 16), ("long_answer", 336, 256)]
)
def test_stated_shape(name, n, gen_len):
    w = WORKLOADS[name]
    gen = RequestGenerator(w, 1, VOCAB)
    assert w.n == n and w.gen_len == gen_len
    for index in range(10):
        req = gen.request(index)
        assert len(gen.system) + sum(len(d) for d in req.documents) + len(req.question) == n
        for part in (gen.system, *req.documents, req.question):
            assert part.min() >= 0 and part.max() < VOCAB


@pytest.mark.parametrize("name", ["rag_shared", "long_answer"])
def test_library_documents_are_reused(name):
    w = WORKLOADS[name]
    gen = RequestGenerator(w, 2, VOCAB)
    assert len(gen.library) == 16
    seen = []
    for index in range(40):
        req = gen.request(index)
        assert len(set(req.library_picks)) == 2
        for pick, doc in zip(req.library_picks, req.documents):
            np.testing.assert_array_equal(doc, gen.library[pick])
        seen.extend(req.library_picks)
    # 80 draws from 16 documents: loads repeat across requests.
    assert len(set(seen)) <= 16 < len(seen)


def test_ingest_documents_are_never_seen_before():
    w = WORKLOADS["ingest_cold"]
    gen = RequestGenerator(w, 2, VOCAB)
    assert gen.library == []
    docs = []
    for index in range(20):
        req = gen.request(index)
        assert req.fresh and len(req.documents) == 2
        docs.extend(d.tobytes() for d in req.documents)
    docs.append(gen.system.tobytes())
    assert len(set(docs)) == len(docs)


def test_eviction_budget():
    w = WORKLOADS["long_answer"]
    protected = w.system_len + w.question_len
    # Capacity must exceed the protected rows and fall below n, so that
    # eviction drops document rows and still keeps some.
    assert w.evict_capacity == 192
    assert protected < w.evict_capacity < w.n
    assert WORKLOADS["rag_shared"].evict_capacity is None
    assert WORKLOADS["ingest_cold"].evict_capacity is None
