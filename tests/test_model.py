import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvfuse import chunkstore as CS
from kvfuse import model as M
from kvfuse.errors import ConfigError, ContractViolation, InputError, ShapeError

from attention_reference import cache_layer, float32_error_bound

# Pinned by running the init generator once; guards the weight scheme
# against accidental reordering of tensor streams.
GOLDEN_EMBED_00 = 0.18603672087192535


def small_config(**over):
    base = dict(n_layers=4, n_heads=2, head_dim=8, d_ff=64, vocab_size=32, seed=7)
    base.update(over)
    return M.ModelConfig(**base)


def tiny_rope_config():
    return M.ModelConfig(n_layers=1, n_heads=1, head_dim=2, d_ff=4, vocab_size=8, seed=0)


def test_every_export_resolves_and_init_model_is_gone():
    import kvfuse

    for name in kvfuse.__all__:
        assert hasattr(kvfuse, name), name
    assert "init_model" not in kvfuse.__all__
    assert not hasattr(kvfuse, "init_model") and not hasattr(M, "init_model")


# ---------------------------------------------------------------------------
# Config


def test_config_derives_d_model():
    cfg = small_config()
    assert cfg.d_model == 16


def test_config_rejects_bad_dims():
    with pytest.raises(ConfigError):
        small_config(head_dim=7)
    with pytest.raises(ConfigError):
        small_config(d_model=17)
    with pytest.raises(ConfigError):
        small_config(rope_base=1.0)
    with pytest.raises(ConfigError):
        small_config(n_layers=0)
    with pytest.raises(ConfigError):
        small_config(seed=-1)


def test_config_json_round_trip_and_unknown_keys():
    cfg = small_config()
    again = M.ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        M.ModelConfig.from_dict({**cfg.to_dict(), "bogus": 1})
    with pytest.raises(ConfigError):
        M.ModelConfig.from_dict({"n_layers": 2})
    with pytest.raises(ConfigError):
        M.ModelConfig.from_json("{not json")


def test_fingerprint_covers_seed():
    assert small_config().fingerprint() != small_config(seed=8).fingerprint()
    assert small_config().fingerprint() == small_config().fingerprint()


# ---------------------------------------------------------------------------
# Init


def all_weights(weights):
    yield weights.embedding
    for layer in weights.layers:
        yield from (layer.wqkv, layer.wo, layer.w_in, layer.w_out)
    yield weights.unembed


def test_init_deterministic_bitwise():
    cfg = small_config()
    w1, w2 = M.build_model(cfg).weights, M.build_model(cfg).weights
    for a, b in zip(all_weights(w1), all_weights(w2), strict=True):
        assert a.tobytes() == b.tobytes()


def test_init_seed_sensitivity():
    w7 = M.build_model(small_config()).weights
    w8 = M.build_model(small_config(seed=8)).weights
    for a, b in zip(all_weights(w7), all_weights(w8), strict=True):
        assert not np.array_equal(a, b)


def test_init_range_and_dtype():
    # Every weight is the float32 array drawn, within the draw's bound.
    cfg = small_config()
    bound = 1.0 / np.sqrt(cfg.d_model)
    for w in all_weights(M.build_model(cfg).weights):
        assert w.dtype == np.float32
        assert np.all(np.abs(w) <= bound)


def test_init_golden_first_embedding_entry():
    w = M.build_model(small_config()).weights
    assert w.embedding[0, 0] == np.float32(GOLDEN_EMBED_00)


# ---------------------------------------------------------------------------
# RoPE


def test_rope_identity_at_position_zero():
    cfg = small_config()
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 5, cfg.head_dim))
    out = M.rope_rotate(v, np.zeros(5, dtype=np.int64), cfg)
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_rope_unit_vector_direct_rotation():
    cfg = tiny_rope_config()
    out = M.rope_rotate(np.array([1.0, 0.0]), 1, cfg)
    np.testing.assert_allclose(out, [np.cos(1.0), np.sin(1.0)], atol=1e-12)


def test_rope_norm_preservation():
    cfg = small_config()
    rng = np.random.default_rng(1)
    v = rng.normal(size=(50, cfg.head_dim))
    pos = rng.integers(0, 500, size=50)
    out = M.rope_rotate(v, pos, cfg)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=-1), np.linalg.norm(v, axis=-1), rtol=1e-5
    )


def test_rope_relative_position_identity():
    cfg = small_config()
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.normal(size=cfg.head_dim)
        k = rng.normal(size=cfg.head_dim)
        m, n = sorted(rng.integers(0, 200, size=2))[::-1]
        lhs = float(np.dot(M.rope_rotate(q, m, cfg), M.rope_rotate(k, n, cfg)))
        rhs = float(np.dot(M.rope_rotate(q, m - n, cfg), k))
        assert abs(lhs - rhs) < 1e-5


def test_rope_rejects_bad_shapes():
    cfg = small_config()
    with pytest.raises(ShapeError):
        M.rope_rotate(np.zeros(cfg.head_dim + 1), 0, cfg)
    with pytest.raises(InputError):
        M.rope_rotate(np.zeros(cfg.head_dim), -1, cfg)


# ---------------------------------------------------------------------------
# Attention


def ref_attention(q, k, v, qpos, kpos, scale):
    """Explicit-loop softmax(QK^T * scale)V with a causal mask."""
    H, nq, hd = q.shape
    out = np.zeros((H, nq, hd))
    for h in range(H):
        for i in range(nq):
            visible = [j for j in range(k.shape[1]) if kpos[j] <= qpos[i]]
            logits = np.array([np.dot(q[h, i], k[h, j]) * scale for j in visible])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for w, j in zip(weights, visible):
                out[h, i] += w * v[h, j]
    return out


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(2, 1, 8))
    k = rng.normal(size=(2, 1, 8))
    v = rng.normal(size=(2, 1, 8))
    out = M.attention(q, *cache_layer(k, v), np.array([0]))
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_attention_identical_keys_split_mass():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(1, 1, 4))
    k_row = rng.normal(size=4)
    k = np.stack([k_row, k_row])[None]
    v = rng.normal(size=(1, 2, 4))
    out = M.attention(q, *cache_layer(k, v, end=2), np.array([5]))
    np.testing.assert_allclose(out[0, 0], v[0].mean(axis=0), atol=1e-12)


def test_attention_matches_loop_reference():
    # Enough rows to span two query tiles, the second one partly filled.
    rng = np.random.default_rng(5)
    H, n, hd = 2, M._TILE_ROWS + 12, 6
    q = rng.normal(size=(H, n, hd))
    k = rng.normal(size=(H, n, hd))
    v = rng.normal(size=(H, n, hd))
    pos = np.arange(n)
    out = M.attention(q, *cache_layer(k, v), pos)
    ref = ref_attention(q, k, v, pos, pos, 1.0 / np.sqrt(hd))
    # Within float32 round-off of the float64 loop, per head and row.
    assert np.all(np.abs(out - ref).max(axis=-1) <= float32_error_bound(q, k, v, pos, pos))


def test_attention_rows_sum_to_one_via_constant_values():
    # With all value rows equal to ones, output rows are exactly the
    # softmax row sums: they must be 1.
    rng = np.random.default_rng(6)
    H, n, hd = 2, 7, 4
    q = rng.normal(size=(H, n, hd))
    k = rng.normal(size=(H, n, hd))
    v = np.ones((H, n, hd))
    pos = np.arange(n)
    out = M.attention(q, *cache_layer(k, v), pos)
    np.testing.assert_allclose(out, np.ones_like(out), atol=1e-5)


def test_attention_head_mismatch():
    with pytest.raises(ShapeError):
        M.attention(
            np.zeros((2, 1, 4)), np.zeros((3, 4, 1)), np.zeros((3, 5, 1)), np.array([0]),
        )


# ---------------------------------------------------------------------------
# Prefill


def test_full_prefill_shapes_and_vocab_check():
    cfg = small_config()
    model = M.build_model(cfg)
    res = M.prefill_forward(model, [3])
    assert len(res.caches) == cfg.n_layers
    assert all(c.length == 1 and c.rope_applied for c in res.caches)
    assert res.logits.shape == (cfg.vocab_size,)
    with pytest.raises(InputError):
        M.prefill_forward(model, [cfg.vocab_size])
    with pytest.raises(InputError):
        M.prefill_forward(model, [])


@pytest.mark.parametrize("ids", [
    [1.7, 2.9], [1.0], np.array([1.0, 2.0]), ["3"], np.array(["3"]), [True], [3, False],
    np.array([True, False]), [1, None],
], ids=repr)
def test_token_ids_that_are_not_integers_are_refused(ids):
    model = M.build_model(small_config())
    with pytest.raises(InputError, match="must be integers"):
        M.prefill_forward(model, ids)
    with pytest.raises(InputError, match="must be integers"):
        CS.precompute_chunk(ids, model)


def test_integer_token_ids_of_any_width_are_checked_against_the_vocabulary():
    cfg = small_config()
    for ids in ([1, np.int64(2), 3], (1, 2, 3), np.array([1, 2, 3], np.uint32)):
        got = M._check_tokens(cfg, ids)
        assert got.dtype == np.int64 and got.tolist() == [1, 2, 3]
    # Beyond int64 and uint64, and a mix that NumPy would turn into floats.
    for ids in ([10**23], [-(10**23)], [1, 10**23], [-1, 2**63], np.array([2**63], np.uint64)):
        with pytest.raises(InputError, match="out of vocabulary"):
            M._check_tokens(cfg, ids)


def test_prefill_causality():
    cfg = small_config()
    model = M.build_model(cfg)
    rng = np.random.default_rng(10)
    ids = rng.integers(0, cfg.vocab_size, size=12)
    t = 5
    a = M.prefill_forward(model, ids, record_queries=True)
    mutated = ids.copy()
    mutated[t + 1 :] = rng.integers(0, cfg.vocab_size, size=len(ids) - t - 1)
    b = M.prefill_forward(model, mutated, record_queries=True)
    # Rows <= t of every layer see only tokens <= t; each layer's queries
    # carry the previous layer's output at those rows.
    for l in range(cfg.n_layers):
        np.testing.assert_allclose(a.caches[l].keys[:, : t + 1], b.caches[l].keys[:, : t + 1],
                                   atol=1e-6)
        np.testing.assert_allclose(a.caches[l].values[:, : t + 1],
                                   b.caches[l].values[:, : t + 1], atol=1e-6)
        np.testing.assert_allclose(a.queries[l][:, : t + 1], b.queries[l][:, : t + 1], atol=1e-6)
    assert not np.allclose(a.caches[0].keys[:, t + 1 :], b.caches[0].keys[:, t + 1 :])


def reference_prefill(model, ids):
    """Every row of every layer through block_qkv, attention and block_out."""
    pos = np.arange(len(ids), dtype=np.int64)
    rope = M._rope_table(pos, model.config)
    x = model.weights.embedding[ids]
    keys, values, raw_keys, queries = [], [], [], []
    for l in range(model.config.n_layers):
        q, k, k_raw, v = M.block_qkv(model, l, x, rope)
        keys.append(k.astype(M.DTYPE))
        values.append(v.astype(M.DTYPE))
        raw_keys.append(k_raw.astype(M.DTYPE))
        queries.append(q.astype(M.DTYPE))
        x = M.block_out(model, l, x, M.attention(q, *cache_layer(k, v), pos))
    return M.final_logits(model, x[-1:])[0], keys, values, raw_keys, queries


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 100), st.integers(0, 2**32 - 1))
@example(n=31, seed=0)
@example(n=32, seed=0)
@example(n=33, seed=0)
@example(n=64, seed=0)
def test_prefill_finishing_only_the_last_row_matches_every_row(n, seed):
    # At the last layer prefill attends with the final tile alone and runs
    # block_out for the last row only; every output keeps the bits of the
    # forward that finishes every row.
    cfg = small_config()
    model = M.build_model(cfg)
    ids = np.random.default_rng(seed).integers(0, cfg.vocab_size, size=n)
    res = M.prefill_forward(model, ids, record_queries=True)
    chunk = CS.precompute_chunk(ids, model)
    logits, keys, values, raw_keys, queries = reference_prefill(model, ids)
    assert res.logits.tobytes() == logits.tobytes()
    for l in range(cfg.n_layers):
        assert res.caches[l].keys.tobytes() == keys[l].tobytes()
        assert res.caches[l].values.tobytes() == values[l].tobytes()
        assert chunk.layers[l].keys.tobytes() == raw_keys[l].tobytes()
        assert res.queries[l].tobytes() == queries[l].tobytes()


def test_prefill_bitwise_deterministic():
    cfg = small_config()
    model = M.build_model(cfg)
    rng = np.random.default_rng(11)
    ids = rng.integers(0, cfg.vocab_size, size=20)
    r1 = M.prefill_forward(model, ids)
    r2 = M.prefill_forward(model, ids)
    assert np.array_equal(r1.logits, r2.logits)
    assert all(np.array_equal(a.keys, b.keys) for a, b in zip(r1.caches, r2.caches))


# ---------------------------------------------------------------------------
# Decode


def test_decode_matches_oracle_prefill():
    cfg = small_config()
    model = M.build_model(cfg)
    rng = np.random.default_rng(12)
    ids = rng.integers(0, cfg.vocab_size, size=15)
    cache = M.DecodeCache.from_layer_kvs(cfg, M.prefill_forward(model, ids).caches)
    nxt = 4
    logits = M.decode_step(model, cache, nxt, len(ids))
    oracle = M.prefill_forward(model, np.append(ids, nxt))
    np.testing.assert_allclose(logits, oracle.logits, atol=1e-4)


def test_decode_greedy_matches_incremental_reprefill():
    cfg = small_config()
    model = M.build_model(cfg)
    rng = np.random.default_rng(13)
    ids = list(rng.integers(0, cfg.vocab_size, size=10))
    res = M.prefill_forward(model, ids)
    cache = M.DecodeCache.from_layer_kvs(cfg, res.caches)
    produced = [M.greedy_token(res.logits)]
    for _ in range(2):
        logits = M.decode_step(model, cache, produced[-1], cache.length)
        produced.append(M.greedy_token(logits))
    expected = []
    grow = list(ids)
    for _ in range(3):
        expected.append(M.greedy_token(M.prefill_forward(model, grow).logits))
        grow.append(expected[-1])
    assert produced == expected


def test_decode_cache_grows_by_one():
    cfg = small_config()
    model = M.build_model(cfg)
    cache = M.DecodeCache.from_layer_kvs(cfg, M.prefill_forward(model, [1, 2, 3]).caches)
    assert cache.length == 3
    M.decode_step(model, cache, 0, 3)
    assert cache.length == 4
    assert cache.resident_floats() == cfg.n_layers * cfg.n_heads * 4 * cfg.head_dim * 2
    with pytest.raises(ContractViolation):
        M.decode_step(model, cache, 0, 3)


def test_greedy_token_shift_invariant():
    logits = np.array([0.3, -0.1, 0.9, 0.2], dtype=np.float32)
    assert M.greedy_token(logits) == M.greedy_token(logits + 5.0)
