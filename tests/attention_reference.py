"""Float64 reference attention and the float32 round-off bound that
`model.attention` and `DecodeCache.attend` must stay within of it.

Both kernels follow one precision rule: scale the queries by 1/sqrt(hd) and
round them to float32 once, take keys and values as float32, run the score
product, the softmax core and the value product in float32, and divide by
the sums in float64. The tests that check them against the untiled float64
formulation below share `float32_error_bound`.
"""

import numpy as np

from kvfuse.model import tile_end

EPS32 = float(np.finfo(np.float32).eps)


def cache_layer(keys, values, dtype=np.float32, end=None):
    """Rows (H, n, hd) laid out as one layer of the cache `model.attention`
    reads, through `end` columns, `tile_end(n)` unless given, as the
    prefills pass a `kv_buffers` layer: keys (H, hd, end) and values (H,
    hd + 1, end) whose last row is ones, the spare columns past n zero
    but for that row. A query at position n or later sees spare columns,
    so a check that puts one there passes `end=n`."""
    h, n, hd = keys.shape
    end = tile_end(n) if end is None else end
    k = np.zeros((h, hd, end), dtype=dtype)
    v = np.zeros((h, hd + 1, end), dtype=dtype)
    k[:, :, :n] = np.swapaxes(keys, 1, 2)
    v[:, :hd, :n] = np.swapaxes(values, 1, 2)
    v[:, hd] = 1.0
    return k, v


def where_weights(q, k, q_pos, k_pos):
    """The masked softmax written as one np.where over the whole matrix."""
    scores = np.matmul(q, k.transpose(0, 2, 1)) * (1.0 / np.sqrt(q.shape[2]))
    hidden = k_pos[None, :] > q_pos[:, None]
    scores = np.where(hidden[None, :, :], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def where_attention(q, k, v, q_pos, k_pos):
    """Causal attention in float64, untiled: `where_weights` times the values."""
    k, v = np.asarray(k, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return where_weights(np.asarray(q, dtype=np.float64), k, q_pos, k_pos) @ v


def float32_error_bound(q, k, v, q_pos, k_pos):
    """Per head and query row, (H, rows), a bound on the distance, in any
    coordinate, of float32 attention from `where_attention` over q, k, v.

    To first order in u = eps32 / 2, for a row that sees n keys, with V the
    largest |v| it sees: the query is scaled, q' = q / sqrt(hd), and
    rounded to float32, and each score is a float32 sum of hd products, so
    a score is off by at most (hd + 1) u S, with S = max_i sum_d |q'_d k_id|,
    plus D_i = sum_d |q'_d| |k_id - fl32(k_id)| where the keys are rounded
    to float32. The shift by the row maximum is a uniform shift, which
    cancels, but it rounds t_i = s_i - max by at most u |t_i|; float32 `exp`
    is within 3 eps32 relative (NumPy's read at most 1.8 eps32 over 2e7
    arguments in [-90, 0]). These perturb each weight w_i by a relative
    rho_i, and the output sum_i w_i v_i by at most
    sum_i w_i |rho_i| |v_i - out| <= 2 V sum_i w_i |rho_i|. There
    sum_i w_i |t_i| <= ln n: it equals the entropy of w, at most ln n, less
    ln sum_i exp(t_i), which is >= 0 as the largest t_i is 0. The sum of
    the exponentials and the product with the values are each a float32
    sum of n nonzero terms (a hidden key adds an exact zero), off in any
    order by at most (n - 1) u times the sum of the magnitudes, itself at
    most V times the sum of the exponentials. Values rounded to float32
    move the output by at most max_i |v_i - fl32(v_i)|. The float64 divide
    and the float64 reference add only multiples of 2**-53. In all:

        eps32 V ((hd + 1) S + 6 + ln n + (n - 1)) + 2 V max_i D_i
            + max_i |v_i - fl32(v_i)|,

    the maxima over the keys the row sees. For keys and values that are
    already float32 the last two terms are 0. The n - 1 term bounds every
    summation order and dominates at large n.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    hd = q.shape[-1]
    visible = np.asarray(k_pos)[None, None, :] <= np.asarray(q_pos)[None, :, None]

    def seen_max(per_key):  # (H, rows or 1, keys) -> (H, rows), over the keys a row sees
        return np.where(visible, per_key, 0).max(axis=-1)

    scaled = np.abs(q / np.sqrt(hd))
    s = seen_max(scaled @ np.abs(k).transpose(0, 2, 1))
    d = seen_max(scaled @ np.abs(k - k.astype(np.float32)).transpose(0, 2, 1))
    big_v = seen_max(np.abs(v).max(axis=-1)[:, None])
    dv = seen_max(np.abs(v - v.astype(np.float32)).max(axis=-1)[:, None])
    n = visible.sum(axis=-1)
    units = (hd + 1) * s + 6 + np.log(n) + (n - 1)
    return EPS32 * big_v * units + 2 * big_v * d + dv
