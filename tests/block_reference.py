"""Float64 reference of the transformer block and the float32 round-off
bound that `model.block_qkv` and `model.block_out` must stay within of it.

The blocks run in float32: the RMS norms, the products with the float32
weights and the feed-forward. Only the rotation of the q and k heads runs
in float64, on the float32 heads, by the (cos, sin) table the caller
passes. The reference restates both halves in float64 over the same
weights and table and uses none of `model`'s block helpers.

The bounds are first order in u = eps32 / 2, each derived beside the step
it covers, and scaled by `SLACK` for the second-order terms, which are
below u times the first-order ones.
"""

import numpy as np

U = float(np.finfo(np.float32).eps) / 2  # float32 unit round-off
U64 = 2.0**-53
NORM_EPS = 1e-6
EXP_ERROR = 3 * float(np.finfo(np.float32).eps)  # float32 exp, relative (attention_reference)
SILU_SLOPE = 1.1  # the largest |silu'(f)| is 1.0998, near f = 2.4
SLACK = 1.01


def split_heads(y, n_heads, head_dim):
    # (rows, n_heads * head_dim) -> (n_heads, rows, head_dim)
    return y.reshape(y.shape[0], n_heads, head_dim).swapaxes(0, 1)


def merge_heads(y):
    # (n_heads, rows, head_dim) -> (rows, n_heads * head_dim)
    return y.swapaxes(0, 1).reshape(y.shape[1], -1)


def norm_with_bound(x, dx):
    """The float64 RMS norm g = x / r, r = sqrt(mean(x^2) + eps), of rows
    x, and a bound on the float32 norm's distance from g when its input
    is off from x by at most dx.

    An input error moves g_i by sum_k |dg_i/dx_k| dx_k, with dg_i/dx_k =
    delta_ik / r - x_i x_k / (d r^3). The float32 norm then squares (u),
    sums d squares (a float32 sum of d nonnegative terms, (d - 1) u in any
    order), divides by d and adds eps (u each, relative to the mean), takes
    the square root (half the relative error, plus u) and divides (u):
    (d / 2 + 3) u |g_i| in all.
    """
    d = x.shape[-1]
    r = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + NORM_EPS)
    g = x / r
    moved = dx / r + np.abs(x) * np.sum(np.abs(x) * dx, axis=-1, keepdims=True) / (d * r**3)
    return g, moved + (d / 2 + 3) * U * np.abs(g)


def product_with_bound(a, da, w):
    """a @ w in float64, and a bound on the float32 product of an input off
    from a by at most da: the input error carried through |w|, plus a
    float32 sum of K products, off by at most K u times sum |a_k w_kj| in
    any order (the product roundings included)."""
    aw = np.abs(a) @ np.abs(w)
    return a @ w, da @ np.abs(w) + a.shape[-1] * U * aw


def block_qkv(model, layer, x, cos, sin):
    """(q_rot, k_rot, k_raw, v) of `model.block_qkv` in float64, each
    (n_heads, rows, head_dim), and a bound on each of the float32 block's
    distance from it.

    x is float32, so exact in float64. The norm's bound is
    `norm_with_bound`'s, the products' `product_with_bound`'s. The rotation
    runs in float64 on the float32 heads: out_even = e cos - o sin and
    out_odd = e sin + o cos move by at most |de||cos| + |do||sin| and
    |de||sin| + |do||cos|, plus float64 roundings, 4 u64 (|e| + |o|).
    """
    cfg, lw = model.config, model.weights.layers[layer]
    x = np.asarray(x, dtype=np.float64)
    g, dg = norm_with_bound(x, np.zeros_like(x))
    out, bounds = [], []
    for i in range(3):
        y, dy = product_with_bound(g, dg, lw.wqkv[i].astype(np.float64))
        out.append(split_heads(y, cfg.n_heads, cfg.head_dim))
        bounds.append(split_heads(dy, cfg.n_heads, cfg.head_dim))
    rotated, rotated_bounds = [], []
    for y, dy in zip(out[:2], bounds[:2]):
        e, o, de, do = y[..., 0::2], y[..., 1::2], dy[..., 0::2], dy[..., 1::2]
        rot, drot = np.empty_like(y), np.empty_like(y)
        rot[..., 0::2] = e * cos - o * sin
        rot[..., 1::2] = e * sin + o * cos
        rounding = 4 * U64 * (np.abs(e) + np.abs(o))
        drot[..., 0::2] = de * np.abs(cos) + do * np.abs(sin) + rounding
        drot[..., 1::2] = de * np.abs(sin) + do * np.abs(cos) + rounding
        rotated.append(rot)
        rotated_bounds.append(drot)
    values = (*rotated, out[1], out[2])
    return values, tuple(SLACK * b for b in (*rotated_bounds, bounds[1], bounds[2]))


def block_out(model, layer, x, attn):
    """`model.block_out` in float64, (rows, d_model), and a bound on the
    float32 block's distance from it.

    attn (n_heads, rows, head_dim) is rounded to float32 once (u |a|),
    then each step carries the bound of the one before:
      t = x + a Wo       `product_with_bound`, then the add, u |t|;
      g = norm(t)        `norm_with_bound`;
      f = g W_in         `product_with_bound`;
      s = silu(f)        slope at most `SILU_SLOPE`; exp within
                         `EXP_ERROR` relative moves 1 + exp(-f), and so s,
                         by at most that relative, the add and the divide
                         by u each;
      o = s W_out        `product_with_bound`;
      out = t + o        both bounds, and u |out| for the add.
    """
    lw = model.weights.layers[layer]
    x = np.asarray(x, dtype=np.float64)
    a = merge_heads(np.asarray(attn, dtype=np.float64))
    p, dp = product_with_bound(a, U * np.abs(a), lw.wo.astype(np.float64))
    t = x + p
    dt = dp + U * np.abs(t)
    g, dg = norm_with_bound(t, dt)
    f, df = product_with_bound(g, dg, lw.w_in.astype(np.float64))
    s = f / (1.0 + np.exp(-f))
    ds = SILU_SLOPE * df + (EXP_ERROR + 2 * U) * np.abs(s)
    o, do = product_with_bound(s, ds, lw.w_out.astype(np.float64))
    out = t + o
    return out, SLACK * (dt + do + U * np.abs(out))
