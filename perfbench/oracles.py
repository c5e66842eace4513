"""Independent reference values for every benchmark operation.

Only ``math`` and ``numpy`` are used here.  Nothing calls swgeo, so a
defect in swgeo's transport code cannot reproduce itself in the oracle.
The inputs (direction nodes, point clouds, curve parameters) are the
generated objects the benchmark hands to swgeo.
"""

from __future__ import annotations

import math

import numpy as np


def rel_err(value: float, reference: float) -> float:
    """|value - reference| / |reference|; an exact zero stays exact."""
    if value == reference:
        return 0.0
    if not math.isfinite(value):
        return math.inf
    return abs(value - reference) / max(abs(reference), 1e-300)


def qmean(weights: np.ndarray, vals: np.ndarray, q: float) -> float:
    """(sum_k w_k v_k^q)^(1/q); the max for q = inf."""
    if math.isinf(q):
        return float(np.max(vals))
    return float(np.dot(weights, vals ** q) ** (1.0 / q))


# ------------------------------------------------- piecewise-linear integrals


def _mean_pow(A: np.ndarray, B: np.ndarray, p: float) -> np.ndarray:
    """Mean of |g|^p over a segment on which g runs linearly from A to B.

    Same-sign segments use lo^(p+1) expm1((p+1) log1p(d/lo)) / ((p+1) d)
    for (hi^(p+1) - lo^(p+1)) / ((p+1) d), which keeps full precision
    when hi and lo nearly agree.
    """
    a, b = np.abs(A), np.abs(B)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        same = np.where(
            lo > 0.0,
            lo ** (p + 1.0) * np.expm1((p + 1.0) * np.log1p(d / lo)) / ((p + 1.0) * d),
            hi ** p / (p + 1.0))
        same = np.where(d > 0.0, same, lo ** p)
        opposite = (a ** (p + 1.0) + b ** (p + 1.0)) / ((p + 1.0) * (a + b))
    return np.where(A * B < 0.0, opposite, same)


# ------------------------------------------------------------- shell curves


def _speed(alpha: float, s, xi, eta, p: float) -> np.ndarray:
    """Per-direction speed of the shell curve, before the dilation factor.

    Onto a direction with shell-subspace length s, x.theta = xi and
    y.theta = eta, curve(t) projects to G_t # uniform[-1, 1] with
    G_t(u) = s u + t (s (T(u) - u) + eta) + const, where T is the
    monotone map from uniform[-1, 1] to the t = 1 endpoint of the 1D
    family at beta = xi / s.  Both maps are nondecreasing, so
    W_p(curve(t), curve(r)) = |t - r| (1/2 int |s (T - id) + eta|^p)^(1/p).
    s (T - id) + eta is continuous and piecewise linear: it takes the
    values eta, alpha (s + xi) + eta, alpha (xi - s) + eta, eta at
    u = -1, u1, u1 + 2 alpha, 1 with u1 = -1 + (1 - alpha)(1 + beta).
    """
    s, xi, eta = np.broadcast_arrays(np.asarray(s, float), np.asarray(xi, float),
                                     np.asarray(eta, float))
    beta = np.divide(xi, s, out=np.zeros_like(s), where=s > 0.0)
    v0 = eta
    v1 = alpha * (s + xi) + eta
    v2 = alpha * (xi - s) + eta
    if math.isinf(p):
        return np.maximum(np.abs(v0), np.maximum(np.abs(v1), np.abs(v2)))
    wpp = 0.5 * ((1.0 - alpha) * (1.0 + beta) * _mean_pow(v0, v1, p)
                 + 2.0 * alpha * _mean_pow(v1, v2, p)
                 + (1.0 - alpha) * (1.0 - beta) * _mean_pow(v2, v0, p))
    return wpp ** (1.0 / p)


def shell_speed(curve: dict, thetas: np.ndarray, p: float) -> np.ndarray:
    """Per-direction speed of a transformed nu curve
    (keys alpha, x (3-vector), a > 0, y (d-vector)); the static
    translation z drops out of every difference."""
    th3 = thetas[:, :3]
    s = np.linalg.norm(th3, axis=1)
    return curve["a"] * _speed(curve["alpha"], s, th3 @ curve["x"],
                               thetas @ curve["y"], p)


def shell_speed_sup(curve: dict, p: float, rng: np.random.Generator) -> float:
    """Supremum of :func:`shell_speed` over the whole sphere.

    The speed depends on theta only through its shell-subspace part u and
    through eta = u.y3 + theta_perp.y_perp.  It is convex in eta, so for
    fixed u the best theta_perp is parallel to y_perp, which leaves a
    search over (u, c) on the unit 3-sphere with eta = u.y3 + c |y_perp|.
    A dense random start is refined by compass search on the normalized
    4-vector.
    """
    alpha, a = curve["alpha"], curve["a"]
    x, y = curve["x"], curve["y"]
    y_perp = float(np.linalg.norm(y[3:]))

    def f(v: np.ndarray) -> np.ndarray:
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        u = v[..., :3]
        eta = u @ y[:3] + v[..., 3] * y_perp
        return _speed(alpha, np.linalg.norm(u, axis=-1), u @ x, eta, p)

    starts = rng.standard_normal((20000, 4))
    vals = f(starts)
    best = 0.0
    steps = np.concatenate([np.eye(4), -np.eye(4)])
    for i in np.argsort(-vals)[:8]:
        v = starts[i] / np.linalg.norm(starts[i])
        fv = float(vals[i])
        h = 0.05
        while h > 1e-13:
            cand = v + h * steps
            fc = f(cand)
            j = int(np.argmax(fc))
            if fc[j] > fv:
                v = cand[j] / np.linalg.norm(cand[j])
                fv = float(fc[j])
            else:
                h *= 0.5
        best = max(best, fv)
    return a * best


def shell_speed_sup_static(curve: dict, p: float) -> float:
    """Closed form of the supremum when the translation does not move
    (y = 0): the maximum sits at theta = x/|x|, where the speed is the
    endpoint distance of the 1D family at beta = |x|."""
    alpha, b = curve["alpha"], float(np.linalg.norm(curve["x"]))
    return curve["a"] * w_p_mu01(alpha, b, p)


# ------------------------------------------------------------- 1D families


def w_p_mu01(alpha: float, beta: float, p: float) -> float:
    """W_p between the t = 0 and t = 1 endpoints of the 1D family:
    alpha ((1+beta)^(p+1) + (1-beta)^(p+1))^(1/p) / (2(p+1))^(1/p);
    alpha (1 + |beta|) for p = inf."""
    if math.isinf(p):
        return alpha * (1.0 + abs(beta))
    return alpha * (((1.0 + beta) ** (p + 1.0) + (1.0 - beta) ** (p + 1.0))
                    / (2.0 * (p + 1.0))) ** (1.0 / p)


def mu_density(alpha: float, beta: float, t: float, x: float) -> float:
    """Density of the 1D family's continuous part at x (t < 1)."""
    if t >= 1.0:
        return (1.0 - alpha) / 2.0 if -1.0 <= x <= 1.0 else 0.0
    r = alpha * (1.0 - t)
    m = beta * (1.0 - alpha * (1.0 - t))
    if not -1.0 <= x <= 1.0:
        return 0.0
    if m - r < x < m + r:
        return 1.0 / (2.0 * (1.0 - t))
    return (1.0 - alpha) / (2.0 * (1.0 - alpha * (1.0 - t)))


def shell_masses(alpha: float, t: float) -> tuple[float, float]:
    denom = 1.0 - alpha * (1.0 - t)
    return (1.0 - alpha) / denom, alpha * t / denom


def w_p_radial(alpha: float, t: float, p: float) -> float:
    """W_p from the concentric shell curve at t to the unit shell: the
    inner mass alpha t / (1 - alpha (1 - t)) travels 1 - alpha (1 - t)."""
    inner = shell_masses(alpha, t)[1]
    move = 1.0 - alpha * (1.0 - t)
    if inner == 0.0:
        return 0.0
    return move if math.isinf(p) else move * inner ** (1.0 / p)


def c_dq(d: int, q: float) -> float:
    """(E s^q)^(1/q) over the uniform sphere in Gamma form:
    E s^q = Gamma(d/2) Gamma((3+q)/2) / (Gamma(3/2) Gamma((d+q)/2))."""
    if d == 3 or math.isinf(q):
        return 1.0
    log_m = (math.lgamma(d / 2.0) + math.lgamma((3.0 + q) / 2.0)
             - math.lgamma(1.5) - math.lgamma((d + q) / 2.0))
    return math.exp(log_m / q)


def centered_shell_sw(alpha: float, t: float, p: float, q: float, d: int) -> float:
    """Sliced distance from the concentric shell curve at t to the unit
    shell: every projection is the 1D family at beta = 0 scaled by s."""
    return t * w_p_mu01(alpha, 0.0, p) * c_dq(d, q)


def mc_thetas(d: int, n: int, seed: int) -> np.ndarray:
    """The documented Monte-Carlo node draw: n standard normal d-vectors
    from numpy's PCG64 at the given seed, normalized."""
    g = np.random.default_rng(seed).standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# --------------------------------------------------------------- empirical


def sorted_matching_sw(X: np.ndarray, Y: np.ndarray, thetas: np.ndarray,
                       weights: np.ndarray, p: float, q: float) -> float:
    """Uniform-weight clouds: W_p per direction by matching sorted
    projections (sizes dividing each other are repeated to equal length)."""
    n = max(len(X), len(Y))
    px = np.sort(np.repeat(X @ thetas.T, n // len(X), axis=0), axis=0)
    py = np.sort(np.repeat(Y @ thetas.T, n // len(Y), axis=0), axis=0)
    vals = np.mean(np.abs(px - py) ** p, axis=0) ** (1.0 / p)
    return qmean(weights, vals, q)


def cdf_gap_w1_sw(X: np.ndarray, wx: np.ndarray, Y: np.ndarray, wy: np.ndarray,
                  thetas: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Weighted clouds at p = 1: W_1 = int |F_X - F_Y| dx per direction,
    from the signed cumulative weight over the merged sorted projections."""
    proj = np.concatenate([X @ thetas.T, Y @ thetas.T])
    signed = np.concatenate([wx, -wy])
    order = np.argsort(proj, axis=0, kind="stable")
    sp = np.take_along_axis(proj, order, axis=0)
    gap = np.abs(np.cumsum(signed[order], axis=0)[:-1])
    vals = np.sum(gap * np.diff(sp, axis=0), axis=0)
    return qmean(weights, vals, q)
