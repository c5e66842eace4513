"""End-to-end verification suite.

One test per headline guarantee, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Expected values
come from independent oracles computed inside the tests: Beta-moment
identities for direction averages, brute-force monotone matching for the
sup distance, a discretized assignment problem for the full-dimensional
shell distance, and Monte-Carlo error envelopes for everything sampled.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import linear_sum_assignment
from scipy.special import beta as beta_fn

from swgeo.cli import main as cli_main
from swgeo.families import (
    circle_family,
    mu_curve,
    mu_family,
    nu_family,
    transformed_nu_curve,
)
from swgeo.sliced import (
    sample_shell,
    sliced_geodesic_deviation,
    sw_pq,
    sw_pq_empirical,
    w_inf_circle,
    w_p_radial,
)
from swgeo.sphere import beta_directions, c_dq, mc_directions
from swgeo.transport1d import (
    geodesic_deviation,
    interpolate,
    optimal_map,
    wasserstein_inf,
    wasserstein_p,
)

GOLDEN = Path(__file__).parent / "golden"

ALPHAS = (0.3, 0.5, 0.8)
BETAS = (-0.5, 0.0, 0.2)
PS = (1.0, 1.5, 2.0, 3.0)
GRID5 = [0.0, 0.25, 0.5, 0.75, 1.0]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def c_exact(d: int, q: float) -> float:
    """Direction-average constant from the Beta(3/2,(d-3)/2) law of s^2."""
    if d == 3 or math.isinf(q):
        return 1.0
    return float((beta_fn((3 + q) / 2, (d - 3) / 2)
                  / beta_fn(1.5, (d - 3) / 2)) ** (1 / q))


def fibonacci_sphere(n: int, radius: float) -> np.ndarray:
    i = np.arange(n, dtype=float)
    polar = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * i
    return radius * np.column_stack([np.sin(polar) * np.cos(azimuth),
                                     np.sin(polar) * np.sin(azimuth),
                                     np.cos(polar)])


def loglog_slope(ts, vals):
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


def test_a01_optimal_map_matches_piecewise_formula():
    alpha, beta = 0.5, 0.2
    T = optimal_map(mu_family(alpha, beta, 0.0), mu_family(alpha, beta, 1.0))
    s = np.linspace(-1.0, 1.0, 10_000)
    a1 = beta - alpha * (1 + beta)
    a2 = beta + alpha * (1 - beta)
    ref = np.where(s < a1, -1 + (s + 1) / (1 - alpha),
                   np.where(s < a2, beta, -1 + (s + 1 - 2 * alpha) / (1 - alpha)))
    err = float(np.max(np.abs(T(s) - ref)))
    report("optimal-map-golden", err < 1e-12, f"sup error {err:.3e} (tol 1e-12)")


def test_a02_interpolation_matches_closed_form_family():
    rng = np.random.default_rng(2024)
    grid = np.linspace(-1.0, 1.0, 1000)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 1.0)
        via_map = interpolate(mu_family(alpha, beta, 0.0),
                              mu_family(alpha, beta, 1.0), t)
        closed = mu_family(alpha, beta, t)
        worst = max(worst, float(np.max(np.abs(via_map.cdf(grid)
                                               - closed.cdf(grid)))))
    report("interpolation-identity", worst < 1e-12,
           f"max cdf sup-diff {worst:.3e} over 20 draws (tol 1e-12)")


def test_a03_family_is_constant_speed_for_every_exponent():
    worst = 0.0
    for alpha in ALPHAS:
        for beta in BETAS:
            for p in PS:
                worst = max(worst, geodesic_deviation(mu_curve(alpha, beta),
                                                      p, GRID5))
        worst = max(worst, geodesic_deviation(mu_curve(alpha, 0.0),
                                              math.inf, GRID5))
    report("constant-speed-1d", worst < 1e-8,
           f"max deviation {worst:.3e} over the parameter grid (tol 1e-8)")


def test_a04_centered_endpoint_distance_closed_form():
    worst_p = 0.0
    worst_inf = 0.0
    for alpha in ALPHAS:
        m0, m1 = mu_family(alpha, 0.0, 0.0), mu_family(alpha, 0.0, 1.0)
        for p in PS:
            got = wasserstein_p(m0, m1, p)
            worst_p = max(worst_p, abs(got - alpha / (p + 1) ** (1 / p)))
        worst_inf = max(worst_inf, abs(wasserstein_inf(m0, m1) - alpha))
    report("centered-endpoint-distance",
           worst_p < 1e-10 and worst_inf < 1e-10,
           f"max |W_p - alpha/(p+1)^(1/p)| = {worst_p:.3e}, "
           f"max |W_inf - alpha| = {worst_inf:.3e} (tol 1e-10)")


def test_a05_shell_sliced_distance_closed_form():
    alpha = 0.5
    worst_rel = 0.0
    worst_mc_z = 0.0
    mc_sets = {d: mc_directions(d, 100_000, seed=5150 + d) for d in (3, 4, 7)}
    for d in (3, 4, 7):
        ds = beta_directions(d, 64)
        mc = mc_sets[d]
        s_mc = mc.s_values()
        nu0 = nu_family(alpha, 0.0, 0.0, d)
        for t in (0.25, 0.5, 1.0):
            nut = nu_family(alpha, 0.0, t, d)
            for p in (1.5, 2.0, 3.0):
                v = alpha * t / (p + 1) ** (1 / p)
                for q in (1.0, 2.0, math.inf):
                    target = v * c_exact(d, q)
                    got = sw_pq(nut, nu0, p, q, ds)
                    worst_rel = max(worst_rel, abs(got - target) / target)
                    got_mc = sw_pq(nut, nu0, p, q, mc)
                    if math.isinf(q):
                        # the sup path is node-independent: exact agreement
                        worst_mc_z = max(worst_mc_z,
                                         abs(got_mc - target) / target / 4.0)
                    else:
                        mean = float(np.mean(s_mc ** q))
                        se = float(np.std(s_mc ** q, ddof=1)) / math.sqrt(mc.n)
                        se_root = v * se * mean ** (1 / q - 1) / q
                        # d=3 has s identically 1: the SE degenerates, so a
                        # roundoff floor keeps the envelope meaningful
                        envelope = se_root + 1e-12 * target
                        worst_mc_z = max(worst_mc_z,
                                         abs(got_mc - target) / envelope / 1.0)
    report("shell-sliced-closed-form",
           worst_rel < 1e-6 and worst_mc_z < 4.0,
           f"beta-quadrature max rel err {worst_rel:.3e} (tol 1e-6); "
           f"monte-carlo max |z| {worst_mc_z:.2f} (tol 4 SE)")


def test_a06_radial_distance_formula_and_assignment_bracket():
    worst = 0.0
    for alpha in ALPHAS:
        nu0 = nu_family(alpha, 0.0, 0.0, 3)
        for t in (0.25, 0.5, 1.0):
            nut = nu_family(alpha, 0.0, t, 3)
            for p in (1.5, 2.0, 3.0):
                target = (alpha * t * (1 - alpha * (1 - t)) ** (p - 1)) ** (1 / p)
                worst = max(worst, abs(w_p_radial(nut, nu0, p) - target))

    # independent discretized assignment at (alpha, t, p) = (0.5, 0.5, 2)
    alpha, t, p = 0.5, 0.5, 2.0
    analytic = w_p_radial(nu_family(alpha, 0.0, t, 3),
                          nu_family(alpha, 0.0, 0.0, 3), p)
    n_total = 1200
    inner_mass = alpha * t / (1 - alpha * (1 - t))
    n_in = round(n_total * inner_mass)
    a_pts = np.vstack([fibonacci_sphere(n_total - n_in, 1.0),
                       fibonacci_sphere(n_in, alpha * (1 - t))])
    b_pts = fibonacci_sphere(n_total, 1.0)
    cost = ((a_pts[:, None, :] - b_pts[None, :, :]) ** 2).sum(-1)
    ri, ci = linear_sum_assignment(cost)
    discrete = float(cost[ri, ci].mean() ** (1 / p))

    def max_nn_gap(pts):
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min(axis=1)).max())

    allowance = max_nn_gap(b_pts) + max(max_nn_gap(a_pts[:n_total - n_in]),
                                        max_nn_gap(a_pts[n_total - n_in:]))
    bracket_ok = discrete - allowance <= analytic <= discrete + allowance
    report("radial-distance",
           worst < 1e-12 and abs(discrete - analytic) < 0.01 and bracket_ok,
           f"formula max err {worst:.3e} (tol 1e-12); assignment {discrete:.6f} "
           f"vs analytic {analytic:.6f}, diff {abs(discrete - analytic):.4f} "
           f"(tol 0.01), bracket +/-{allowance:.3f}")


def test_a07_ratio_exponent_fit():
    alpha, q, d = 0.2, 2.0, 3
    ds = beta_directions(d, 16)
    ts = np.geomspace(1e-4, 1e-1, 25)
    nu0 = nu_family(alpha, 0.0, 0.0, d)
    worst = 0.0
    details = []
    for p in (2.0, 4.0):
        ratios = []
        for t in ts:
            nut = nu_family(alpha, 0.0, t, d)
            ratios.append(w_p_radial(nut, nu0, p) / sw_pq(nut, nu0, p, q, ds))
        slope = loglog_slope(ts, ratios)
        target = 1 / p - 1
        details.append(f"p={p:g}: slope {slope:.4f} vs {target:g}")
        worst = max(worst, abs(slope - target))
    report("ratio-exponent", worst < 0.01,
           "; ".join(details) + f" (tol 0.01, alpha={alpha})")


def test_a08_holder_exponent_fit():
    alpha, d = 0.2, 3
    ts = np.geomspace(1e-4, 1e-1, 25)
    nu0 = nu_family(alpha, 0.0, 0.0, d)
    worst = 0.0
    details = []
    for p in (2.0, 4.0):
        vals = [w_p_radial(nu_family(alpha, 0.0, t, d), nu0, p) for t in ts]
        slope = loglog_slope(ts, vals)
        details.append(f"p={p:g}: exponent {slope:.4f} vs {1 / p:g}")
        worst = max(worst, abs(slope - 1 / p))
    report("holder-exponent", worst < 0.01,
           "; ".join(details) + f" (tol 0.01, alpha={alpha})")


def test_a09_direction_average_constant():
    ok_exact = c_dq(3, 1.0) == 1.0 and c_dq(3, 2.0) == 1.0 \
        and c_dq(4, math.inf) == 1.0 and c_dq(9, math.inf) == 1.0
    target = math.sqrt(3.0 / 4.0)
    beta_val = c_dq(4, 2.0, method="beta", n=64)
    oracle = c_exact(4, 2.0)
    n = 100_000
    ds = mc_directions(4, n, seed=99)
    s2 = ds.s_values() ** 2
    mc_val = float(np.mean(s2)) ** 0.5
    se_root = float(np.std(s2, ddof=1)) / math.sqrt(n) / (2 * mc_val)
    report("direction-average-constant",
           ok_exact and abs(beta_val - target) < 1e-6
           and abs(beta_val - oracle) < 1e-9
           and abs(mc_val - target) < 4 * se_root,
           f"quadrature {beta_val:.9f} vs sqrt(3/4)={target:.9f} (tol 1e-6), "
           f"moment oracle {oracle:.9f}, mc z={abs(mc_val - target) / se_root:.2f}")


def test_a10_circle_sup_distance():
    ds = mc_directions(2, 8, seed=0)
    c0 = circle_family(0.0)
    u = (np.arange(100_000) + 0.5) / 100_000
    q_arcsine = np.sin(np.pi * (u - 0.5))
    ok = True
    details = []
    for t in (0.1, 0.5, 1.0):
        ct = circle_family(t)
        full = w_inf_circle(ct, c0)
        ok &= full == 1.0
        vals = [sw_pq(ct, c0, math.inf, q, ds) for q in (1.0, 2.0, math.inf)]
        ok &= (max(vals) - min(vals)) < 1e-10
        # brute-force monotone matching oracle on 1e5 quantile levels
        lo, hi = (1 - t) / 2, (1 + t) / 2
        if t < 1.0:
            q_eta = np.where(u < lo, np.sin(np.pi * (u / (1 - t) - 0.5)),
                             np.where(u <= hi, 0.0,
                                      np.sin(np.pi * ((u - t) / (1 - t) - 0.5))))
        else:
            q_eta = np.zeros_like(u)
        brute = float(np.max(np.abs(q_eta - q_arcsine)))
        ok &= abs(vals[0] - brute) < 1e-3
        win_sin = abs(vals[0] - math.sin(math.pi * t / 2))
        win_alt = abs(vals[0] - 2 * math.sin(t) / math.pi)
        ok &= win_sin < win_alt
        details.append(f"t={t:g}: sw {vals[0]:.6f}, oracle {brute:.6f}, "
                       f"sin-form {math.sin(math.pi * t / 2):.6f}")
    golden = (GOLDEN / "circle.csv").read_text()
    data_rows = [r for r in golden.splitlines()[2:] if r]
    ok &= all(row.endswith(",sin(pi*t/2)") for row in data_rows)
    report("circle-sup-distance", ok,
           "; ".join(details) + "; golden file records sin(pi*t/2) as the "
           "matching closed form")


def test_a11_transformed_curves_stay_constant_speed():
    rng = np.random.default_rng(456)
    worst = 0.0
    for k in range(10):
        d = int(rng.choice([3, 4]))
        alpha = rng.uniform(0.1, 0.9)
        x = rng.normal(size=3)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        y = rng.normal(size=d)
        z = rng.normal(size=d)
        curve = transformed_nu_curve(alpha, x, d, a, y, z)
        # mc nodes: beta nodes are refused off center, and constant speed
        # holds direction by direction
        dev = sliced_geodesic_deviation(curve, 2.0, 2.0,
                                        mc_directions(d, 24, seed=k), GRID5)
        worst = max(worst, dev)
    report("transformed-geodesics", worst < 1e-6,
           f"max constant-speed deviation {worst:.3e} over 10 random "
           f"dilation/translation curves (tol 1e-6)")


def test_a12_empirical_sliced_distance_converges():
    target = 0.25 / math.sqrt(3.0)
    vals = []
    for seed in range(5):
        X = sample_shell(nu_family(0.5, 0.0, 0.5, 3), 10_000, seed=seed)
        Y = sample_shell(nu_family(0.5, 0.0, 0.0, 3), 10_000, seed=100 + seed)
        vals.append(sw_pq_empirical(X, Y, 2.0, 2.0,
                                    mc_directions(3, 64, seed=7000 + seed)))
    err = abs(float(np.mean(vals)) - target)
    report("empirical-convergence", err < 0.01,
           f"mean over 5 seeds {np.mean(vals):.6f} vs analytic {target:.6f}, "
           f"err {err:.4f} (tol 0.01)")


def test_a13_cli_outputs_are_reproducible(tmp_path):
    runner = CliRunner()
    fa = tmp_path / "ma.txt"
    fb = tmp_path / "mb.txt"
    fa.write_text("piece -1 1 0.5\n")
    fb.write_text("atom 0 0.5\npiece -1 1 0.25\n")
    sa = tmp_path / "sa.txt"
    sb = tmp_path / "sb.txt"
    from swgeo.families import shell_to_text
    sa.write_text(shell_to_text(nu_family(0.5, 0.0, 0.5, 3)))
    sb.write_text(shell_to_text(nu_family(0.5, 0.0, 0.0, 3)))
    cases = [
        ["density", "--t", "0,0.1,0.5"],
        ["density", "--format", "svg"],
        ["nonequiv", "--alpha", "0.2", "--p", "2", "--t-grid", "log:1e-4:1:9",
         "--quad", "mc", "--dirs", "500", "--seed", "3"],
        ["holder", "--alpha", "0.2", "--p", "2", "--t-grid", "log:1e-4:1e-1:9"],
        ["hopping"],
        ["circle", "--t-grid", "0.1,0.5"],
        ["cdq", "--d", "3,4", "--q", "2", "--mc-dirs", "2000", "--seed", "2"],
        ["geodesic-check", "--family", "mu:alpha=0.5;beta=0.2"],
        ["wp", "--measure-file", str(fa), "--measure-file", str(fb)],
        ["sw", "--shell-file", str(sa), "--shell-file", str(sb), "--dirs", "8"],
    ]
    all_ok = True
    for args in cases:
        first = runner.invoke(cli_main, args, catch_exceptions=False)
        second = runner.invoke(cli_main, args, catch_exceptions=False)
        same = first.exit_code == 0 and second.exit_code == 0 \
            and first.output == second.output
        all_ok &= same
    # entry-point process reruns must match byte for byte as well
    cmd = [sys.executable, "-m", "swgeo", "circle", "--t-grid", "0.5"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    all_ok &= r1.returncode == 0 and r1.stdout == r2.stdout
    report("cli-determinism", all_ok,
           f"{len(cases)} commands byte-identical across reruns "
           f"(plus module entry point)")
