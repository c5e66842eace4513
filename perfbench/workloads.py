"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup()``, exposes one
cycle of operations, runs an operation through swgeo's public API (or
its CLI), and judges the result against :mod:`oracles`.  Operations call
swgeo through module attributes (``self.sliced.sw_pq``) so that the
tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O

INF = math.inf
# Tolerance on the relative error of every numeric result.
TOL = 1e-9
# A q = inf value on a moving translation may sit below the true sup by
# this share and still count as the documented family-specific miss.
KNOWN_MISS_ENVELOPE = 0.25


@dataclass
class Op:
    label: str
    spec: dict = field(default_factory=dict)
    known_miss: bool = False


@dataclass
class Verdict:
    ok: bool
    known_miss: bool = False
    rel: float | None = None  # None: no numeric result to score


def judge(value, ref: float, known_miss: bool = False) -> Verdict:
    """Compare one float with its oracle value."""
    if not isinstance(value, float) or not math.isfinite(value):
        return Verdict(False, rel=math.inf)
    rel = O.rel_err(value, ref)
    if rel <= TOL:
        return Verdict(True, rel=rel)
    below_sup = ref * (1.0 - KNOWN_MISS_ENVELOPE) <= value <= ref * (1.0 + TOL)
    return Verdict(False, known_miss and below_sup, rel)


def _ball_point(rng, dim: int, rmin: float, rmax: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v * (rng.uniform(rmin, rmax) / np.linalg.norm(v))


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


class Workload:
    """``cycle`` holds ``ROUNDS`` rounds of the workload's plan, each
    round with freshly drawn inputs.  Runs wrap around the cycle, so each
    operation repeats on identical inputs several times in a run."""

    name = ""
    ROUNDS = 1
    # the hostspeed.REFERENCES entry that scales this workload's timings
    reference = "compute"

    def __init__(self, seed: int, root: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.root = root
        self.cycle: list[Op] = []
        self.round_len = 0

    def setup(self) -> None:
        self.build_shared(self.rng)
        for _ in range(self.ROUNDS):
            ops = self.make_round(self.rng)
            self.round_len = len(ops)
            self.cycle += ops

    def build_shared(self, rng) -> None:
        """Inputs every round uses, such as direction sets."""

    def make_round(self, rng) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, value) -> Verdict:
        raise NotImplementedError


# ------------------------------------------------------------ shell-offcenter


class ShellOffcenter(Workload):
    """sw_pq between grid points of seeded transformed nu curves."""

    name = "shell-offcenter"
    # An operation's cost depends on the drawn curve and grid pair, so the
    # percentiles are taken over six rounds of draws.
    ROUNDS = 6
    SIZES = (64, 128, 256, 512, 1024)
    PQ = ((2.0, 2.0), (1.5, 1.0), (INF, 2.0), (2.0, INF))
    GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
    # d and whether the translation moves, for the four curves
    CURVES = ((4, True), (5, True), (4, False), (5, False))

    def build_shared(self, rng) -> None:
        import swgeo.families
        import swgeo.sliced
        import swgeo.sphere
        self.families, self.sliced = swgeo.families, swgeo.sliced
        self.dirs = {(d, n): swgeo.sphere.mc_directions(d, n, _seed(rng))
                     for d in (4, 5) for n in self.SIZES}
        self.curves: list[dict] = []
        self._sup: dict = {}

    def make_round(self, rng) -> list[Op]:
        first = len(self.curves)
        for d, moving in self.CURVES:
            c = dict(d=d, moving=moving, alpha=rng.uniform(0.2, 0.8),
                     x=_ball_point(rng, 3, 0.2, 0.9), a=rng.uniform(0.5, 2.0),
                     y=_ball_point(rng, d, 0.2, 0.8) if moving else np.zeros(d))
            curve = self.families.transformed_nu_curve(
                c["alpha"], c["x"], d, c["a"], c["y"], 0.5 * rng.standard_normal(d))
            c["points"] = {t: curve(t) for t in self.GRID}
            self.curves.append(c)
        ops = []
        for i_n, n in enumerate(self.SIZES):
            for i_pq, (p, q) in enumerate(self.PQ):
                ci = first + (i_pq + i_n) % len(self.CURVES)
                t, r = sorted(rng.choice(self.GRID, 2, replace=False))
                c = self.curves[ci]
                ops.append(Op(f"d{c['d']} n{n} p{p:g} q{q:g}",
                              dict(curve=ci, n=n, p=p, q=q, t=float(t), r=float(r)),
                              known_miss=math.isinf(q) and c["moving"]))
        return ops

    def run(self, op: Op):
        s = op.spec
        c = self.curves[s["curve"]]
        return self.sliced.sw_pq(c["points"][s["t"]], c["points"][s["r"]],
                                 s["p"], s["q"], self.dirs[(c["d"], s["n"])])

    def check(self, op: Op, value) -> Verdict:
        s = op.spec
        c = self.curves[s["curve"]]
        if math.isinf(s["q"]):
            key = (s["curve"], s["p"])
            if key not in self._sup:
                self._sup[key] = O.shell_speed_sup(c, s["p"], np.random.default_rng(0))
            speed = self._sup[key]
        else:
            ds = self.dirs[(c["d"], s["n"])]
            speed = O.qmean(ds.weights, O.shell_speed(c, ds.thetas, s["p"]), s["q"])
        return judge(value, (s["r"] - s["t"]) * speed, op.known_miss)


# ------------------------------------------------------------- circle-arcsine


class CircleArcsine(Workload):
    """sw_pq on arcsine-projecting circle mixtures, 2 to 8 directions."""

    name = "circle-arcsine"
    ROUNDS = 4
    # (kind, directions, p, q, circles): 'fam' is circle_family(t) against
    # circle_family(0) at p = inf, 'mix' an overlapping mixture against a
    # translated copy.  Costs spread from about 0.1 s to 0.45 s with no
    # wide gap near the median or the 90th percentile, so both percentiles
    # move smoothly with the cost of the operations around them.
    PLAN = (
        ("fam", 2, INF, 2.0, 0), ("mix", 2, 1.0, 2.0, 2),
        ("fam", 2, INF, 1.0, 0), ("mix", 2, 2.0, 1.0, 2),
        ("fam", 2, INF, INF, 0), ("mix", 3, 2.0, 2.0, 2),
        ("fam", 3, INF, 2.0, 0), ("mix", 4, 1.0, 1.0, 2),
        ("fam", 4, INF, 1.0, 0), ("mix", 2, 1.0, 1.0, 3),
        ("fam", 6, INF, 2.0, 0), ("mix", 2, 2.0, 2.0, 3),
        ("fam", 8, INF, 2.0, 0), ("mix", 2, INF, 2.0, 2),
        ("fam", 2, INF, 2.0, 0), ("mix", 2, INF, 2.0, 3),
    )

    def build_shared(self, rng) -> None:
        import swgeo.families
        import swgeo.sliced
        import swgeo.sphere
        self.families, self.sliced = swgeo.families, swgeo.sliced
        self.dirs = {n: swgeo.sphere.mc_directions(2, n, _seed(rng)) for n in (2, 3, 4, 6, 8)}
        self.base = self.families.circle_family(0.0)

    def make_round(self, rng) -> list[Op]:
        fam, ops = self.families, []
        for kind, n, p, q, k in self.PLAN:
            if kind == "fam":
                t = float(rng.uniform(0.05, 0.95))
                spec = dict(a=fam.circle_family(t), b=self.base, t=t)
            else:
                w = rng.dirichlet(np.full(k, 2.0))
                comps = [(float(w[i]), float(rng.uniform(0.5, 1.0)), 0.3 * rng.standard_normal(2))
                         for i in range(k)]
                v = _ball_point(rng, 2, 0.2, 1.0)
                spec = dict(a=fam.CircleMixture(tuple(comps)),
                            b=fam.CircleMixture(tuple((wi, r, c + v) for wi, r, c in comps)),
                            v=v)
            spec.update(n=n, p=p, q=q)
            ops.append(Op(f"{kind}{k or ''} n{n} p{p:g} q{q:g}", spec))
        return ops

    def run(self, op: Op):
        s = op.spec
        return self.sliced.sw_pq(s["a"], s["b"], s["p"], s["q"], self.dirs[s["n"]])

    def check(self, op: Op, value) -> Verdict:
        s = op.spec
        if "t" in s:
            ref = math.sin(math.pi * s["t"] / 2.0)
        else:
            ds = self.dirs[s["n"]]
            ref = O.qmean(ds.weights, np.abs(ds.thetas @ s["v"]), s["q"])
        return judge(value, ref)


# ----------------------------------------------------------- empirical-clouds


class EmpiricalClouds(Workload):
    """sw_pq_empirical between seeded shell samples."""

    name = "empirical-clouds"
    DIM = 5
    # (weights, n_X, n_Y, directions, p, q); stratified clouds use p = 1,
    # where the CDF-gap formula gives an independent oracle.  The cost
    # grows with (n_X + n_Y) and the direction count; the median and the
    # 90th percentile each fall on a pair of equal-cost operations.
    PLAN = (
        ("uniform", 500, 500, 256, 1.0, 1.0), ("stratified", 500, 500, 256, 1.0, 2.0),
        ("uniform", 500, 500, 384, 2.0, 2.0), ("stratified", 500, 500, 384, 1.0, 1.0),
        ("uniform", 500, 500, 512, 2.0, 1.0), ("stratified", 500, 2000, 256, 1.0, 2.0),
        ("uniform", 2000, 500, 256, 2.0, 1.0), ("uniform", 2000, 2000, 256, 1.0, 2.0),
        ("stratified", 2000, 2000, 256, 1.0, 1.0), ("stratified", 500, 500, 768, 1.0, 2.0),
        ("uniform", 500, 2000, 384, 1.0, 1.0), ("stratified", 500, 500, 1024, 1.0, 1.0),
        ("uniform", 2000, 2000, 384, 2.0, 2.0), ("uniform", 2000, 2000, 512, 2.0, 2.0),
        ("stratified", 2000, 2000, 512, 1.0, 2.0), ("uniform", 2000, 2000, 1024, 2.0, 2.0),
    )

    def build_shared(self, rng) -> None:
        import swgeo.families
        import swgeo.sliced
        import swgeo.sphere
        fam, d = swgeo.families, self.DIM
        self.sliced = swgeo.sliced
        self.sources = [
            fam.translate(fam.nu_family(rng.uniform(0.2, 0.8), _ball_point(rng, 3, 0.0, 0.9),
                                        rng.uniform(0.2, 0.9), d),
                          0.3 * rng.standard_normal(d))
            for _ in range(2)]
        self.dirs = {m: swgeo.sphere.mc_directions(d, m, _seed(rng))
                     for m in (256, 384, 512, 768, 1024)}
        self.clouds: dict = {}

    def make_round(self, rng) -> list[Op]:
        k = len(self.cycle) // len(self.PLAN)
        for n in (500, 2000):
            for side, src in zip("XY", self.sources):
                strat = self.sliced.sample_shell(src, n, _seed(rng))
                self.clouds[(k, "stratified", side, n)] = strat
                self.clouds[(k, "uniform", side, n)] = self.sliced.PointCloud(
                    self.DIM, strat.points, np.full(n, 1.0 / n))
        return [Op(f"{wt} {nx}x{ny} n{m} p{p:g} q{q:g}",
                   dict(X=(k, wt, "X", nx), Y=(k, wt, "Y", ny), m=m, p=p, q=q))
                for wt, nx, ny, m, p, q in self.PLAN]

    def run(self, op: Op):
        s = op.spec
        return self.sliced.sw_pq_empirical(self.clouds[s["X"]], self.clouds[s["Y"]],
                                           s["p"], s["q"], self.dirs[s["m"]])

    def check(self, op: Op, value) -> Verdict:
        s = op.spec
        X, Y, ds = self.clouds[s["X"]], self.clouds[s["Y"]], self.dirs[s["m"]]
        if s["X"][1] == "uniform":
            ref = O.sorted_matching_sw(X.points, Y.points, ds.thetas, ds.weights, s["p"], s["q"])
        else:
            ref = O.cdf_gap_w1_sw(X.points, X.weights, Y.points, Y.weights,
                                  ds.thetas, ds.weights, s["q"])
        return judge(value, ref)


# --------------------------------------------------------------- cli-commands


def _f(x: float) -> str:
    return repr(float(x))


def _fl(xs) -> str:
    return ",".join(_f(x) for x in xs)


def _parse_csv(text: str):
    """(provenance line, header, numeric-or-text rows, comment lines)."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    comments = [line for line in lines[2:] if line.startswith("#")]
    return lines[0], lines[1].split(","), rows, comments


def _comment_value(comments, key: str) -> float:
    for line in comments:
        m = re.search(rf"\b{key}=(\S+)", line)
        if m:
            return float(m.group(1))
    raise ValueError(f"no {key}= in comments")


def _slope(ts, vals, lo: float, hi: float) -> float:
    ts, vals = np.asarray(ts, float), np.asarray(vals, float)
    mask = (ts >= lo * (1 - 1e-9)) & (ts <= hi * (1 + 1e-9)) & (vals > 0)
    return float(np.polyfit(np.log(ts[mask]), np.log(vals[mask]), 1)[0])


class CliCommands(Workload):
    """One ``python -m swgeo`` subprocess per operation."""

    name = "cli-commands"
    reference = "start"

    def build_shared(self, rng) -> None:
        import tempfile

        import swgeo.cli
        self.cli = swgeo.cli
        base = self.root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=base))

    def make_round(self, rng) -> list[Op]:
        plan = [self._version, self._density_csv, self._density_svg, self._nonequiv,
                self._holder, self._hopping, self._cdq, self._wp, self._wp_inf,
                self._sw_centered, self._sw_offcenter, self._geo_mu, self._geo_nu_centered,
                self._geo_nu_offcenter, self._geo_control]
        ops = []
        for make in plan:
            label, argv, expect_exit, spec = make(rng, len(self.cycle) + len(ops))
            spec.update(argv=argv, exit=expect_exit)
            ops.append(Op(label, spec))
        return ops

    def cleanup(self) -> None:
        import shutil
        if hasattr(self, "work"):
            shutil.rmtree(self.work, ignore_errors=True)

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def _config(self, i: int, cfg: dict) -> str:
        return self._write(f"cfg{i}.txt", "".join(f"{k}={v}\n" for k, v in cfg.items()))

    # ---- command builders: (label, argv, expected exit code, oracle spec)

    def _version(self, rng, i):
        return "version", ["--version"], 0, dict(check="version")

    def _density_csv(self, rng, i):
        alpha, beta = rng.uniform(0.2, 0.8), rng.uniform(-0.8, 0.8)
        ts = [0.0, *sorted(rng.uniform(0.05, 0.95, 2)), 1.0]
        argv = ["density", "--alpha", _f(alpha), "--beta", _f(beta), "--t", _fl(ts),
                "--format", "csv", "--out", "-"]
        return "density-csv", argv, 0, dict(check="density", alpha=alpha, beta=beta, ts=ts)

    def _density_svg(self, rng, i):
        ts = [0.0, float(rng.uniform(0.05, 0.95)), 1.0]
        cfg = dict(alpha=_f(rng.uniform(0.2, 0.8)), beta=_f(rng.uniform(-0.8, 0.8)),
                   t=_fl(ts), format="svg")
        argv = ["density", "--config", self._config(i, cfg), "--out", "-"]
        return "density-svg(config)", argv, 0, dict(check="svg", ts=ts)

    def _nonequiv(self, rng, i):
        alpha, p = rng.uniform(0.2, 0.8), float(rng.choice([1.5, 2.0, 3.0]))
        q, d = float(rng.choice([1.0, 2.0, INF])), int(rng.choice([3, 4, 5]))
        argv = ["nonequiv", "--alpha", _f(alpha), "--p", _f(p), "--q", _f(q), "--d", str(d),
                "--t-grid", "log:1e-4:1:13", "--dirs", "64", "--quad", "beta",
                "--seed", str(_seed(rng)), "--out", "-"]
        return "nonequiv", argv, 0, dict(check="nonequiv", alpha=alpha, p=p, q=q, d=d)

    def _holder(self, rng, i):
        alpha, p = rng.uniform(0.2, 0.8), float(rng.choice([1.5, 2.0, 3.0]))
        d = int(rng.choice([3, 4, 5]))
        cfg = dict(alpha=_f(alpha), p=_f(p), d=d, t_grid="log:1e-4:1:9")
        argv = ["holder", "--config", self._config(i, cfg), "--out", "-"]
        return "holder(config)", argv, 0, dict(check="holder", alpha=alpha, p=p)

    def _hopping(self, rng, i):
        alpha = rng.uniform(0.2, 0.8)
        ts = [0.0, *sorted(rng.uniform(0.0, 1.0, 3)), 1.0]
        argv = ["hopping", "--alpha", _f(alpha), "--t-grid", _fl(ts), "--out", "-"]
        return "hopping", argv, 0, dict(check="hopping", alpha=alpha)

    def _cdq(self, rng, i):
        seed, n_mc = _seed(rng), 20000
        cfg = dict(d_list="3,4,5", q_list="1,2,inf", method="both", dirs=64,
                   mc_dirs=n_mc, seed=seed)
        argv = ["cdq", "--config", self._config(i, cfg), "--out", "-"]
        return "cdq(config)", argv, 0, dict(check="cdq", seed=seed, n_mc=n_mc)

    def _mu_files(self, i, alpha, beta):
        a = self._write(f"mu0-{i}.txt", "piece -1.0 1.0 0.5\n")
        b = self._write(f"mu1-{i}.txt", f"atom {_f(beta)} {_f(alpha)}\n"
                                        f"piece -1.0 1.0 {_f((1.0 - alpha) / 2.0)}\n")
        return a, b

    def _wp(self, rng, i, p=None):
        alpha, beta = rng.uniform(0.2, 0.8), rng.uniform(-0.8, 0.8)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0])) if p is None else p
        a, b = self._mu_files(i, alpha, beta)
        argv = ["wp", "--measure-file", a, "--measure-file", b, "--p", _f(p), "--out", "-"]
        return f"wp p{p:g}", argv, 0, dict(check="distance", ref=O.w_p_mu01(alpha, beta, p))

    def _wp_inf(self, rng, i):
        return self._wp(rng, i, INF)

    def _shell_text(self, comps) -> str:
        return "".join(f"shell {_f(w)} {_f(r)} {' '.join(_f(v) for v in c)}\n"
                       for w, r, c in comps)

    def _sw_centered(self, rng, i):
        alpha, t = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.95)
        d, p = int(rng.choice([4, 5])), float(rng.choice([1.5, 2.0]))
        q = float(rng.choice([1.0, 2.0, INF]))
        outer, inner = O.shell_masses(alpha, t)
        a = self._write(f"shell-a{i}.txt", self._shell_text(
            [(outer, 1.0, np.zeros(d)), (inner, alpha * (1.0 - t), np.zeros(d))]))
        b = self._write(f"shell-b{i}.txt", self._shell_text([(1.0, 1.0, np.zeros(d))]))
        argv = ["sw", "--shell-file", a, "--shell-file", b, "--p", _f(p), "--q", _f(q),
                "--dirs", "64", "--quad", "beta", "--seed", "0", "--out", "-"]
        return "sw beta", argv, 0, dict(check="distance",
                                        ref=O.centered_shell_sw(alpha, t, p, q, d))

    def _sw_offcenter(self, rng, i):
        d, p = int(rng.choice([4, 5])), float(rng.choice([1.5, 2.0]))
        q, n, seed = float(rng.choice([1.0, 2.0])), 128, _seed(rng)
        v = _ball_point(rng, d, 0.2, 0.8)
        a = self._write(f"shell-a{i}.txt", self._shell_text([(1.0, 1.0, np.zeros(d))]))
        b = self._write(f"shell-b{i}.txt", self._shell_text([(1.0, 1.0, v)]))
        argv = ["sw", "--shell-file", a, "--shell-file", b, "--p", _f(p), "--q", _f(q),
                "--dirs", str(n), "--quad", "mc", "--seed", str(seed), "--out", "-"]
        # projections differ by a shift, so W_p = |theta . v| for every p
        ref = O.qmean(np.full(n, 1.0 / n), np.abs(O.mc_thetas(d, n, seed) @ v), q)
        return "sw mc", argv, 0, dict(check="distance", ref=ref)

    def _geo_args(self, p, q, grid, dirs, quad, seed):
        return ["--p", _f(p), "--q", _f(q), "--grid", _fl(grid), "--dirs", str(dirs),
                "--quad", quad, "--seed", str(seed), "--tol", "1e-06", "--out", "-"]

    def _geo_mu(self, rng, i):
        alpha, beta = rng.uniform(0.2, 0.8), rng.uniform(-0.8, 0.8)
        p = float(rng.choice([1.0, 2.0, INF]))
        argv = ["geodesic-check", "--family", f"mu:alpha={_f(alpha)};beta={_f(beta)}",
                *self._geo_args(p, 2.0, [0.0, 0.25, 0.5, 0.75, 1.0], 8, "beta", 0)]
        return "geodesic-check mu", argv, 0, dict(check="geodesic",
                                                  speed=O.w_p_mu01(alpha, beta, p))

    def _geo_nu_centered(self, rng, i):
        alpha, d = rng.uniform(0.2, 0.8), int(rng.choice([4, 5]))
        p, q = float(rng.choice([1.5, 2.0])), float(rng.choice([1.0, 2.0]))
        cfg = dict(p=_f(p), q=_f(q), grid="0,0.5,1", dirs=64, quad="beta", seed=0, tol="1e-06")
        # click checks the required --family before the config is read
        argv = ["geodesic-check", "--family", f"nu:alpha={_f(alpha)};x=0,0,0;d={d}",
                "--config", self._config(i, cfg), "--out", "-"]
        return "geodesic-check nu beta(config)", argv, 0, dict(
            check="geodesic", speed=O.centered_shell_sw(alpha, 1.0, p, q, d))

    def _geo_nu_offcenter(self, rng, i):
        d = int(rng.choice([4, 5]))
        c = dict(alpha=rng.uniform(0.2, 0.8), x=_ball_point(rng, 3, 0.2, 0.9),
                 a=rng.uniform(0.5, 2.0), y=_ball_point(rng, d, 0.2, 0.8))
        z = 0.5 * rng.standard_normal(d)
        p, q, n, seed = float(rng.choice([1.5, 2.0])), float(rng.choice([1.0, 2.0])), 64, _seed(rng)
        family = (f"nu:alpha={_f(c['alpha'])};x={_fl(c['x'])};d={d};a={_f(c['a'])};"
                  f"y={_fl(c['y'])};z={_fl(z)}")
        argv = ["geodesic-check", "--family", family,
                *self._geo_args(p, q, [0.0, 0.5, 1.0], n, "mc", seed)]
        speed = O.qmean(np.full(n, 1.0 / n), O.shell_speed(c, O.mc_thetas(d, n, seed), p), q)
        return "geodesic-check nu mc", argv, 0, dict(check="geodesic", speed=speed)

    def _geo_control(self, rng, i):
        # p > 1: at p = 1 the linear mixture is a W_1 geodesic after all
        p = float(rng.choice([2.0, 3.0]))
        argv = ["geodesic-check", "--family", "control",
                *self._geo_args(p, 2.0, [0.0, 0.5, 1.0], 8, "beta", 0)]
        # W_p(uniform[-1, 1], delta_0) = (1 / (p + 1))^(1/p)
        return "geodesic-check control", argv, 1, dict(check="control",
                                                       ref=(1.0 / (p + 1.0)) ** (1.0 / p))

    # ---- running and judging

    def run(self, op: Op):
        proc = subprocess.run([sys.executable, "-m", "swgeo", *op.spec["argv"]],
                              capture_output=True, text=True, cwd=self.root, timeout=60)
        return proc.returncode, proc.stdout

    def run_in_process(self, op: Op):
        from click.testing import CliRunner
        result = CliRunner().invoke(self.cli.main, op.spec["argv"])
        return result.exit_code, result.output

    def check(self, op: Op, value) -> Verdict:
        if not isinstance(value, tuple):
            return Verdict(False, rel=math.inf)
        code, out = value
        s = op.spec
        if code != s["exit"]:
            return Verdict(False, rel=math.inf)
        try:
            rel = getattr(self, "_check_" + s["check"])(s, out)
        except (ValueError, IndexError, KeyError, ET.ParseError):
            return Verdict(False, rel=math.inf)
        if rel is None:
            return Verdict(True)
        return Verdict(rel <= TOL, rel=rel)

    def _check_version(self, s, out):
        if not re.fullmatch(r"swgeo, version \d+\.\d+\.\d+\s*", out):
            raise ValueError("bad version line")
        return None

    def _check_svg(self, s, out):
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        if root.tag != ns + "svg":
            raise ValueError("not an svg document")
        if len(root.findall(ns + "polyline")) != len(s["ts"]) \
                or len(root.findall(ns + "circle")) != s["ts"].count(1.0):
            raise ValueError("wrong number of curves or atom markers")
        return None

    def _check_density(self, s, out):
        _, header, rows, _ = _parse_csv(out)
        if header != ["t", "kind", "x0", "x1", "value"]:
            raise ValueError("bad header")
        alpha, beta = s["alpha"], s["beta"]
        worst = 0.0
        for t in s["ts"]:
            mine = [r for r in rows if float(r[0]) == t]
            r_in, m = alpha * (1.0 - t), beta * (1.0 - alpha * (1.0 - t))
            breaks = [-1.0, 1.0] + ([m - r_in, m + r_in] if t < 1.0 else [beta])
            mass = 0.0
            for _, kind, x0, x1, val in mine:
                x0, x1, val = float(x0), float(x1), float(val)
                if kind == "atom":
                    if t != 1.0:
                        raise ValueError("atom before t = 1")
                    worst = max(worst, O.rel_err(x0, beta), O.rel_err(val, alpha))
                    mass += val
                    continue
                for x in (x0, x1):
                    worst = max(worst, min(abs(x - b) for b in breaks))
                for k in (1, 2, 3):
                    worst = max(worst, O.rel_err(val, O.mu_density(
                        alpha, beta, t, x0 + k * (x1 - x0) / 4.0)))
                mass += (x1 - x0) * val
            worst = max(worst, abs(mass - 1.0))
        return worst

    def _check_nonequiv(self, s, out):
        _, header, rows, comments = _parse_csv(out)
        if header != ["t", "w_p", "sw_pq", "ratio"]:
            raise ValueError("bad header")
        alpha, p, q, d = s["alpha"], s["p"], s["q"], s["d"]
        worst, ts, ratios = 0.0, [], []
        for row in rows:
            t, w, sw, ratio = map(float, row)
            w_ref = O.w_p_radial(alpha, t, p)
            sw_ref = O.centered_shell_sw(alpha, t, p, q, d)
            worst = max(worst, O.rel_err(w, w_ref), O.rel_err(sw, sw_ref),
                        O.rel_err(ratio, w_ref / sw_ref))
            ts.append(t)
            ratios.append(w_ref / sw_ref)
        worst = max(worst, O.rel_err(_comment_value(comments, "fitted"),
                                     _slope(ts, ratios, 1e-4, 1e-1)),
                    O.rel_err(_comment_value(comments, "target"), 1.0 / p - 1.0))
        return worst

    def _check_holder(self, s, out):
        _, header, rows, comments = _parse_csv(out)
        if header != ["t", "w_p"]:
            raise ValueError("bad header")
        ts = [float(r[0]) for r in rows]
        refs = [O.w_p_radial(s["alpha"], t, s["p"]) for t in ts]
        worst = max(O.rel_err(float(r[1]), ref) for r, ref in zip(rows, refs))
        return max(worst,
                   O.rel_err(_comment_value(comments, "fitted"), _slope(ts, refs, 1e-4, 1e-1)),
                   O.rel_err(_comment_value(comments, "target"), 1.0 / s["p"]))

    def _check_hopping(self, s, out):
        _, header, rows, _ = _parse_csv(out)
        if header != ["t", "outer_mass", "inner_mass", "inner_radius"]:
            raise ValueError("bad header")
        worst = 0.0
        for row in rows:
            t, outer, inner, radius = map(float, row)
            o_ref, i_ref = O.shell_masses(s["alpha"], t)
            worst = max(worst, O.rel_err(outer, o_ref), O.rel_err(inner, i_ref),
                        O.rel_err(radius, s["alpha"] * (1.0 - t)))
        return worst

    def _check_cdq(self, s, out):
        _, header, rows, _ = _parse_csv(out)
        if header != ["d", "q", "c_beta", "c_mc", "abs_diff"] or len(rows) != 9:
            raise ValueError("bad table")
        worst = 0.0
        for row in rows:
            d, q = int(row[0]), float(row[1])
            cb, cm, diff = map(float, row[2:])
            if d == 3 or math.isinf(q):
                cm_ref = 1.0
            else:
                thetas = O.mc_thetas(d, s["n_mc"], s["seed"])
                cm_ref = float(np.mean(np.linalg.norm(thetas[:, :3], axis=1) ** q) ** (1.0 / q))
            cb_ref = O.c_dq(d, q)
            worst = max(worst, O.rel_err(cb, cb_ref), O.rel_err(cm, cm_ref),
                        O.rel_err(diff, abs(cb_ref - cm_ref)))
        return worst

    def _check_distance(self, s, out):
        _, header, rows, _ = _parse_csv(out)
        if header[-1] != "distance" or len(rows) != 1:
            raise ValueError("expected one distance row")
        return O.rel_err(float(rows[0][-1]), s["ref"])

    def _check_geodesic(self, s, out):
        _, header, rows, comments = _parse_csv(out)
        if header != ["t", "s", "distance", "target", "abs_dev"] or not rows:
            raise ValueError("bad table")
        if not any("verdict=PASS" in c for c in comments):
            raise ValueError("no PASS verdict")
        worst = 0.0
        for row in rows:
            t, u, dist, target, _ = map(float, row)
            ref = (u - t) * s["speed"]
            worst = max(worst, O.rel_err(dist, ref), O.rel_err(target, ref))
        return worst

    def _check_control(self, s, out):
        _, _, rows, comments = _parse_csv(out)
        if not any("verdict=FAIL" in c for c in comments):
            raise ValueError("control curve did not fail")
        row = next(r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 1.0)
        return O.rel_err(float(row[2]), s["ref"])


WORKLOADS = {w.name: w for w in (ShellOffcenter, CircleArcsine, EmpiricalClouds, CliCommands)}
