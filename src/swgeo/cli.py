"""swgeo command line: experiment harness emitting deterministic CSV and SVG.

Every command is a pure function of its flags (plus the seed, where
randomness is involved): reruns produce byte-identical output.  CSV files
start with a provenance line ``# swgeo <command> <version> <flags>``,
then a header row, then data rows with reals printed to 17 significant
digits.  Flag precedence is command line > ``--config`` file (key=value
lines, read as measure files are: '#' comments and blank lines are
skipped) > built-in defaults.  Each command imports the library modules it
calls, so ``--version`` and the light commands load none they do not use.
"""

from __future__ import annotations

import math
from pathlib import Path

import click
import numpy as np

from . import __version__

# --------------------------------------------------------------- param types


def _parse_float_list(s: str) -> list[float]:
    return [float(tok) for tok in str(s).split(",") if tok.strip()]


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in str(s).split(",") if tok.strip()]


def _parse_tgrid(s: str) -> list[float]:
    """Either comma-separated values or 'log:<lo>:<hi>:<count>'."""
    s = str(s).strip()
    if s.startswith("log:"):
        parts = s.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad grid spec {s!r}; expected log:<lo>:<hi>:<count>")
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        return list(np.geomspace(lo, hi, n))
    return _parse_float_list(s)


class _Parsed(click.ParamType):
    """Click type that converts a value with a parser raising ValueError."""

    def __init__(self, name: str, parse):
        self.name, self._parse = name, parse

    def convert(self, value, param, ctx):
        try:
            return self._parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


PFLOAT = _Parsed("float|inf", float)  # float reads inf, +inf and infinity in any case
TGRID = _Parsed("grid", _parse_tgrid)
INT_LIST = _Parsed("ints", _parse_int_list)
PFLOAT_LIST = _Parsed("floats", _parse_float_list)


# ------------------------------------------------------------ output helpers


def _cell(v) -> str:
    # its own .17g, as measure1d._fmt: the cli loads no library module at import
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _flags_str(flags: dict) -> str:
    parts = []
    for k in sorted(flags):
        v = flags[k]
        if isinstance(v, (list, tuple, np.ndarray)):
            parts.append(f"{k}={','.join(_cell(x) for x in v)}")
        else:
            parts.append(f"{k}={_cell(v)}")
    return " ".join(parts)


def _csv(command: str, flags: dict, header: list[str], rows, comments=()) -> str:
    lines = [f"# swgeo {command} {__version__} {_flags_str(flags)}"]
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    lines.extend(comments)
    return "\n".join(lines) + "\n"


def _emit(out: str, content: str) -> None:
    if out in ("-", ""):
        click.echo(content, nl=False)
        return
    try:
        Path(out).write_text(content)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc}") from exc


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc


# ------------------------------------------------------------- configuration


def _load_config(ctx, param, path):
    """Read key=value lines into ``ctx.default_map``: click then applies
    command line > config > default and converts every value with its
    option's type.  Keys are parameter names, with '-' or '_'."""
    if path is None:
        return
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise click.BadParameter(f"cannot read {path}: {exc}", ctx, param) from exc
    from .measure1d import _records
    names = {p.name for p in ctx.command.params if p.expose_value}
    cfg = {}
    for lineno, _, line in _records(text):
        key, eq, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq:
            raise click.BadParameter(f"{path}:{lineno}: expected key=value", ctx, param)
        if key not in names:
            raise click.BadParameter(f"{path}:{lineno}: unknown key {key!r}", ctx, param)
        cfg[key] = val.strip()
    ctx.default_map = cfg


def config_option(command):
    """The --config option, and the click context as the command's first
    argument: every configurable command reads its flags from it."""
    return click.option("--config", is_eager=True, expose_value=False, callback=_load_config,
                        help="key=value config file.")(click.pass_context(command))


out_option = click.option("--out", default="-", show_default=True, help="Output path or '-'.")
seed_option = click.option("--seed", type=int, default=0, show_default=True)


def _flags(ctx) -> dict:
    """Provenance flags: every option but --out, keyed by its long name."""
    return {p.opts[0].lstrip("-").replace("-", "_"): ctx.params[p.name]
            for p in ctx.command.params if p.expose_value and p.name != "out"}


quad_option = click.option(
    "--quad", type=click.Choice(["auto", "beta", "mc"]), default="auto", show_default=True,
    help="Direction nodes: beta (centered mixtures only, refused otherwise), mc (--dirs uniform "
         "draws from --seed), or auto: beta if every mixture compared is centered, else mc.")


def _resolve_quad(ctx, mixtures) -> str:
    """The rule --quad names, auto resolved and written back to ctx.params
    for the provenance line: beta nodes if every shell mixture the command
    compares is centered (a 1D family compares none), since they are exact
    only where the distance along theta depends on it through s(theta)
    alone; mc nodes otherwise."""
    if ctx.params["quad"] == "auto":
        centered = True
        if mixtures:  # a 1D family loads no sliced module
            from .sliced import _is_centered
            centered = all(map(_is_centered, mixtures))
        ctx.params["quad"] = "beta" if centered else "mc"
    return ctx.params["quad"]


def _build_dirs(d: int, quad: str, n: int, seed: int):
    from .sphere import beta_directions, mc_directions
    return beta_directions(d, n) if quad == "beta" else mc_directions(d, n, seed)


def _loglog_slope(ts, vals, lo: float, hi: float) -> float:
    ts = np.asarray(ts, float)
    vals = np.asarray(vals, float)
    mask = (ts >= lo * (1 - 1e-9)) & (ts <= hi * (1 + 1e-9)) & (vals > 0)
    if int(mask.sum()) < 2:
        raise click.ClickException(
            f"need at least two grid points inside [{lo:g}, {hi:g}] to fit a slope")
    return float(np.polyfit(np.log(ts[mask]), np.log(vals[mask]), 1)[0])


# ------------------------------------------------------------------ commands


class _Main(click.Group):
    """Command group that reports a :class:`MeasureError` raised by any
    command as ``Error: <message>`` with exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:  # imported here: a command may not load measure1d
            from .measure1d import MeasureError
            if not isinstance(exc, MeasureError):
                raise
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="swgeo")
def main():
    """Geodesics of measures: exact 1D transport, shell mixtures, and
    sliced distances, tabulated as deterministic CSV/SVG."""


@main.command()
@click.option("--alpha", type=float, default=0.5, show_default=True,
              help="Mass of the limiting atom, in (0, 1).")
@click.option("--beta", type=float, default=0.2, show_default=True,
              help="Position of the limiting atom, in [-1, 1].")
@click.option("--t", type=TGRID, default="0,0.1,0.5", show_default=True,
              help="Comma-separated curve times in [0, 1].")
@click.option("--format", type=click.Choice(["csv", "svg"]), default="csv",
              show_default=True)
@out_option
@config_option
def density(ctx, alpha, beta, t, format, out):
    """Density breakpoints of the 1D interpolating family at given times."""
    from .families import mu_family
    measures = [(ti, mu_family(alpha, beta, ti)) for ti in t]

    if format == "csv":
        rows = []
        for t, m in measures:
            for pos, mass in m.atoms:
                rows.append((t, "atom", pos, pos, mass))
            for lo, hi, rho in m.pieces:
                rows.append((t, "piece", lo, hi, rho))
        _emit(out, _csv("density", _flags(ctx), ["t", "kind", "x0", "x1", "value"], rows))
        return

    from .svg import LinePlot
    plot = LinePlot(title=f"density of the interpolating family  "
                          f"alpha={alpha:g} beta={beta:g}",
                    xlabel="x", ylabel="density")
    for t, m in measures:  # the pieces of mu_family are contiguous
        pts = [(m.pieces[0][0], 0.0)]
        for lo, hi, rho in m.pieces:
            pts += [(lo, rho), (hi, rho)]
        pts.append((m.pieces[-1][1], 0.0))
        plot.add_curve(f"t={t:g}", pts)
        for pos, mass in m.atoms:
            plot.add_marker(f"atom mass {mass:g} (t={t:g})", pos, mass)
    _emit(out, plot.render())


@main.command()
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--p", type=PFLOAT, default=2.0, show_default=True,
              help="Transport exponent; must be > 1 (or inf).")
@click.option("--q", type=PFLOAT, default=2.0, show_default=True,
              help="Direction-averaging exponent (>= 1 or inf).")
@click.option("--d", type=int, default=3, show_default=True, help="Ambient dimension.")
@click.option("--t-grid", type=TGRID, default="log:1e-4:1:25", show_default=True)
@click.option("--dirs", type=int, default=64, show_default=True)
@quad_option
@seed_option
@out_option
@config_option
def nonequiv(ctx, alpha, p, q, d, t_grid, dirs, quad, seed, out):
    """Tabulate W_p, SW_{p,q} and their ratio along the shell curve.

    The ratio grows like t^(1/p - 1) as t -> 0, so the two metrics are
    not bi-Lipschitz equivalent; the fitted log-log slope is appended."""
    from .families import nu_family
    from .sliced import sw_pq, w_p_radial
    if not (p > 1.0):
        raise click.ClickException(
            "p must be > 1 (or inf): at p = 1 the ratio exponent 1/p - 1 "
            "vanishes and no divergence is claimed")
    if any(t <= 0.0 for t in t_grid):
        raise click.ClickException("t values must be positive (the ratio is 0/0 at t=0)")
    nu0 = nu_family(alpha, 0.0, 0.0, d)
    nus = [nu_family(alpha, 0.0, t, d) for t in t_grid]
    ds = _build_dirs(d, _resolve_quad(ctx, [nu0, *nus]), dirs, seed)
    rows = []
    for t, nut in zip(t_grid, nus):
        w = w_p_radial(nut, nu0, p)
        sw = sw_pq(nut, nu0, p, q, ds)
        rows.append((t, w, sw, w / sw))
    target = (1.0 / p if not math.isinf(p) else 0.0) - 1.0
    slope = _loglog_slope([r[0] for r in rows], [r[3] for r in rows], 1e-4, 1e-1)
    comments = [f"# loglog-slope ratio-vs-t decade=1e-04..1e-01 "
                f"fitted={_cell(slope)} target={_cell(target)}"]
    _emit(out, _csv("nonequiv", _flags(ctx), ["t", "w_p", "sw_pq", "ratio"], rows, comments))


@main.command()
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--p", type=PFLOAT, default=2.0, show_default=True,
              help="Transport exponent; finite and > 1.")
@click.option("--d", type=int, default=3, show_default=True)
@click.option("--t-grid", type=TGRID, default="log:1e-4:1:25", show_default=True)
@out_option
@config_option
def holder(ctx, alpha, p, d, t_grid, out):
    """Tabulate W_p along the shell curve and fit its small-t exponent.

    The curve moves like t^{1/p} in W_p (Holder of order 1/p, not
    Lipschitz); the fitted exponent and the 1/p target are appended."""
    from .families import nu_family
    from .sliced import w_p_radial
    if math.isinf(p) or not (p > 1.0):
        raise click.ClickException("p must be finite and > 1 for the exponent fit")
    if any(t <= 0.0 for t in t_grid):
        raise click.ClickException("t values must be positive")
    nu0 = nu_family(alpha, 0.0, 0.0, d)
    rows = [(t, w_p_radial(nu_family(alpha, 0.0, t, d), nu0, p)) for t in t_grid]
    slope = _loglog_slope([r[0] for r in rows], [r[1] for r in rows], 1e-4, 1e-1)
    comments = [f"# holder-exponent fitted={_cell(slope)} target={_cell(1.0 / p)}"]
    _emit(out, _csv("holder", _flags(ctx), ["t", "w_p"], rows, comments))


@main.command()
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--t-grid", type=TGRID, default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
              show_default=True)
@out_option
@config_option
def hopping(ctx, alpha, t_grid, out):
    """Mass split between the outer and inner shells along the curve.

    The supports are disjoint spheres, so the growing inner mass reaches
    its shell by jumping between components, not by flowing through the
    gap."""
    from .families import shell_masses
    rows = []
    for t in t_grid:
        outer, inner = shell_masses(alpha, t)
        rows.append((t, outer, inner, alpha * (1.0 - t)))
    _emit(out, _csv("hopping", _flags(ctx),
                    ["t", "outer_mass", "inner_mass", "inner_radius"], rows))


@main.command()
@click.option("--t-grid", type=TGRID, default="0.1,0.25,0.5,0.75,1", show_default=True)
@click.option("--q", type=PFLOAT, default=2.0, show_default=True)
@click.option("--dirs", type=int, default=8, show_default=True)
@seed_option
@out_option
@config_option
def circle(ctx, t_grid, q, dirs, seed, out):
    """Planar example: W_inf stays 1 while the sliced distance is O(t).

    Both candidate closed forms sin(pi t / 2) and 2 sin(t) / pi are
    tabulated next to the computed value; the matching one is marked."""
    from .families import circle_family
    from .sliced import sw_pq, w_inf_circle
    from .sphere import mc_directions
    if any(not (0.0 < t <= 1.0) for t in t_grid):
        raise click.ClickException("t values must lie in (0, 1]")
    ds = mc_directions(2, dirs, seed)
    c0 = circle_family(0.0)
    rows = []
    for t in t_grid:
        ct = circle_family(t)
        w = w_inf_circle(ct, c0)
        sw = sw_pq(ct, c0, math.inf, q, ds)
        sin_form = math.sin(math.pi * t / 2.0)
        alt_form = 2.0 * math.sin(t) / math.pi
        winner = ("sin(pi*t/2)" if abs(sw - sin_form) <= abs(sw - alt_form)
                  else "2*sin(t)/pi")
        rows.append((t, w, sw, w / sw, sin_form, alt_form, winner))
    _emit(out, _csv("circle", _flags(ctx),
                    ["t", "w_inf", "sw_inf_q", "ratio", "sin_form", "alt_form",
                     "matching_form"], rows))


@main.command()
@click.option("--d", "d_list", type=INT_LIST, default="3,4,7", show_default=True,
              help="Comma-separated ambient dimensions (each >= 3).")
@click.option("--q", "q_list", type=PFLOAT_LIST, default="1,2,inf", show_default=True,
              help="Comma-separated exponents (>= 1 or inf).")
@click.option("--method", type=click.Choice(["both", "beta", "mc"]), default="both",
              show_default=True)
@click.option("--dirs", type=int, default=64, show_default=True,
              help="Quadrature node count for the beta method.")
@click.option("--mc-dirs", type=int, default=100_000, show_default=True,
              help="Monte-Carlo direction count.")
@seed_option
@out_option
@config_option
def cdq(ctx, d_list, q_list, method, dirs, mc_dirs, seed, out):
    """Table of the direction-averaging constant C(d, q) by both methods."""
    from .sphere import c_dq
    rows = []
    for d in d_list:
        for q in q_list:
            cb = c_dq(d, q, method="beta", n=dirs) if method in ("both", "beta") \
                else math.nan
            cm = c_dq(d, q, method="mc", n=mc_dirs, seed=seed) \
                if method in ("both", "mc") else math.nan
            diff = abs(cb - cm) if method == "both" else math.nan
            rows.append((d, q, cb, cm, diff))
    _emit(out, _csv("cdq", _flags(ctx), ["d", "q", "c_beta", "c_mc", "abs_diff"], rows))


def _parse_family(spec: str, d_default: int):
    """Family spec: 'mu:alpha=..;beta=..', 'nu:alpha=..;x=x1,x2,x3;d=..'
    with optional 'a=..;y=..;z=..' transform keys, or 'control'."""
    from .families import mixture_control_curve, mu_curve, transformed_nu_curve
    spec = spec.strip()
    if spec == "control":
        return ("1d", mixture_control_curve())
    if ":" not in spec:
        raise click.ClickException(f"unparseable family spec {spec!r}")
    kind, _, body = spec.partition(":")
    kv = {}
    for item in body.split(";"):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise click.ClickException(f"bad family parameter {item!r}")
        k, _, v = item.partition("=")
        kv[k.strip()] = v.strip()
    try:
        if kind == "mu":
            alpha = float(kv.pop("alpha"))
            beta = float(kv.pop("beta", "0"))
            if kv:
                raise ValueError(f"unknown keys {sorted(kv)}")
            return ("1d", mu_curve(alpha, beta))
        if kind == "nu":
            alpha = float(kv.pop("alpha"))
            d = int(kv.pop("d", str(d_default)))
            x = np.array(_parse_float_list(kv.pop("x", "0,0,0")))
            a = float(kv.pop("a", "1"))
            y = kv.pop("y", None)
            z = kv.pop("z", None)
            if kv:
                raise ValueError(f"unknown keys {sorted(kv)}")
            yv = np.zeros(d) if y is None else np.array(_parse_float_list(y))
            zv = np.zeros(d) if z is None else np.array(_parse_float_list(z))
            return ("shell", transformed_nu_curve(alpha, x, d, a, yv, zv), d)
        raise ValueError(f"unknown family kind {kind!r}")
    except (KeyError, ValueError) as exc:
        raise click.ClickException(f"unparseable family spec {spec!r}: {exc}") from exc


@main.command(name="geodesic-check")
@click.option("--family", required=True,
              help="'mu:alpha=A;beta=B', 'nu:alpha=A;x=X1,X2,X3;d=D"
                   "[;a=A;y=..;z=..]', or 'control'.")
@click.option("--p", type=PFLOAT, default=2.0, show_default=True)
@click.option("--q", type=PFLOAT, default=2.0, show_default=True,
              help="Used for shell families only.")
@click.option("--grid", type=TGRID, default="0,0.25,0.5,0.75,1", show_default=True)
@click.option("--dirs", type=int, default=64, show_default=True)
@quad_option
@seed_option
@click.option("--tol", type=float, default=1e-6, show_default=True)
@out_option
@config_option
def geodesic_check(ctx, family, p, q, grid, dirs, quad, seed, tol, out):
    """Constant-speed check: d(curve(t), curve(s)) vs |t-s| d(curve(0), curve(1)).

    Exits nonzero when the deviation exceeds the tolerance, so the check
    can gate CI directly."""
    from .transport1d import pairwise_deviation, wasserstein_inf, wasserstein_p
    parsed = _parse_family(family, d_default=3)
    if parsed[0] == "1d":
        curve = parsed[1]
        _resolve_quad(ctx, ())
        dist = (wasserstein_inf if math.isinf(p)
                else lambda a, b: wasserstein_p(a, b, p))
    else:
        from .sliced import sw_pq
        curve, d = parsed[1], parsed[2]
        ds = _build_dirs(d, _resolve_quad(ctx, [curve(t) for t in grid]), dirs, seed)
        dist = lambda a, b: sw_pq(a, b, p, q, ds)
    rows = pairwise_deviation(curve, dist, grid)
    deviation = max(row[4] for row in rows)
    verdict = "PASS" if deviation < tol else "FAIL"
    comments = [f"# constant-speed deviation={_cell(deviation)} tol={_cell(tol)} "
                f"verdict={verdict}"]
    _emit(out, _csv("geodesic-check", _flags(ctx),
                    ["t", "s", "distance", "target", "abs_dev"], rows, comments))
    if verdict == "FAIL":
        ctx.exit(1)


@main.command()
@click.option("--measure-file", "measure_files", multiple=True, required=True,
              help="Two measure files ('atom <pos> <mass>' / 'piece <lo> <hi> <rho>').")
@click.option("--p", type=PFLOAT, default=2.0, show_default=True)
@out_option
def wp(measure_files, p, out):
    """1D distance between two measures given in the text format."""
    from .measure1d import measure_from_text
    from .transport1d import wasserstein_inf, wasserstein_p
    if len(measure_files) != 2:
        raise click.ClickException("exactly two --measure-file arguments are required")
    ma = measure_from_text(_read_file(measure_files[0]))
    mb = measure_from_text(_read_file(measure_files[1]))
    val = wasserstein_inf(ma, mb) if math.isinf(p) else wasserstein_p(ma, mb, p)
    flags = {"a": measure_files[0], "b": measure_files[1], "p": p}
    _emit(out, _csv("wp", flags, ["p", "distance"], [(p, val)]))


@main.command()
@click.option("--shell-file", "shell_files", multiple=True, required=True,
              help="Two shell files ('shell <weight> <radius> <c1> ... <cd>').")
@click.option("--p", type=PFLOAT, default=2.0, show_default=True)
@click.option("--q", type=PFLOAT, default=2.0, show_default=True)
@click.option("--dirs", type=int, default=64, show_default=True)
@quad_option
@seed_option
@out_option
@click.pass_context
def sw(ctx, shell_files, p, q, dirs, quad, seed, out):
    """Sliced distance between two shell mixtures given in the text format."""
    from .families import shell_from_text
    from .measure1d import MeasureError
    from .sliced import sw_pq
    if len(shell_files) != 2:
        raise click.ClickException("exactly two --shell-file arguments are required")
    a = shell_from_text(_read_file(shell_files[0]))
    b = shell_from_text(_read_file(shell_files[1]))
    if a.dim != b.dim:
        raise MeasureError("shell files have different ambient dimensions")
    quad = _resolve_quad(ctx, (a, b))
    val = sw_pq(a, b, p, q, _build_dirs(a.dim, quad, dirs, seed))
    flags = {"a": shell_files[0], "b": shell_files[1], "p": p, "q": q,
             "dirs": dirs, "quad": quad, "seed": seed}
    _emit(out, _csv("sw", flags, ["p", "q", "distance"], [(p, q, val)]))


if __name__ == "__main__":
    main()
