"""Run one workload in this (fresh) process and print its result.

Prints ``READY <monotonic time>`` once the inputs are built, then, unless
``--setup-only``, one JSON line with the run's metrics.  Untraced runs
go through the workload's operations in a closed loop (one client, the
next operation starts when the previous one returns), wrapping around
the cycle, and stop at the end of a round once ``--seconds`` have passed
and at least ``--min-ops`` operations ran.  Traced runs time the first
round with the tracer installed, between two untraced passes of it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hostspeed import REFERENCES, local_reference  # noqa: E402
from tracing import DIST1D, WP_EXACT, WP_NUMERIC, Tracer  # noqa: E402
from workloads import WORKLOADS, CliCommands  # noqa: E402

# Stop starting operations after this long, whatever the other limits say.
HARD_CAP_S = 120.0
LAYERS = ("sliced.sw_pq", "families.radon_project", "measure1d.from_components",
          "measure1d.quantile_fn", "transport1d.wasserstein_inf", "families.circle_project",
          "measure1d.analytic_quantile", "measure1d.cdf", "sliced.empirical_w1d")


def _call(fn, op):
    try:
        return fn(op)
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def judge_all(wl, results):
    """Verdict per (cycle index, output); equal outputs are judged once."""
    cache, verdicts = {}, []
    for i, out in results:
        key = (i, out)
        if key not in cache:
            cache[key] = wl.check(wl.cycle[i], out)
        verdicts.append(cache[key])
    return verdicts


def quality(wl, results) -> dict:
    verdicts = judge_all(wl, results)
    errors = [(i, out) for (i, out), v in zip(results, verdicts) if not v.ok]
    known = sum(v.known_miss for v in verdicts)
    rels = [v.rel for v in verdicts if v.rel is not None]
    digits = [16.0 if r == 0.0 else min(16.0, max(0.0, -math.log10(r))) for r in rels]
    unexpected = [(wl.cycle[i].label, repr(out)[:200])
                  for (i, out), v in zip(results, verdicts) if not v.ok and not v.known_miss]
    return dict(attempted=len(results), failed=len(errors), known_misses=known,
                unexpected=unexpected[:3], n_unexpected=len(unexpected),
                accuracy_digits=statistics.median(digits) if digits else 16.0)


def timed_run(wl, seconds: float, min_ops: int) -> dict:
    reference, fast_s = REFERENCES[wl.reference]
    results, lat, refs = [], [], []
    t0 = time.perf_counter()
    while True:
        i = len(results) % len(wl.cycle)
        refs.append(reference())
        s = time.perf_counter()
        out = _call(wl.run, wl.cycle[i])
        lat.append(time.perf_counter() - s)
        results.append((i, out))
        elapsed = time.perf_counter() - t0
        if elapsed > HARD_CAP_S or (len(results) % wl.round_len == 0
                                    and elapsed >= seconds and len(results) >= min_ops):
            break
    wall = time.perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCommands) else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # each operation's time scaled to the host's fast state (hostspeed.py)
    lat = np.array(lat)
    scaled = lat * (fast_s / local_reference(refs))
    p50, p90 = np.percentile(scaled * 1e3, [50, 90])
    raw50, raw90 = np.percentile(lat * 1e3, [50, 90])
    n = len(results)
    q = quality(wl, results)
    q.update(
        metrics={
            "throughput_ops_per_s": [n / float(scaled.sum()), "ops/s"],
            "latency_p50_ms": [float(p50), "ms"],
            "latency_p90_ms": [float(p90), "ms"],
            "peak_rss_mb": [peak_mb, "MB"],
            "ok_ratio": [1.0 - q["failed"] / n, "ratio"],
            "accuracy_digits": [q["accuracy_digits"], "digits"],
        },
        info=dict(latency_samples=n, rounds=n / wl.round_len, error_ratio=q["failed"] / n,
                  wall_s=wall, host_slowdown=float(np.median(refs)) / fast_s,
                  wall_throughput_ops_per_s=n / float(lat.sum()),
                  wall_latency_p50_ms=float(raw50), wall_latency_p90_ms=float(raw90)))
    return q


def _import_cli_seconds(samples: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import swgeo.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, cwd=ROOT, timeout=60).stdout)
            for _ in range(samples)]
    return statistics.median(runs)


def traced_run(wl, tracer: Tracer, seed: int) -> dict:
    is_cli = isinstance(wl, CliCommands)
    run = wl.run_in_process if is_cli else wl.run
    root = "cli.command" if is_cli else "bench.op"

    first_round = list(enumerate(wl.cycle[:wl.round_len]))

    def untraced_pass():
        t0 = time.perf_counter()
        outs = [(i, _call(run, op)) for i, op in first_round]
        return time.perf_counter() - t0, outs

    # untraced passes before and after the traced one; the faster is the
    # reference, so first-call warm-up is not credited to the tracer
    tracer.uninstall()
    before_s, plain = untraced_pass()
    tracer.install()
    run_traced = tracer.wrap(run, root)
    t0 = time.perf_counter()
    traced = [(i, _call(run_traced, op)) for i, op in first_round]
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    after_s, plain_after = untraced_pass()
    untraced_s = min(before_s, after_s)

    q = quality(wl, plain + traced + plain_after)
    stats, under = tracer.summary()
    calls = lambda n: stats.get(n, (0, 0.0))[0]  # noqa: E731
    self_s = lambda n: stats.get(n, (0, 0.0))[1]  # noqa: E731
    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = [calls(layer), "count"]
        m[layer + ".self_s"] = [self_s(layer), "s"]
    dist_in_sw = sum(under(d, "sliced.sw_pq") for d in DIST1D)
    m["sliced.sw_pq.dist1d_per_call"] = [dist_in_sw / max(calls("sliced.sw_pq"), 1), "count"]
    m["transport1d.wasserstein_p.exact_calls"] = [calls(WP_EXACT), "count"]
    m["transport1d.wasserstein_p.exact_self_s"] = [self_s(WP_EXACT), "s"]
    m["transport1d.wasserstein_p.numeric_calls"] = [calls(WP_NUMERIC), "count"]
    m["transport1d.wasserstein_p.numeric_self_s"] = [self_s(WP_NUMERIC), "s"]
    m["measure1d.cdf_per_quantile_call"] = [
        under("measure1d.cdf", "measure1d.analytic_quantile")
        / max(calls("measure1d.analytic_quantile"), 1), "count"]
    for name in ("sliced.sw_pq_empirical", "sliced.sample_shell", "sphere.mc_directions",
                 "svg.render"):
        m[name + ".self_s"] = [self_s(name), "s"]
    m["sliced.empirical.points_sorted"] = [tracer.counters["sliced.empirical.points_sorted"],
                                           "count"]
    m["sliced.empirical.bytes_projected"] = [
        tracer.counters["sliced.empirical.bytes_projected"], "bytes"]
    m["cli.self_s"] = [self_s("cli.command"), "s"]
    m["cli.import_s"] = [_import_cli_seconds() if is_cli else 0.0, "s"]
    m["trace.overhead"] = [traced_s / untraced_s, "ratio"]

    per_dist = {}
    if dist_in_sw:
        per_dist = {n: round(self_s(n) / dist_in_sw * 1e6, 1)
                    for n in ("sliced.sw_pq", "families.radon_project",
                              "measure1d.from_components", "measure1d.quantile_fn",
                              *DIST1D)}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(spans_path)
    q.update(metrics=m, info=dict(
        traced_ops=len(traced), untraced_s=untraced_s, traced_s=traced_s,
        spans=len(tracer.start), spans_file=str(spans_path.relative_to(ROOT)),
        self_us_per_1d_distance_in_sw_pq=per_dist))
    return q


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import swgeo
    src = (ROOT / "src").resolve()
    if src not in Path(swgeo.__file__).resolve().parents:
        print(f"imported swgeo from {swgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import swgeo.cli  # noqa: F401  (so its imported names get wrapped too)
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        wl.setup()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        if tracer:
            result = traced_run(wl, tracer, args.seed)
        else:
            result = timed_run(wl, args.seconds, args.min_ops)
    finally:
        if isinstance(wl, CliCommands):
            wl.cleanup()
    result["info"].update(numpy=np.__version__, python=sys.version.split()[0])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
