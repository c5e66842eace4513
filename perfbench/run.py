"""swgeo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process with the BLAS and OpenMP
pools pinned to one thread, against the swgeo sources in ``src/`` of the
checkout that holds this file.  Untraced, it also starts the worker
``SETUP_SAMPLES - 1`` more times up to its first operation, half before
and half after the measured run, and reports the median set-up time.
Everything runs on one CPU, and times are scaled to the host's fast
state by the references of ``hostspeed.py``.  Prints one line per
metric, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of BENCHMARK.json, or its ``per_layer`` metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCES, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 175.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], timeout: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds from start to its READY line,
    scaled to the host's fast state, and its remaining stdout lines)."""
    reference, fast_s = REFERENCES["start"]
    scale = fast_s / statistics.median(reference() for _ in range(5))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out after {timeout:.0f} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return (float(lines[0].split()[1]) - t0) * scale, lines[1:]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100,
                    help="fewest operations in an untraced run (smoke tests lower it)")
    args = ap.parse_args()

    if not (ROOT / "src" / "swgeo" / "__init__.py").is_file():
        print(f"no swgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--min-ops", str(args.min_ops)]
    # set-up-only starts before and after the measured run, so that the
    # samples meet the host in more than one of its states
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        def setup_probe() -> float:
            return spawn(argv + ["--setup-only"], min(30.0, deadline - time.monotonic()))[0]

        setups = [setup_probe() for _ in range(probes // 2)]
        ready_s, lines = spawn(argv, deadline - time.monotonic() - 10.0)
        setups.append(ready_s)
        setups += [setup_probe() for _ in range(probes - probes // 2)]
        result = json.loads(lines[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = [statistics.median(setups), "s"]
    info = result["info"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={info['python']} numpy={info['numpy']}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not computed: {missing}", file=sys.stderr)
        return 3
    for m in wanted:
        value, unit = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {unit}")
    print(f"# error_ratio={result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations; "
          f"{result['known_misses']} known q=inf misses on moving translations)")
    if not args.trace:
        print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for key, value in info.items():
        if key not in ("python", "numpy"):
            print(f"# {key}: {json.dumps(value)}")
    for label, out in result["unexpected"]:
        print(f"# FAILED {label}: {out}")

    print(json.dumps({
        "correct": result["n_unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
