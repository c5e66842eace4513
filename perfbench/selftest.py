"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one cycle, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that every
operation matches its oracle except the documented q = inf misses of
shell-offcenter, and that the two independent oracles agree where both
apply.  It also checks that the benchmark refuses to run without the
swgeo sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN_MISS_WORKLOAD = "shell-offcenter"


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def run_workload(name: str, trace: int) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace),
                           "--min-ops", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    tag = f"{name} trace={trace}"
    check(proc.returncode == 0,
          f"{tag}: exit code 0" + (f" ({proc.stderr.strip()[-300:]})" if proc.returncode else ""))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{tag}: metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        printed = any(re.fullmatch(rf"{re.escape(m['name'])} \S+ {re.escape(m['unit'])}", line)
                      for line in lines)
        check(got["unit"] == m["unit"] and printed and math.isfinite(got["value"]),
              f"{tag}: {m['name']} printed in {m['unit']}")
    known = int(re.search(r"; (\d+) known", proc.stdout).group(1))
    check(result["correct"] and result["failed"] == known,
          f"{tag}: every operation matches its oracle except {known} known misses")
    check((known > 0) == (name == KNOWN_MISS_WORKLOAD),
          f"{tag}: known q=inf misses only on {KNOWN_MISS_WORKLOAD}")


def check_oracles() -> None:
    sys.path.insert(0, str(HERE))
    import oracles as O

    rng = np.random.default_rng(3)
    for d in (4, 5):
        x = rng.standard_normal(3)
        curve = dict(alpha=rng.uniform(0.2, 0.8), x=x * rng.uniform(0.2, 0.9) / np.linalg.norm(x),
                     a=rng.uniform(0.5, 2.0), y=np.zeros(d))
        found = O.shell_speed_sup(curve, 2.0, np.random.default_rng(0))
        closed = O.shell_speed_sup_static(curve, 2.0)
        check(O.rel_err(found, closed) < 1e-12,
              f"numeric sup matches the closed form on a static curve, d={d}")
        curve["y"] = rng.standard_normal(d)
        thetas = O.mc_thetas(d, 20000, 1)
        check(O.shell_speed(curve, thetas, 2.0).max() <= O.shell_speed_sup(
            curve, 2.0, np.random.default_rng(0)) * (1 + 1e-12),
            f"no direction beats the numeric sup on a moving curve, d={d}")
    X, Y = rng.standard_normal((500, 5)), rng.standard_normal((2000, 5)) + 0.3
    thetas = O.mc_thetas(5, 64, 2)
    w = np.full(64, 1.0 / 64)
    a = O.sorted_matching_sw(X, Y, thetas, w, 1.0, 2.0)
    b = O.cdf_gap_w1_sw(X, np.full(500, 1 / 500), Y, np.full(2000, 1 / 2000), thetas, w, 2.0)
    check(O.rel_err(a, b) < 1e-10, "sorted matching and CDF gap agree at p = 1")


def check_refuses_without_sources() -> None:
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "shell-offcenter", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run without the swgeo sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_oracles()
    check_refuses_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            run_workload(w["name"], trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
