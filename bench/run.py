"""Seeded benchmark of semidw.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics instead. Earlier lines record the environment and print
every metric with its unit. See ``bench/README.md`` for the workloads and
what each metric should move.

This process only orchestrates (standard library, nothing imported from
numpy or semidw): set-up is timed in fresh worker processes, from start
until the worker reports its inputs generated, several times, and the
median is reported.

The machine this runs on is shared, and its speed drifts by tens of
percent over minutes. So the end-to-end times are reported at a reference
speed: each measured time is multiplied by ``CAL_REF_S`` over the median
time of a fixed calibration kernel that the worker runs between
operations. The raw values and the speed factor are printed above the
result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog-lowrank", "catalog-highrank", "pair-blocks", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
#: calibration kernel median on the reference machine (2-vCPU Linux VM,
#: Python 3.11.7, numpy 2.4.6, single-threaded OpenBLAS 0.3.31)
CAL_REF_S = 2.5e-3


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, env: dict, setup_only: bool):
    """Start a worker; return it with its set-up time (start until READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}


def timed_median(cmd: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile)`` with percentile ``100 (n - 10) / n``,
    interpolated linearly between order statistics; the maximum when
    n <= 10. Workers run at least 20 operations, so it is never below the
    median.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    pct = 100.0 * (n - TAIL_BEYOND) / n
    pos = pct / 100.0 * (n - 1)
    lo = int(pos)
    return xs[lo] + (pos - lo) * (xs[min(lo + 1, n - 1)] - xs[lo]), pct


def environment(args, worker: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "semidw").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": worker.get("blas"),
        "blas_threads": 1,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("useful_ratio"):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest instances and one set-up; for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "semidw" / "__init__.py").is_file():
        print(f"error: no semidw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    repeats = 1 if args.tiny else SETUP_REPEATS

    try:
        setups = []
        for _ in range(repeats - 1):
            probe, setup = start_worker(args, env, setup_only=True)
            finish(probe, deadline)
            setups.append(setup)
        proc, setup = start_worker(args, env, setup_only=False)
        setups.append(setup)
        worker = finish(proc, deadline)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = worker["latencies_s"]
    attempted, failed = worker["attempted"], worker["failed"]
    for note in worker["failures"]:
        print(f"failure: {note}", file=sys.stderr)
    info = environment(args, worker)
    info["ops"] = worker["ops"]
    info["elapsed_s"] = worker["elapsed_s"]
    scale = CAL_REF_S / worker["calibration_s"]
    info["calibration_s"] = worker["calibration_s"]
    info["speed_vs_reference"] = scale

    if args.trace:
        layers = worker["layers"]
        import_repeats = 1 if args.tiny else IMPORT_REPEATS
        interp = timed_median([sys.executable, "-c", "pass"], env, import_repeats)
        imp = timed_median([sys.executable, "-c", "import semidw.cli"], env, import_repeats)
        layers["cli.interpreter_s"] = interp
        layers["cli.import_s"] = imp - interp
        metrics = {name: {"value": val, "unit": unit_of(name)} for name, val in layers.items()}
    else:
        tail_s, tail_pct = tail(lat)
        info["samples"] = len(lat)
        info["tail_percentile"] = round(tail_pct, 2)
        info["setup_samples_s"] = setups
        raw = {
            "setup_s": statistics.median(setups),
            "latency_s_p50": statistics.median(lat),
            "latency_s_tail": tail_s,
            "throughput_ops_per_s": worker["ops"] / worker["elapsed_s"],
        }
        info["raw"] = raw
        metrics = {
            "setup_s": {"value": raw["setup_s"] * scale, "unit": "s"},
            "latency_s_p50": {"value": raw["latency_s_p50"] * scale, "unit": "s"},
            "latency_s_tail": {"value": raw["latency_s_tail"] * scale, "unit": "s"},
            "throughput_ops_per_s": {"value": raw["throughput_ops_per_s"] / scale,
                                     "unit": "1/s"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    print("env " + json.dumps(info, sort_keys=True))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
