"""One benchmark process: set up a workload, run it as a closed loop, report.

Started by ``run.py``. Prints ``READY`` when its inputs are generated,
which ends set-up, and then (unless ``--setup-only``) one JSON result as the
last line of stdout. One client, one operation at a time; the timed phase
runs for ``--seconds`` and (untraced) at least MIN_OPS operations, and
then finishes the pattern cycle it is in.

Before each operation a fixed calibration kernel is timed, outside the
operation's interval; ``run.py`` divides the run's times by the kernel's
median so that drift in the speed of the shared machine cancels.

With ``--trace 1`` each operation runs twice, untraced and then traced, so
the result carries the tracing overhead next to the per-layer metrics.
"""

import os

# a plain single-threaded baseline: pin BLAS before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: upper bounds on operations per second, used to size the input pool; about
#: ten times the rate at the commit that added the benchmark
MAX_RATE = {"catalog-lowrank": 40, "catalog-highrank": 10, "pair-blocks": 60, "cli-cold": 5}
MAX_FAILURE_NOTES = 5
#: enough samples that the tail, with ten beyond it, is not below the median
MIN_OPS = 20


def _import_semidw():
    import semidw
    import semidw.bounds

    src = (ROOT / "src").resolve()
    if src not in Path(semidw.__file__).resolve().parents:
        sys.exit(f"semidw imported from {semidw.__file__}, not from {src}")
    return semidw


class Library:
    """Library workloads: one operation is one instance end to end."""

    def __init__(self, workload: str, seed: int, ops: int, tiny: bool):
        self.sd = _import_semidw()
        self.op = wl.op_pair_blocks if workload == "pair-blocks" else wl.op_catalog
        self.inputs = [wl.make_instance(workload, seed, k, tiny) for k in range(ops)]
        self.spare = wl.make_instance(workload, seed, ops, tiny)  # outside the timed pool
        self.tracer = tr.Tracer()

    def warm_up(self):
        self.op(self.sd, self.spare)

    def run(self, k: int, traced: bool) -> list[str]:
        if not traced:
            return self.op(self.sd, self.inputs[k])
        self.tracer.instance = k
        with self.tracer:
            return self.op(self.sd, self.inputs[k])

    def trace(self) -> dict:
        return self.tracer.dump()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class Cli:
    """``cli-cold``: one fresh ``semidw`` CLI process per operation."""

    def __init__(self, workload: str, seed: int, ops: int, tiny: bool):
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = [wl.make_instance(workload, seed, i)
                       for i in range(wl.cli_input_index(ops - 1) + 1)]
        for inst in self.inputs:
            wl.write_cli_inputs(inst, self.workdir)
        self.runner = wl.CliRunner(self.workdir, dict(os.environ))
        self.dumps: list[dict] = []

    def warm_up(self):
        # compiles the bytecode of a fresh checkout outside the timed phase
        self.runner.run(["-m", "semidw.cli"], "remark-repro", self.inputs[0], "warm-up")
        self.runner.seen.clear()

    def run(self, k: int, traced: bool) -> list[str]:
        command = wl.CLI_COMMANDS[k % len(wl.CLI_COMMANDS)]
        inst = self.inputs[wl.cli_input_index(k)]
        if not traced:
            return self.runner.run(["-m", "semidw.cli"], command, inst, str(k))
        spans = self.workdir / f"spans-{k}.json"
        fails = self.runner.run([str(BENCH / "traced_cli.py"), str(spans), str(k), "--"],
                                command, inst, f"{k}-traced")
        if spans.exists():
            self.dumps.append(json.loads(spans.read_text()))
        return fails

    def trace(self) -> dict:
        return tr.merge(self.dumps)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def calibration_kernel():
    """Return a function timing fixed work that stands for machine speed.

    The work is the mix of semidw's hot paths: single small Hermitian
    eigensolves in an interpreter loop, then one batched eigensolve.
    """
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 6, 6)) + 1j * rng.standard_normal((40, 6, 6))
    herm = z + np.conj(np.swapaxes(z, 1, 2))

    def timed() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(120):
            acc += float(np.linalg.eigvalsh(herm[i % 40])[-1])
            acc += sum(j * 0.5 for j in range(50))
        np.linalg.eigvalsh(herm)
        return time.perf_counter() - t0

    return timed


def _blas() -> str:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{cfg.get('name')} {cfg.get('version')}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    period = len(wl.pattern(args.workload, args.tiny))
    min_ops = 0 if args.tiny or args.trace else MIN_OPS
    cycles = int(np.ceil(max(args.seconds * MAX_RATE[args.workload], MIN_OPS) / period))
    kind = Cli if args.workload == "cli-cold" else Library
    bench = kind(args.workload, args.seed, cycles * period, args.tiny)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        bench.warm_up()
        calibrate = calibration_kernel()
        calibrate()
        latencies, traced_latencies, failures, calibration = [], [], [], []
        attempted = 0
        start = time.perf_counter()
        k = 0
        while k < cycles * period:
            if (k % period == 0 and k >= min_ops
                    and time.perf_counter() - start >= args.seconds):
                break
            calibration.append(calibrate())
            for traced in ((False, True) if args.trace else (False,)):
                t0 = time.perf_counter()
                try:
                    fails = bench.run(k, traced)
                except Exception as exc:  # an operation that raises is a failure
                    fails = [f"{type(exc).__name__}: {exc}"]
                (traced_latencies if traced else latencies).append(time.perf_counter() - t0)
                attempted += 1
                if fails:
                    failures.append(f"op {k}{' traced' if traced else ''}: {'; '.join(fails)}")
            k += 1
        elapsed = time.perf_counter() - start - sum(calibration)
        result = {
            "ops": k,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:MAX_FAILURE_NOTES],
            "elapsed_s": elapsed,
            "latencies_s": latencies,
            "calibration_s": statistics.median(calibration),
            "peak_rss_mb": bench.peak_rss_mb(),
            "blas": _blas(),
        }
        if args.trace:
            trace = bench.trace()
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace))
            layers, covered = tr.layer_metrics(trace, window=period, ops=k)
            wall = statistics.fmean(traced_latencies)
            layers["trace.wall_s"] = wall
            layers["trace.other_s"] = wall - covered
            layers["trace.overhead_s"] = (statistics.median(traced_latencies)
                                          - statistics.median(latencies))
            result["layers"] = layers
        print(json.dumps(result))
        return 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
