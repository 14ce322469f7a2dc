"""Count the work of the level-set kernel on the library bench workloads.

Run from the repository root::

    PYTHONPATH=src python tests/count_kernel_work.py [--seeds 1 2 3]

For each seed it draws one pattern cycle of each library workload
(``catalog-lowrank``, ``catalog-highrank``, ``pair-blocks``) with
``bench/workloads.make_instance`` and runs each instance through the bench's own
operation (``op_catalog``, ``op_pair_blocks``); the bench module is imported and
read, never changed, as ``make_catalog_fixture.py`` does. Per workload it prints,
summed over the operations: the calls of ``_optim.rotated_eig_max_stack`` and their
problems, the pencils the kernel solves, the matrices of its ``eigh`` and
``eigvalsh`` calls (stacked ones counted per matrix), and its arc-end solves, the
``eigh`` matrices outside the Newton polish; then the ``eigvalsh`` and ``eigh``
matrices of the lambda-real search (``bounds._lambda_real_search``: its samples
and its Newton steps); last the evaluations of ``_optim.eig_jet``, by the kernel's
polish and the lambda-real search, at an eigenvalue whose cluster has more than one
member. Other eigensolves (the oracle's, the other bounds') are not counted.
``tests/test_bench_api.py`` runs :func:`kernel_work` on seed 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog-lowrank", "catalog-highrank", "pair-blocks")
COLUMNS = ("calls", "problems", "pencils", "eigh", "eigvalsh", "arc_end", "lreal_eigvalsh",
           "lreal_eigh", "multi_cluster")


def install_counters(counts: dict, patch=setattr) -> None:
    """Wrap the kernel, its pencil solve, its Newton polish, the lambda-real search, the
    eigenvalue jet and numpy's two Hermitian eigensolvers so that each adds its work to
    ``counts``; ``patch(owner, name, value)`` installs each wrapper (a test passes
    ``monkeypatch.setattr``, which undoes them)."""
    from helpers import cluster_size
    from semidw import _optim, bounds, radii

    state = {"kernel": False, "polish": False, "lreal": False}
    kernel, polish, pencil = (_optim.rotated_eig_max_stack, _optim.newton_max_lockstep,
                              _optim.pencil_eigvals)
    search, jet = bounds._lambda_real_search, _optim.eig_jet

    def counted_kernel(problems):
        counts["calls"] += 1
        counts["problems"] += len(problems)
        state["kernel"] = True
        try:
            return kernel(problems)
        finally:
            state["kernel"] = False

    def counted_polish(*args):
        state["polish"] = True
        try:
            return polish(*args)
        finally:
            state["polish"] = False

    def counted_search(*args):
        state["lreal"] = True
        try:
            return search(*args)
        finally:
            state["lreal"] = False

    def counted_jet(lam, *args):
        counts["multi_cluster"] += cluster_size(lam, args[-1]) > 1
        return jet(lam, *args)

    def counted_pencil(a_mat, b_mat):
        counts["pencils"] += 1
        return pencil(a_mat, b_mat)

    def counted_solve(name, solve):
        def wrapped(a, *args, **kw):
            matrices = int(np.prod(np.shape(a)[:-2]))
            if state["kernel"]:
                counts[name] += matrices
                if name == "eigh" and not state["polish"]:
                    counts["arc_end"] += matrices
            elif state["lreal"]:
                counts[f"lreal_{name}"] += matrices
            return solve(a, *args, **kw)
        return wrapped

    # rotated_eig_max reaches the stack through _optim's global, the memo through radii's
    for owner in (_optim, radii):
        patch(owner, "rotated_eig_max_stack", counted_kernel)
    patch(_optim, "newton_max_lockstep", counted_polish)
    patch(_optim, "pencil_eigvals", counted_pencil)
    patch(bounds, "_lambda_real_search", counted_search)
    for owner in (_optim, bounds):
        patch(owner, "eig_jet", counted_jet)
    for name in ("eigh", "eigvalsh"):
        patch(np.linalg, name, counted_solve(name, getattr(np.linalg, name)))


def kernel_work(seeds, patch=setattr) -> dict:
    """``{workload: {"ops": operations, column: count}}`` of ``WORKLOADS``, one pattern
    cycle per seed, with the counters and ``bench/`` on ``sys.path`` installed by
    ``patch``. Raises ``RuntimeError`` when an operation's own checks fail."""
    patch(sys, "path", [str(ROOT / "bench"), *sys.path])
    import workloads

    import semidw as sd

    counts = dict.fromkeys(COLUMNS, 0)
    install_counters(counts, patch)
    work = {}
    for workload in WORKLOADS:
        op = workloads.op_pair_blocks if workload == "pair-blocks" else workloads.op_catalog
        counts.update(dict.fromkeys(COLUMNS, 0))
        ops = 0
        for seed in seeds:
            for k in range(len(workloads.pattern(workload))):
                fails = op(sd, workloads.make_instance(workload, seed, k))
                if fails:
                    raise RuntimeError(f"{workload} seed {seed} instance {k}: {fails}")
                ops += 1
        work[workload] = {"ops": ops, **counts}
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    work = kernel_work(args.seeds)
    print(f"seeds {' '.join(map(str, args.seeds))}, one pattern cycle each")
    print(f"{'workload':18s} {'ops':>4s}" + "".join(f" {c:>9s}" for c in COLUMNS))
    for workload, row in work.items():
        print(f"{workload:18s} {row['ops']:4d}"
              + "".join(f" {row[c]:{max(9, len(c))}d}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
