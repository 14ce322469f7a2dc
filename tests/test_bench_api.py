"""The package API that the benchmark under ``bench/`` calls.

A source change that breaks one of these calls fails every benchmark run.
These checks only read ``bench/``: its traced names, its two in-process
operations on the first tiny instance, its CLI argument lists, and the work of the
level-set kernel and of the lambda-real search on one pattern cycle of the library
workloads (``tests/count_kernel_work.py``).
"""

import importlib
import sys
from pathlib import Path

import pytest

import semidw as sd
from semidw import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_resolve(bench):
    _, tracer = bench
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"semidw.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"semidw.{module}.{name}"


@pytest.mark.parametrize("workload, op", [("catalog-lowrank", "op_catalog"),
                                          ("catalog-highrank", "op_catalog"),
                                          ("pair-blocks", "op_pair_blocks")])
def test_in_process_operations_pass(bench, workload, op):
    workloads, _ = bench
    inst = workloads.make_instance(workload, 1, 0, tiny=True)
    assert getattr(workloads, op)(sd, inst) == []


def test_cli_accepts_bench_arguments(bench, tmp_path):
    workloads, _ = bench
    inst = workloads.make_instance("cli-cold", 1, 0)
    parser = cli._build_parser()
    for command in workloads.CLI_COMMANDS:
        args = parser.parse_args(workloads.cli_args(command, inst, tmp_path / "out.json"))
        assert callable(args.fn), command


def test_bench_traffic_solves_one_pencil_per_problem_and_no_arc_end(monkeypatch):
    # on seed 1 every kernel problem of the library workloads certifies its first level
    # with one pencil, so the kernel solves no arc-end eigh; no Newton step meets a
    # multiple eigenvalue, so the cluster mean of eig_jet is the eigenvalue's own jet
    from count_kernel_work import kernel_work

    work = kernel_work([1], monkeypatch.setattr)
    for workload, row in work.items():
        assert row["ops"] and row["problems"], workload
        assert row["pencils"] == row["problems"], (workload, row)
        assert row["arc_end"] == 0, (workload, row)
        assert row["multi_cluster"] == 0, (workload, row)
    # the lambda-real search solves 558 eigvalsh matrices here, where the 360-angle grid
    # it replaced solved 2,880
    assert work["catalog-highrank"]["lreal_eigvalsh"] <= 720, work["catalog-highrank"]
