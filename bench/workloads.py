"""Seeded inputs, operations and correctness checks of the four workloads.

Inputs are made with numpy alone, so ``cli-cold`` can build its JSON files
without importing semidw. Instance ``k`` of a workload takes its shape from
``pattern[k % len(pattern)]`` and its entries from
``SeedSequence([seed, k])``. A run always finishes the pattern cycle it is
in, so every run sees each shape equally often and the medians stay put.

An operation returns a list of failure strings; empty means every check
passed. All tolerances are the repository's own: 1e-4 for multistart vs
oracle (``tests/test_acceptance.py``, oracle self-consistency) and 1e-3 for
the closed block forms (the exact-formula agreement test and ``suite``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("catalog-lowrank", "catalog-highrank", "pair-blocks", "cli-cold")

DW_ORACLE_RTOL = 1e-4
BLOCK_RTOL = 1e-3
BLOCK_ORACLE_SAMPLES = 4096  # the exact-formula suite's sample count
CLI_SAMPLES = 8192  # verify_all / pair_report default oracle sample count
CLI_TIMEOUT_S = 120.0
B_TARGETS = (0.3, 1.0 / np.sqrt(2.0), 0.9, 1.6)  # both branches of dw_exact_0x
CLI_COMMANDS = ("compute", "verify", "verify-pair", "exact", "remark-repro")


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    a: np.ndarray
    x: np.ndarray
    y: np.ndarray | None = None


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _metric_and_factors(rng: np.random.Generator, n: int, rank: int):
    """PSD metric of dimension n and rank r, normalized to trace n.

    Returns ``(A, P, sqrt_A, pinv_sqrt_A)`` with P the projection on range(A).
    """
    g = _cgauss(rng, (n, rank))
    a = g @ g.conj().T
    a = 0.5 * (a + a.conj().T)
    a /= np.trace(a).real / n
    w, v = np.linalg.eigh(a)
    keep = w > 1e-10 * w[-1]
    vk = v[:, keep]
    sq = np.sqrt(w[keep])
    return a, vk @ vk.conj().T, (vk * sq) @ vk.conj().T, (vk / sq) @ vk.conj().T


def _bounded(rng: np.random.Generator, proj: np.ndarray) -> np.ndarray:
    """Random A-bounded operator: the ``P T (I - P)`` corner removed."""
    n = proj.shape[0]
    t = _cgauss(rng, (n, n))
    return t - proj @ t @ (np.eye(n) - proj)


def pattern(workload: str, tiny: bool = False) -> list[tuple]:
    """The shape cycle of a workload: one tuple per instance."""
    if workload == "catalog-lowrank":
        # dims 2-6, every third metric rank-deficient: ranks 1-6, oracle active
        cyc = [(2 + k % 5, max(1, 2 + k % 5 - (k % 3 == 0))) for k in range(15)]
        return cyc[:3] if tiny else cyc
    if workload == "catalog-highrank":
        # compressed rank r > 6 skips the oracle; n = r + 2 keeps the metric
        # singular. Skewed to small r so a run holds enough samples for a
        # tail; three cycles (24 operations) outlast a run by a margin, so
        # the sample count does not flip, and the median falls inside r = 12.
        ranks = (8,) if tiny else (8, 12, 8, 16, 12, 8, 12, 24)
        return [(r + 2, r) for r in ranks]
    if workload == "pair-blocks":
        # dims 2-4, three of twelve metrics rank-deficient; ranks up to 3 run
        # the block oracle, which needs 2r <= 6; ||X||_A hits each branch target
        cyc = [(2 + k % 3, 1 + k % 3 + (k % 12 not in (0, 5, 10)), B_TARGETS[k % 4])
               for k in range(12)]
        return cyc[:4] if tiny else cyc
    if workload == "cli-cold":
        # one command per operation, so a cycle is the five commands on one
        # input; cycle c uses input c // 2, so every odd cycle repeats the one
        # before it and checks that the JSON is byte-identical
        return [(c,) for c in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


def make_instance(workload: str, seed: int, k: int, tiny: bool = False) -> Instance:
    """Instance ``k`` of a workload; the same (seed, k) gives the same arrays.

    For ``cli-cold`` an instance is one input, shared by the operations of
    two cycles (see :func:`cli_input_index`): dims 2-4, every other metric
    rank-deficient.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    if workload == "cli-cold":
        n = 2 + k % 3
        a, proj, _, _ = _metric_and_factors(rng, n, n - k % 2)
        return Instance(k, seed * 1000 + k, a, _bounded(rng, proj), _bounded(rng, proj))
    cyc = pattern(workload, tiny)
    shape = cyc[k % len(cyc)]
    a, proj, sq, pinv_sq = _metric_and_factors(rng, shape[0], shape[1])
    x = _bounded(rng, proj)
    if workload != "pair-blocks":
        return Instance(k, seed * 1000 + k, a, x)
    b = np.linalg.norm(sq @ x @ pinv_sq, 2)
    return Instance(k, seed * 1000 + k, a, x * (shape[2] / b), _bounded(rng, proj))


def cli_input_index(k: int) -> int:
    """Input used by ``cli-cold`` operation k: two cycles per input."""
    return k // (2 * len(CLI_COMMANDS))


def _report_checks(rep) -> list[str]:
    fails = []
    if not rep.overall_pass:
        bad = [r.anchor for r in rep.records if r.satisfied is False or r.status == "error"]
        fails.append(f"overall_pass false: {bad}")
    if rep.dw_oracle is not None:
        dev = abs(rep.dw_multistart - rep.dw_oracle)
        if dev > DW_ORACLE_RTOL * (1.0 + rep.reference_dw):
            fails.append(f"multistart {rep.dw_multistart!r} vs oracle {rep.dw_oracle!r}")
    return fails


def op_catalog(sd, inst: Instance) -> list[str]:
    """``verify_all`` on one (metric, operator) instance, build_metric included."""
    m = sd.build_metric(inst.a)
    return _report_checks(sd.bounds.verify_all(m, inst.x, seed=inst.seed))


def op_pair_blocks(sd, inst: Instance) -> list[str]:
    """``pair_report``, the closed block forms, and the block dw cross-checks."""
    m = sd.build_metric(inst.a)
    fails = _report_checks(sd.bounds.pair_report(m, inst.x, inst.y, seed=inst.seed))
    eye = np.eye(m.dim)
    zero = np.zeros((m.dim, m.dim))
    for label, top, closed_form in (("identity", eye, sd.dw_exact_ix),
                                    ("zero", zero, sd.dw_exact_0x)):
        closed = closed_form(m, inst.x).value
        blk = sd.block2(m, top, inst.x, zero, zero)
        refs = {"dw_radius": sd.dw_radius(blk.metric2, blk.assembled, seed=inst.seed).value}
        if 0 < 2 * m.rank <= 6:
            refs["oracle"] = sd.oracle_extremum(blk.metric2, blk.assembled, "dw",
                                                samples=BLOCK_ORACLE_SAMPLES,
                                                seed=inst.seed).value
        for name, ref in refs.items():
            if abs(closed - ref) > BLOCK_RTOL * (1.0 + closed):
                fails.append(f"{label} block closed form {closed!r} vs {name} {ref!r}")
    return fails


def write_cli_inputs(inst: Instance, workdir: Path) -> None:
    """Write the instance's A, X and Y as wire-format JSON files."""
    for tag, arr in (("A", inst.a), ("X", inst.x), ("Y", inst.y)):
        data = {"rows": arr.shape[0], "cols": arr.shape[1],
                "re": arr.real.tolist(), "im": arr.imag.tolist()}
        (workdir / f"{tag}{inst.index}.json").write_text(json.dumps(data))


def cli_args(command: str, inst: Instance, out: Path) -> list[str]:
    """semidw CLI arguments for one operation; files are relative to the cwd."""
    i = inst.index
    pair = ["--metric", f"A{i}.json", "--operator", f"X{i}.json"]
    args = {
        "compute": ["compute", *pair],
        "verify": ["verify", *pair],
        "verify-pair": ["verify", *pair, "--operator2", f"Y{i}.json"],
        "exact": ["exact", *pair],
        "remark-repro": ["remark-repro"],
    }[command]
    return [*args, "--seed", str(inst.seed), "--samples", str(CLI_SAMPLES),
            "--format", "json", "--out", str(out)]


class CliRunner:
    """Runs one fresh CLI process per operation and checks its output.

    ``prefix`` is the interpreter command line before the CLI arguments:
    ``-m semidw.cli`` untraced, or the traced launcher. A repeated
    (command, input) pair must give byte-identical JSON.
    """

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.seen: dict[tuple, bytes] = {}

    def run(self, prefix: list[str], command: str, inst: Instance, tag: str) -> list[str]:
        out = self.workdir / f"out-{tag}.json"
        out.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, *prefix, *cli_args(command, inst, out)],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            return [f"{command}: exit code {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-500:]}"]
        body = out.read_bytes()
        try:
            json.loads(body)
        except ValueError as exc:
            return [f"{command}: output is not JSON: {exc}"]
        key = (command, inst.index)
        first = self.seen.setdefault(key, body)
        if first != body:
            return [f"{command}: repeat invocation on input {inst.index} changed its JSON"]
        return []
