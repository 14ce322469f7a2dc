"""Print one sha256 per output family of the package on the bench workloads' instances.

Run from the repository root::

    PYTHONPATH=src python tests/output_digest.py [--seeds 1 2 3]

For each seed it draws one pattern cycle of each library workload with
``bench/workloads.make_instance``; the bench module is imported and read, never
changed, as ``count_kernel_work.py`` does. The families, each hashed over the JSON of
its outputs in order:

- ``verify``: ``verify_all`` on ``catalog-lowrank`` and ``catalog-highrank``;
- ``pair``: ``pair_report`` on ``pair-blocks``;
- ``exact``: ``dw_exact_ix``, ``dw_exact_0x`` and ``exact_checks`` on ``pair-blocks``;
- ``compute``: ``radii.estimates`` on all three library workloads;
- ``block oracle``: ``oracle_extremum`` of the two blocks that ``op_pair_blocks``
  checks, where their compressed rank is at most 6, at its sample count;
- ``cli <command>``: the JSON that in-process ``semidw.cli.main`` writes for each
  command of ``CLI_COMMANDS``, with the bench's arguments, on ``cli-cold`` inputs
  ``0 .. CLI_INPUTS - 1`` (``remark-repro``, which reads no input, on input 0 only),
  with its exit code.

Two trees that print the same digests give the same outputs, byte for byte, on
these instances. ``tests/test_bench_api.py`` runs :func:`output_digests` twice on
seed 1 and compares.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: the cli-cold inputs each seed runs through the CLI: metric dims 2, 3 and 4
CLI_INPUTS = 3


def _library_outputs(sd, workloads, seed: int):
    """``(family, JSON-ready output)`` pairs of the library families on one seed."""
    from semidw import bounds, jsonio, radii

    for workload in ("catalog-lowrank", "catalog-highrank", "pair-blocks"):
        for k in range(len(workloads.pattern(workload))):
            inst = workloads.make_instance(workload, seed, k)
            m = sd.build_metric(inst.a)
            est = radii.estimates(m, inst.x)
            yield "compute", {name: e.to_dict() for name, e in est.items()}
            if workload != "pair-blocks":
                yield "verify", jsonio.report_to_dict(bounds.verify_all(m, inst.x, seed=inst.seed))
                continue
            yield "pair", jsonio.report_to_dict(
                bounds.pair_report(m, inst.x, inst.y, seed=inst.seed))
            norm, checks = bounds.exact_checks(m, inst.x)
            yield "exact", {"ix": sd.dw_exact_ix(m, inst.x).to_dict(),
                            "0x": sd.dw_exact_0x(m, inst.x).to_dict(), "norm": norm,
                            "checks": [[label, closed.to_dict(), bracket.to_dict(),
                                        jsonio.record_to_dict(rec)]
                                       for label, closed, bracket, rec in checks]}
            if 0 < 2 * m.rank <= 6:
                zero = np.zeros((m.dim, m.dim))
                for top in (np.eye(m.dim), zero):
                    blk = sd.block2(m, top, inst.x, zero, zero)
                    yield "block oracle", sd.oracle_extremum(
                        blk.metric2, blk.assembled, "dw",
                        samples=workloads.BLOCK_ORACLE_SAMPLES, seed=inst.seed).to_dict()


def _cli_outputs(workloads, seed: int) -> list:
    """``(family, bytes)`` pairs: each CLI command's exit code and JSON on one seed, run
    in a temporary directory, as the bench's arguments name the inputs relative to it."""
    from semidw import cli

    outputs, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k in range(CLI_INPUTS):
                inst = workloads.make_instance("cli-cold", seed, k)
                workloads.write_cli_inputs(inst, Path(tmp))
                for command in workloads.CLI_COMMANDS:
                    if command == "remark-repro" and k:
                        continue
                    out = Path(tmp) / "out.json"
                    out.unlink(missing_ok=True)
                    code = cli.main(workloads.cli_args(command, inst, out))
                    body = out.read_bytes() if out.exists() else b""
                    outputs.append((f"cli {command}", f"exit {code}\n".encode() + body))
        finally:
            os.chdir(cwd)
    return outputs


def output_digests(seeds, patch=setattr) -> dict:
    """``{family: (outputs, sha256)}`` over ``seeds``, with ``bench/`` put on ``sys.path``
    by ``patch`` (a test passes ``monkeypatch.setattr``, which undoes it)."""
    patch(sys, "path", [str(ROOT / "bench"), *sys.path])
    import workloads

    import semidw as sd
    from semidw import jsonio

    counts: dict = {}
    digests: dict = {}
    for seed in seeds:
        outputs = [(family, (jsonio.dump_json(jsonio._jsonable(obj)) + "\n").encode())
                   for family, obj in _library_outputs(sd, workloads, seed)]
        for family, data in outputs + _cli_outputs(workloads, seed):
            counts[family] = counts.get(family, 0) + 1
            digests.setdefault(family, hashlib.sha256()).update(data)
    return {family: (counts[family], digest.hexdigest()) for family, digest in digests.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    print(f"seeds {' '.join(map(str, args.seeds))}")
    for family, (count, digest) in output_digests(args.seeds).items():
        print(f"{family:18s} {count:4d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
