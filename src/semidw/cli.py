"""Command-line front end.

Commands
--------
compute       seminorm, minimum modulus, numerical radius, Crawford number
              and Davis-Wielandt radius of one (metric, operator) pair
bounds        evaluate the full bound catalog, report only
verify        same as bounds but exits 4 when any record is unsatisfied
exact         closed-form block radii of [[I,X],[O,O]] and [[O,X],[O,O]],
              each checked against the certified dw bracket of its block
remark-repro  built-in regression: A = diag(1,2), X = [[0,1],[0,0]],
              Y = [[1,0],[0,0]]; checks the four published bound values
suite         randomized property suites with violation replay files

Exit codes: 0 success, 2 parse error, 3 precondition failure, 4 property
violation, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import jsonio
from . import radii as rad
from . import sampling as smp
from .errors import ParseError, PreconditionError, PropertyViolation, SemidwError
from .metric import build_metric
from .semiop import block2, sharp

REMARK_EXPECTED = {
    "feki-sum-upper": 4.2994,
    "sum-split-upper": 2.621320,
    "product-sum-balanced-upper": 3.240466,
    "product-sum-aligned-upper": 3.26928,
}
REMARK_TOL = 5e-4


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{float(x):.6g}"


def _emit(args, payload: dict, text_lines: list[str], csv_text: str | None = None) -> None:
    if args.format == "json":
        out = jsonio.dump_json(payload, args.out)
        if args.out is None:
            print(out)
        return
    if args.format == "csv":
        body = csv_text if csv_text is not None else _kv_csv(payload)
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out is None:
        sys.stdout.write(body)
    else:
        Path(args.out).write_text(body)


def _kv_csv(payload: dict) -> str:
    rows = ["key,value"]

    def walk(obj, pre):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{pre}{k}.")
        elif isinstance(obj, list):
            rows.append(f"{pre[:-1]},\"{obj}\"")
        else:
            rows.append(f"{pre[:-1]},{obj}")

    walk(payload, "")
    return "\n".join(rows) + "\n"


def _load_pair(args):
    metric = build_metric(jsonio.load_matrix(args.metric))
    operator = jsonio.load_matrix(args.operator)
    return metric, operator


# ---------------------------------------------------------------------------
# commands


def cmd_compute(args) -> int:
    m, t = _load_pair(args)
    quantities = rad.estimates(m, t)
    payload = {name: est.to_dict() for name, est in quantities.items()}
    lines = [f"metric dim {m.dim}, rank {m.rank}"]
    for name, est in quantities.items():
        lines.append(f"{name:17s} = {_fmt(est.value):>12s}   ({est.method})")
    wit = quantities["dw_radius"].witness
    if wit is not None:
        lines.append("dw witness (ambient, null-space component zero):")
        lines.append("  " + np.array2string(wit, precision=6, suppress_small=True))
    _emit(args, payload, lines)
    return 0


def _report_text(report) -> list[str]:
    lines = [
        f"instance: dim {report.instance['dim']} rank {report.instance['rank']} "
        f"(metric {report.instance['metric_sha']}, operator {report.instance['operator_sha']})",
        f"reference dw = {_fmt(report.reference_dw)} "
        f"(bracket [{_fmt(report.reference_dw)}, {_fmt(report.reference_dw_upper)}])",
        f"{'record':34s} {'kind':6s} {'value':>12s} {'gap':>12s}  ok",
    ]
    for rec in report.records:
        ok = "n/a" if rec.satisfied is None else ("yes" if rec.satisfied else "NO")
        lines.append(f"{rec.anchor:34s} {rec.kind:6s} {_fmt(rec.value):>12s} "
                     f"{_fmt(rec.gap):>12s}  {ok}")
    lines.append(f"overall: {'pass' if report.overall_pass else 'FAIL'}")
    return lines


def cmd_bounds(args) -> int:
    """``bounds`` reports the catalog; ``verify`` also exits 4 when a record fails."""
    m, t = _load_pair(args)
    if args.operator2:
        t2 = jsonio.load_matrix(args.operator2)
        report = bnd.pair_report(m, t, t2, seed=args.seed, tol=args.tol)
    else:
        report = bnd.verify_all(m, t, seed=args.seed, tol=args.tol)
    _emit(args, jsonio.report_to_dict(report), _report_text(report), jsonio.report_csv(report))
    return 0 if report.overall_pass or args.command == "bounds" else 4


def cmd_exact(args) -> int:
    m, x = _load_pair(args)
    norm, checks = bnd.exact_checks(m, x, args.tol)
    payload = {f"{label}_block": closed.to_dict() for label, closed, _, _ in checks}
    lines = [f"||X||_A = {_fmt(norm)}"]
    for (_, closed, _, _), form in zip(checks, ("[[I,X],[O,O]]", "[[O,X],[O,O]]")):
        lines.append(f"dw of {form} = {_fmt(closed.value)}")
    if m.rank == 0:  # no A-unit vectors, nothing to check
        _emit(args, payload, lines)
        return 0
    for label, _, bracket, rec in checks:
        payload[f"oracle_{label}_block"] = bracket.to_dict()
        lines.append(f"{rec.anchor:22s} value {_fmt(rec.value):>12s} bracket "
                     f"[{_fmt(rec.reference_dw)}, {_fmt(rec.params['dw_upper'])}]  "
                     f"ok {'yes' if rec.satisfied else 'NO'}")
    records = [rec for _, _, _, rec in checks]
    payload["records"] = [jsonio.record_to_dict(rec) for rec in records]
    _emit(args, payload, lines)
    return 0 if all(rec.satisfied for rec in records) else 4


def cmd_remark_repro(args) -> int:
    m = build_metric(np.diag([1.0, 2.0]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    y = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    report = bnd.pair_report(m, x, y, seed=args.seed)
    dw_ref = report.reference_dw
    # the published values increase strictly: sum-split < balanced < aligned < feki
    ordering = sorted(REMARK_EXPECTED, key=REMARK_EXPECTED.get)
    by_anchor = {rec.anchor: rec for rec in report.records}
    rows = []
    all_ok = True
    for anchor, expected in REMARK_EXPECTED.items():
        rec = by_anchor[anchor]
        ok = abs(rec.value - expected) <= REMARK_TOL and bool(rec.satisfied)
        all_ok &= ok
        rows.append((anchor, rec.value, expected, ok))
    order_ok = all(by_anchor[a].value < by_anchor[b].value for a, b in zip(ordering, ordering[1:]))
    all_ok &= order_ok
    payload = {
        "dw": dw_ref,
        "dw_multistart": report.dw_multistart,
        "dw_oracle": report.dw_oracle,
        "tolerance": REMARK_TOL,
        "ordering_ok": order_ok,
        "overall_pass": bool(all_ok),
        "bounds": [
            {"anchor": a, "value": v, "expected": e, "ok": ok} for a, v, e, ok in rows
        ],
    }
    lines = [
        "built-in instance: A = diag(1,2), X = [[0,1],[0,0]], Y = [[1,0],[0,0]]",
        f"computed dw_A(X+Y) = {_fmt(dw_ref)}",
        f"{'bound':28s} {'value':>12s} {'reference':>12s}  ok",
    ]
    for a, v, e, ok in rows:
        lines.append(f"{a:28s} {_fmt(v):>12s} {_fmt(e):>12s}  {'yes' if ok else 'NO'}")
    lines.append(f"ordering sum-split < balanced < aligned < feki: {'yes' if order_ok else 'NO'}")
    lines.append(f"overall: {'pass' if all_ok else 'FAIL'}")
    csv_text = "anchor,value,expected,ok\n" + "\n".join(
        f"{a},{v!r},{e!r},{str(ok).lower()}" for a, v, e, ok in rows
    ) + "\n"
    _emit(args, payload, lines, csv_text)
    return 0 if all_ok else 4


# ---------------------------------------------------------------------------
# suite


def _suite_bounds_one(seed_entropy, dim: int, rank: int):
    rng = np.random.default_rng(seed_entropy)
    m = smp.random_metric(rng, dim, rank)
    t = smp.random_bounded_operator(rng, m)
    report = bnd.verify_all(m, t, seed=int(seed_entropy[-1]))
    return m, t, report


def _suite_exact_one(seed_entropy, dim: int, target_b: float):
    rng = np.random.default_rng(seed_entropy)
    m = smp.random_metric(rng, dim)
    x = smp.random_bounded_operator(rng, m)
    b = rad.op_seminorm(m, x).value
    if target_b == 0.0:
        x = np.zeros_like(x)
    elif b > 0:
        x = x * (target_b / b)
    values, failures = {}, []
    for label, closed, bracket, rec in bnd.exact_checks(m, x)[1]:
        values[f"{label}_block"] = (closed.value, bracket.value)
        if not rec.satisfied:
            failures.append(f"{label}_block")
    return values, failures


def _suite_invariance_one(seed_entropy, dim: int):
    rng = np.random.default_rng(seed_entropy)
    m = smp.random_metric(rng, dim)
    t = smp.random_bounded_operator(rng, m)
    dw_t = rad.dw_radius(m, t).value
    u = smp.random_phase_unitary(rng, m)
    conj = sharp(m, u) @ t @ u
    dw_conj = rad.dw_radius(m, conj).value
    failures = []
    if abs(dw_t - dw_conj) > 1e-6 * (1.0 + dw_t):
        failures.append("unitary-conjugation")
    x = smp.random_bounded_operator(rng, m)
    y = smp.random_bounded_operator(rng, m)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    zero = np.zeros((dim, dim))
    base = block2(m, zero, x, y, zero)
    phased = block2(m, zero, x, np.exp(1j * theta) * y, zero)
    swapped = block2(m, zero, y, x, zero)
    dw_base = rad.dw_radius(base.metric2, base.assembled).value
    dw_phase = rad.dw_radius(phased.metric2, phased.assembled).value
    dw_swap = rad.dw_radius(swapped.metric2, swapped.assembled).value
    if abs(dw_base - dw_phase) > 1e-6 * (1.0 + dw_base):
        failures.append("block-phase")
    if abs(dw_base - dw_swap) > 1e-6 * (1.0 + dw_base):
        failures.append("block-swap")
    return (dw_t, dw_conj, dw_base, dw_phase, dw_swap), failures


def cmd_suite(args) -> int:
    # --out DIR: the report and any violation replay file both go into DIR
    out_dir = Path(".")
    if args.out and Path(args.out).is_dir():
        out_dir = Path(args.out)
        ext = "txt" if args.format == "text" else args.format
        args.out = str(out_dir / f"semidw-suite.{ext}")
    if args.replay:
        return _replay(args)
    root = np.random.SeedSequence(args.seed)
    dims = [2, 3, 4]
    lines = []
    payload = {"seed": args.seed, "suites": {}}
    failed = None

    passed = 0
    for k in range(args.verify_count):
        dim = dims[k % len(dims)]
        rank = dim if k % 3 else max(1, dim - 1)
        entropy = [args.seed, 1, k]
        m, t, report = _suite_bounds_one(entropy, dim, rank)
        if report.overall_pass:
            passed += 1
        elif failed is None:
            failed = {
                "suite": "bounds",
                "entropy": entropy,
                "dim": dim,
                "rank": rank,
                "metric": jsonio.matrix_to_dict(m.a),
                "operator": jsonio.matrix_to_dict(t),
                "records": [jsonio.record_to_dict(r) for r in report.records
                            if r.satisfied is False],
            }
    lines.append(f"bounds suite:     {passed}/{args.verify_count} instances pass")
    payload["suites"]["bounds"] = {"pass": passed, "total": args.verify_count}

    branch_targets = [0.0, 0.3, 1.0 / np.sqrt(2.0), 0.9, 1.6]
    passed = 0
    for k in range(args.exact_count):
        dim = 2 + (k % 2)
        target = branch_targets[k % len(branch_targets)]
        entropy = [args.seed, 2, k]
        values, failures = _suite_exact_one(entropy, dim, target)
        if not failures:
            passed += 1
        elif failed is None:
            failed = {"suite": "exact", "entropy": entropy, "dim": dim,
                      "target_b": target, "failures": failures,
                      "values": {k2: list(v) for k2, v in values.items()}}
    lines.append(f"exact suite:      {passed}/{args.exact_count} instances pass")
    payload["suites"]["exact"] = {"pass": passed, "total": args.exact_count}

    passed = 0
    for k in range(args.invariance_count):
        dim = dims[k % len(dims)]
        entropy = [args.seed, 3, k]
        _, failures = _suite_invariance_one(entropy, dim)
        if not failures:
            passed += 1
        elif failed is None:
            failed = {"suite": "invariance", "entropy": entropy, "dim": dim,
                      "failures": failures}
    lines.append(f"invariance suite: {passed}/{args.invariance_count} instances pass")
    payload["suites"]["invariance"] = {"pass": passed, "total": args.invariance_count}

    if failed is not None:
        replay_file = out_dir / "semidw-violation.json"
        jsonio.dump_json(failed, replay_file)
        lines.append(f"violation detail written to {replay_file}")
        payload["violation"] = failed
        _emit(args, payload, lines)
        return 4
    _emit(args, payload, lines)
    return 0


#: field of a replay file -> (test, what the test asks for); a JSON bool is no integer
_REPLAY_FIELDS = {
    "entropy": (lambda v: type(v) is list and v != [] and all(type(e) is int and e >= 0 for e in v),
                "a nonempty list of nonnegative integers"),
    "dim": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    "rank": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    "target_b": (lambda v: type(v) in (int, float) and 0.0 <= v < np.inf, "a finite number >= 0"),
}


def _replay(args) -> int:
    import json

    keys = {"bounds": ("dim", "rank"), "exact": ("dim", "target_b"), "invariance": ("dim",)}
    try:
        data = json.loads(Path(args.replay).read_text())
        suite = data["suite"]
        entropy, *params = (data[key] for key in ("entropy", *keys[suite]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"replay file {args.replay} is not a suite violation: {exc!r}") from exc
    for key, value in zip(("entropy", *keys[suite]), (entropy, *params)):
        valid, what = _REPLAY_FIELDS[key]
        if not valid(value):
            raise ParseError(f"replay file {args.replay}: {key!r} is {value!r}, not {what}")
    if suite == "bounds":
        m, t, report = _suite_bounds_one(entropy, *params)
        _emit(args, jsonio.report_to_dict(report), _report_text(report),
              jsonio.report_csv(report))
        return 0 if report.overall_pass else 4
    if suite == "exact":
        values, failures = _suite_exact_one(entropy, *params)
        payload = {"values": {k: list(v) for k, v in values.items()},
                   "failures": failures}
    else:
        values, failures = _suite_invariance_one(entropy, *params)
        payload = {"values": list(values), "failures": failures}
    _emit(args, payload, [str(payload)])
    return 0 if not failures else 4


# ---------------------------------------------------------------------------
# argument parsing


def _checked(convert, valid, what: str):
    """argparse type: ``convert(text)``, a usage error (exit 2) unless ``valid`` holds."""
    def parse(text: str):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_count = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_tolerance = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite nonnegative number")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidw",
        description="Semi-Hilbertian operator radii and Davis-Wielandt bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # name, handler, help, reads --metric/--operator, reads --operator2, reads --tol
    commands = (
        ("compute", cmd_compute, "compute the five radius functionals", True, False, False),
        ("bounds", cmd_bounds, "evaluate the bound catalog (report only)", True, True, True),
        ("verify", cmd_bounds, "evaluate the bound catalog, exit 4 on failure", True, True, True),
        ("exact", cmd_exact, "closed-form block radii checked by the dw bracket",
         True, False, True),
        ("remark-repro", cmd_remark_repro, "built-in published-value regression",
         False, False, False),
        ("suite", cmd_suite, "randomized property suites", False, False, False),
    )
    for name, fn, help_text, needs_input, paired, judged in commands:
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--metric", required=True, help="metric JSON file")
            p.add_argument("--operator", required=True, help="operator JSON file")
        if paired:
            p.add_argument("--operator2", help="second operator JSON file (pair bounds)")
        p.add_argument("--seed", type=int, default=42,
                       help="suite reads it; bounds and verify record it in the report; "
                            "compute, exact and remark-repro ignore it")
        p.add_argument("--samples", type=_positive_int, default=None,
                       help="accepted for existing command lines; no command reads it")
        if judged:
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="verification tolerance override")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this path")
        p.set_defaults(fn=fn)
    p = sub.choices["suite"]
    p.add_argument("--verify-count", type=_count, default=60)
    p.add_argument("--exact-count", type=_count, default=30)
    p.add_argument("--invariance-count", type=_count, default=30)
    p.add_argument("--replay", help="re-run one serialized violation instance")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SemidwError as exc:  # internal failures, e.g. NonFiniteReference
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
