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
from .errors import ParseError, PreconditionError, SemidwError
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


def _bounds_case(entropy, dim: int, rank: int):
    rng = np.random.default_rng(entropy)
    m = smp.random_metric(rng, dim, rank)
    t = smp.random_bounded_operator(rng, m)
    report = bnd.verify_all(m, t, seed=int(entropy[-1]))
    detail = {"metric": jsonio.matrix_to_dict(m.a), "operator": jsonio.matrix_to_dict(t),
              "records": [jsonio.record_to_dict(r) for r in report.records
                          if r.satisfied is False]}
    return not report.overall_pass, detail, lambda: (
        jsonio.report_to_dict(report), _report_text(report), jsonio.report_csv(report))


def _exact_case(entropy, dim: int, target_b: float):
    rng = np.random.default_rng(entropy)
    m = smp.random_metric(rng, dim)
    x = smp.random_bounded_operator(rng, m)
    b = rad.op_seminorm(m, x).value
    if target_b == 0.0:
        x = np.zeros_like(x)
    elif b > 0:
        x = x * (target_b / b)
    values, failures = {}, []
    for label, closed, bracket, rec in bnd.exact_checks(m, x)[1]:
        values[f"{label}_block"] = [closed.value, bracket.value]
        if not rec.satisfied:
            failures.append(f"{label}_block")
    out = {"values": values, "failures": failures}
    return bool(failures), out, lambda: (out, [str(out)])


def _invariance_case(entropy, dim: int):
    rng = np.random.default_rng(entropy)
    m = smp.random_metric(rng, dim)
    t = smp.random_bounded_operator(rng, m)
    dw_t = rad.dw_radius(m, t).value
    u = smp.random_phase_unitary(rng, m)
    dw_conj = rad.dw_radius(m, sharp(m, u) @ t @ u).value
    x = smp.random_bounded_operator(rng, m)
    y = smp.random_bounded_operator(rng, m)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    zero = np.zeros((dim, dim))
    blocks = (block2(m, zero, x, y, zero), block2(m, zero, x, np.exp(1j * theta) * y, zero),
              block2(m, zero, y, x, zero))
    dw_base, dw_phase, dw_swap = (rad.dw_radius(b.metric2, b.assembled).value for b in blocks)
    failures = [name for name, ref, value in (("unitary-conjugation", dw_t, dw_conj),
                                              ("block-phase", dw_base, dw_phase),
                                              ("block-swap", dw_base, dw_swap))
                if abs(ref - value) > 1e-6 * (1.0 + ref)]
    out = {"values": [dw_t, dw_conj, dw_base, dw_phase, dw_swap], "failures": failures}
    return bool(failures), {"failures": failures}, lambda: (out, [str(out)])


_BRANCH_TARGETS = [0.0, 0.3, 1.0 / np.sqrt(2.0), 0.9, 1.6]

#: suite -> (entropy tag, count option, parameters of instance k, case). A case runs one
#: instance and returns (failed, violation detail, a function that gives the replay's
#: _emit arguments). A violation file holds the parameters; _replay reads those named
#: by instance 0.
_SUITES = {
    # every third metric (dim 2) has rank 1
    "bounds": (1, "verify_count",
               lambda k: {"dim": 2 + k % 3, "rank": 2 + k % 3 if k % 3 else 1}, _bounds_case),
    "exact": (2, "exact_count",
              lambda k: {"dim": 2 + k % 2, "target_b": _BRANCH_TARGETS[k % 5]}, _exact_case),
    "invariance": (3, "invariance_count", lambda k: {"dim": 2 + k % 3}, _invariance_case),
}


def cmd_suite(args) -> int:
    # --out DIR: the report and any violation replay file both go into DIR
    out_dir = Path(".")
    if args.out and Path(args.out).is_dir():
        out_dir = Path(args.out)
        ext = "txt" if args.format == "text" else args.format
        args.out = str(out_dir / f"semidw-suite.{ext}")
    if args.replay:
        return _replay(args)
    lines = []
    payload = {"seed": args.seed, "suites": {}}
    failed = None
    for suite, (tag, count, params, case) in _SUITES.items():
        total, passed = getattr(args, count), 0
        for k in range(total):
            entropy, fields = [args.seed, tag, k], params(k)
            bad, detail, _ = case(entropy, **fields)
            if not bad:
                passed += 1
            elif failed is None:
                failed = {"suite": suite, "entropy": entropy, **fields, **detail}
        lines.append(f"{suite + ' suite:':18s}{passed}/{total} instances pass")
        payload["suites"][suite] = {"pass": passed, "total": total}
    if failed is not None:
        replay_file = out_dir / "semidw-violation.json"
        jsonio.dump_json(failed, replay_file)
        lines.append(f"violation detail written to {replay_file}")
        payload["violation"] = failed
    _emit(args, payload, lines)
    return 0 if failed is None else 4


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

    try:
        data = json.loads(Path(args.replay).read_text())
        _, _, params, case = _SUITES[data["suite"]]
        fields = {key: data[key] for key in ("entropy", *params(0))}
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"replay file {args.replay} is not a suite violation: {exc!r}") from exc
    for key, value in fields.items():
        valid, what = _REPLAY_FIELDS[key]
        if not valid(value):
            raise ParseError(f"replay file {args.replay}: {key!r} is {value!r}, not {what}")
    if fields.get("rank", 0) > fields["dim"]:
        raise ParseError(f"replay file {args.replay}: 'rank' is {fields['rank']}, above 'dim' "
                         f"{fields['dim']}")
    failed, _, output = case(**fields)
    _emit(args, *output())
    return 4 if failed else 0


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
        p.add_argument("--seed", type=_count, default=42,
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
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SemidwError as exc:  # internal failures, e.g. NonFiniteReference
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
