"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

import semidw as sd
from semidw.sampling import (
    random_bounded_operator,
    random_kernel_operator,
    random_metric,
    random_norm_sq_instance,
    random_phase_unitary,
    random_selfadjoint_operator,
)

from conftest import X_MAT, Y_MAT

SQ2 = np.sqrt(2.0)

REMARK_EXPECTED = (
    ("feki-sum-upper", 4.2994),
    ("sum-split-upper", 2.621320),
    ("product-sum-balanced-upper", 3.240466),
    ("product-sum-aligned-upper", 3.26928),
)
REMARK_TOL = 5e-4


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: published-value regression


def test_remark_regression(diag12):
    start = time.perf_counter()
    ref = sd.dw_radius(diag12, X_MAT + Y_MAT, seed=42).value
    eye = np.eye(2)
    values = {
        "feki-sum-upper": sd.feki_sum_upper(diag12, X_MAT, Y_MAT, reference=ref).value,
        "sum-split-upper": sd.sum_upper(diag12, X_MAT, Y_MAT, reference=ref)[0].value,
        "product-sum-balanced-upper": sd.product_sum_upper_b(
            diag12, eye, eye, X_MAT, Y_MAT, reference=ref).value,
        "product-sum-aligned-upper": sd.product_sum_upper_c(
            diag12, eye, eye, X_MAT, Y_MAT, reference=ref).value,
    }
    elapsed = time.perf_counter() - start
    devs = {anchor: abs(values[anchor] - expected) for anchor, expected in REMARK_EXPECTED}
    ordered = (values["sum-split-upper"] < values["product-sum-balanced-upper"]
               < values["product-sum-aligned-upper"] < values["feki-sum-upper"])
    ok = all(d <= REMARK_TOL for d in devs.values()) and ordered and elapsed < 5.0
    _line("remark regression",
          ok,
          f"max dev {max(devs.values()):.2e} (tol {REMARK_TOL}), "
          f"ordering {'kept' if ordered else 'broken'}, {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 2: exact formulas vs oracle


def test_exact_formula_agreement():
    start = time.perf_counter()
    branch_targets = [0.0, 0.3, 1.0 / SQ2, 0.95, 1.7]
    worst = 0.0
    count = 0
    for theorem in ("identity_block", "zero_block"):
        root = np.random.SeedSequence([2023, hash(theorem) % 1000])
        for k, child in enumerate(root.spawn(50)):
            rng = np.random.default_rng(child)
            n = 2 + k % 2
            m = random_metric(rng, n, n if k % 3 else n - 1)
            x = random_bounded_operator(rng, m)
            b = sd.op_seminorm(m, x).value
            target = branch_targets[k % 5]
            x = np.zeros_like(x) if target == 0.0 else x * (target / b)
            closed = (sd.dw_exact_ix if theorem == "identity_block"
                      else sd.dw_exact_0x)(m, x)
            top = np.eye(n) if theorem == "identity_block" else np.zeros((n, n))
            blk = sd.block2(m, top, x, np.zeros((n, n)), np.zeros((n, n)))
            oracle = sd.oracle_extremum(blk.metric2, blk.assembled, "dw",
                                        samples=4096, seed=k)
            rel = abs(closed.value - oracle.value) / (1.0 + closed.value)
            worst = max(worst, rel)
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0 and count == 100
    _line("exact-formula agreement", ok,
          f"{count} instances, worst rel dev {worst:.2e} (tol 1e-3), "
          f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 3: Cardano stationarity


def test_cardano_stationarity():
    start = time.perf_counter()
    thetas = np.linspace(0.0, np.pi / 2, 10_000)
    worst_grad = 0.0
    worst_grid = 0.0
    for b in np.linspace(0.05, 5.0, 100):
        data = sd.cardano_theta0(b)
        phi0 = sd.split_objective(data.theta0, b)
        h = 1e-6
        deriv = (sd.split_objective(data.theta0 + h, b)
                 - sd.split_objective(data.theta0 - h, b)) / (2 * h)
        worst_grad = max(worst_grad, abs(deriv) / (1.0 + phi0))
        grid_max = sd.split_objective(thetas, b).max()
        worst_grid = max(worst_grid, abs(phi0 - grid_max) / (1.0 + grid_max))
    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-6 and worst_grid <= 1e-6 and elapsed < 10.0
    _line("cardano stationarity", ok,
          f"100 b values, worst |phi'|/(1+phi) {worst_grad:.2e}, "
          f"worst grid dev {worst_grid:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 4 (+7): randomized inequality suite and oracle self-consistency


@pytest.fixture(scope="module")
def suite_instances():
    start = time.perf_counter()
    out = []
    root = np.random.SeedSequence(9090)
    dims = (2, 3, 4)
    for k, child in enumerate(root.spawn(200)):
        rng = np.random.default_rng(child)
        n = dims[k % 3]
        rank = n if k % 3 != 1 else max(1, n - 1)
        m = random_metric(rng, n, rank)
        t = random_bounded_operator(rng, m)
        report = sd.verify_all(m, t, seed=k)
        out.append((m, t, report))
    return out, time.perf_counter() - start


def test_inequality_suite(suite_instances):
    instances, elapsed = suite_instances
    violations = []
    dominance_failures = 0
    for idx, (m, t, report) in enumerate(instances):
        dw = report.reference_dw
        tol = report.tol
        for rec in report.records:
            if rec.status != "ok":
                violations.append((idx, rec.anchor, "status " + rec.status))
                continue
            if rec.kind == "lower" and rec.value > dw + tol:
                violations.append((idx, rec.anchor, rec.value - dw))
            if rec.kind == "upper" and rec.value < dw - tol:
                violations.append((idx, rec.anchor, dw - rec.value))
        by_anchor = {rec.anchor: rec for rec in report.records}
        params = by_anchor["lower-crawford-radius"].params
        if by_anchor["lower-crawford-radius"].value < params["w"] - tol:
            dominance_failures += 1
        if by_anchor["lower-crawford-norm"].value < params["norm"] ** 2 - tol:
            dominance_failures += 1
    ok = not violations and dominance_failures == 0 and elapsed < 120.0
    _line("inequality suite", ok,
          f"200 instances, {len(violations)} violations, "
          f"{dominance_failures} dominance failures, {elapsed:.1f}s (< 120s)")


def test_oracle_self_consistency(suite_instances):
    instances, _ = suite_instances
    worst_pair = 0.0
    worst_sharp = 0.0
    above_upper = 0
    checked = 0
    for k, (m, t, report) in enumerate(instances):
        if 0 < m.rank <= 6:
            oracle = sd.oracle_extremum(m, t, "dw", samples=4096, seed=k).value
            above_upper += oracle > report.reference_dw_upper
            rel = abs(report.reference_dw - oracle) / (1.0 + report.reference_dw)
            worst_pair = max(worst_pair, rel)
            checked += 1
        sh = sd.sharp(m, t)
        scale = 1.0 + np.linalg.norm(m.a) * np.linalg.norm(t)
        worst_sharp = max(worst_sharp,
                          np.linalg.norm(m.a @ sh - t.conj().T @ m.a) / scale)
    ok = worst_pair <= 1e-4 and not above_upper and worst_sharp <= 1e-10 and checked > 150
    _line("oracle self-consistency", ok,
          f"{checked} oracle pairs, worst dw dev {worst_pair:.2e} (tol 1e-4), "
          f"{above_upper} above the bracket, "
          f"worst adjoint residual {worst_sharp:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# criterion 5: equality characterizations


def test_equality_characterizations():
    root = np.random.SeedSequence(5151)
    worst_a = 0.0
    for k, child in enumerate(root.spawn(50)):
        rng = np.random.default_rng(child)
        n = 2 + k % 3
        m = random_metric(rng, n, n if k % 2 else max(1, n - 1))
        t = random_selfadjoint_operator(rng, m)
        dw = sd.dw_radius(m, t, seed=k).value
        w = sd.numerical_radius(m, t).value
        norm = sd.op_seminorm(m, t).value
        target = np.sqrt(w ** 2 + norm ** 4)
        worst_a = max(worst_a, abs(dw - target) / (1.0 + target))
    ok_a = worst_a <= 1e-6

    worst_b = 0.0
    for k, child in enumerate(np.random.SeedSequence(5252).spawn(50)):
        rng = np.random.default_rng(child)
        n = 2 + k % 3
        m = random_metric(rng, n, max(1, n - 1))
        t = random_kernel_operator(rng, m)
        worst_b = max(worst_b, sd.dw_radius(m, t, seed=k).value,
                      sd.numerical_radius(m, t).value)
    ok_b = worst_b <= 1e-10

    worst_c = 0.0
    premise_failures = 0
    for k, child in enumerate(np.random.SeedSequence(5353).spawn(20)):
        rng = np.random.default_rng(child)
        n = 2 + k % 3
        m = random_metric(rng, n, n)
        kappa = 0.75 + 1.25 * rng.random()
        t = random_norm_sq_instance(rng, m, kappa)
        dw = sd.dw_radius(m, t, seed=k).value
        norm = sd.op_seminorm(m, t).value
        if abs(dw - norm ** 2) > 1e-6 * (1.0 + dw):
            premise_failures += 1
            continue
        diag = sd.norm_sq_equality_check(m, t)
        assert diag.applicable
        worst_c = max(worst_c, diag.max_form_at_maximizers)
    ok_c = worst_c <= 1e-8 and premise_failures == 0

    _line("equality characterizations", ok_a and ok_b and ok_c,
          f"(a) worst normaloid dev {worst_a:.2e} (tol 1e-6); "
          f"(b) worst zero radius {worst_b:.2e} (tol 1e-10); "
          f"(c) worst maximizer form {worst_c:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# criterion 6: invariance


def test_invariance():
    root = np.random.SeedSequence(6161)
    worst_conj = 0.0
    worst_block = 0.0
    for k, child in enumerate(root.spawn(50)):
        rng = np.random.default_rng(child)
        n = 2 + k % 3
        m = random_metric(rng, n, n if k % 4 else max(1, n - 1))
        t = random_bounded_operator(rng, m)
        u = random_phase_unitary(rng, m)
        dw_t = sd.dw_radius(m, t, seed=k).value
        dw_c = sd.dw_radius(m, sd.sharp(m, u) @ t @ u, seed=k + 1).value
        worst_conj = max(worst_conj, abs(dw_t - dw_c) / (1.0 + dw_t))

        x = random_bounded_operator(rng, m)
        y = random_bounded_operator(rng, m)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        zero = np.zeros((n, n))
        base = sd.block2(m, zero, x, y, zero)
        phased = sd.block2(m, zero, x, np.exp(1j * theta) * y, zero)
        swapped = sd.block2(m, zero, y, x, zero)
        d0 = sd.dw_radius(base.metric2, base.assembled, seed=k).value
        d1 = sd.dw_radius(phased.metric2, phased.assembled, seed=k + 2).value
        d2 = sd.dw_radius(swapped.metric2, swapped.assembled, seed=k + 3).value
        worst_block = max(worst_block, abs(d1 - d0) / (1.0 + d0),
                          abs(d2 - d0) / (1.0 + d0))
    ok = worst_conj <= 1e-6 and worst_block <= 1e-6
    _line("invariance", ok,
          f"50 instances, worst unitary-conjugation dev {worst_conj:.2e}, "
          f"worst block phase/swap dev {worst_block:.2e} (tol 1e-6)")
