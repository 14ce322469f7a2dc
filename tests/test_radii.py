import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import semidw as sd
from semidw import radii
from semidw._optim import START_ANGLES
from semidw.errors import NormOutOfRange, RankTooLarge
from semidw.metric import compress
from semidw.radii import DW_MAX_DIRECTIONS, NORM_MAX, _dw_core, _Memo, _sphere_samples, _w_core
from semidw.sampling import (
    random_bounded_operator,
    random_kernel_operator,
    random_metric,
    random_phase_unitary,
    random_selfadjoint_operator,
)

from conftest import X_MAT, Y_MAT
from helpers import brute_crawford, brute_dw, brute_numrad, brute_seminorm

SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# seminorm and minimum modulus


def test_seminorm_examples(id2, diag12):
    t = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert sd.op_seminorm(id2, t).value == pytest.approx(np.linalg.norm(t, 2), abs=1e-12)
    # oracle: top singular value of the hand-compressed matrix
    comp = np.diag([1.0, SQ2]) @ X_MAT @ np.diag([1.0, 1 / SQ2])
    expect = np.linalg.svd(comp, compute_uv=False)[0]
    assert sd.op_seminorm(diag12, X_MAT).value == pytest.approx(expect, abs=1e-12)
    assert sd.op_seminorm(diag12, X_MAT).value == pytest.approx(2 ** -0.5, abs=1e-12)
    assert sd.op_seminorm(diag12, Y_MAT).value == pytest.approx(1.0, abs=1e-12)
    assert brute_seminorm(diag12.a, X_MAT) <= sd.op_seminorm(diag12, X_MAT).value + 1e-9


def test_min_modulus_examples(id2, diag12):
    assert sd.min_modulus(id2, np.eye(2)).value == pytest.approx(1.0)
    assert sd.min_modulus(diag12, X_MAT).value == pytest.approx(0.0, abs=1e-12)
    assert sd.min_modulus(diag12, np.diag([2.0, 3.0])).value == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# numerical radius


def test_numerical_radius_examples(id2, diag12):
    assert sd.numerical_radius(id2, np.diag([1.0, 1.0j])).value == pytest.approx(1.0, abs=1e-10)
    est = sd.numerical_radius(diag12, X_MAT)
    assert est.value == pytest.approx(1 / (2 * SQ2), abs=1e-10)
    assert est.value == pytest.approx(brute_numrad(diag12.a, X_MAT), abs=1e-4)
    # cross term of the worked instance compresses to a real symmetric matrix
    s = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert sd.numerical_radius(diag12, s).value == pytest.approx(2 ** -0.5, abs=1e-10)


def test_numerical_radius_witness(diag12):
    est = sd.numerical_radius(diag12, X_MAT)
    assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
    n_mat = compress(diag12, X_MAT)
    val = abs(np.vdot(est.maximizer, n_mat @ est.maximizer))
    assert val == pytest.approx(est.value, abs=1e-8)


# ---------------------------------------------------------------------------
# Crawford number


def test_crawford_examples(id2, diag12):
    assert sd.crawford(id2, np.eye(2)).value == pytest.approx(1.0, abs=1e-10)
    assert sd.crawford(diag12, X_MAT).value == pytest.approx(0.0, abs=1e-10)
    assert sd.crawford(id2, np.diag([1.0, 3.0])).value == pytest.approx(1.0, abs=1e-10)


def test_crawford_matches_convexity_sweep_and_oracle():
    # 100 seeded random 3x3 instances: optimizer vs certified sweep vs oracle
    rng = np.random.default_rng(17)
    for k in range(100):
        m = random_metric(rng, 3, 3 if k % 4 else 2)
        t = random_bounded_operator(rng, m)
        est = sd.crawford(m, t)
        n_mat = compress(m, t)
        dist, _, _ = sd.numrange_distance(n_mat)
        assert est.value == pytest.approx(dist, abs=1e-8 * (1 + np.linalg.norm(n_mat) ** 2))
        ora = sd.oracle_extremum(m, t, "crawford", samples=2048, seed=k)
        assert abs(est.value - ora.value) <= 1e-6 * (1 + est.value)


def _form_gap(est, n_mat):
    c = est.maximizer
    return abs(abs(np.vdot(c, n_mat @ c)) - est.value)


def test_crawford_certified_zero_where_descent_stalled():
    # 0 lies in W(N) of T - |T|^2_A here; the former multistart projected
    # gradient descent stalled at |c*Nc| = 5.1e-4 on this instance
    rng = np.random.default_rng(135)
    n = int(rng.integers(2, 7))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    op = t - sd.abs_sq(m, t)
    est = sd.crawford(m, op)
    n_mat = compress(m, op)
    assert est.value == 0.0
    assert est.value == sd.numrange_distance(n_mat)[0]
    assert est.method == "convexity_sweep"
    c = est.maximizer
    assert abs(np.vdot(c, n_mat @ c)) <= 1e-12 * (1 + np.linalg.norm(n_mat))


def _witness_cases(rng):
    """Compressed matrices of ranks 1-24 covering every witness branch."""
    for k in range(48):
        r = 1 + (7 * k) % 24
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        q, _ = np.linalg.qr(g)
        kind = k % 6
        if kind == 0:  # 0 inside W(N)
            yield g
        elif kind == 1:  # 0 outside W(N)
            yield g + (3.0 + 2.0 * r) * np.exp(2j * np.pi * rng.random()) * np.eye(r)
        elif kind == 2:  # PSD, singular every other time (0 on the boundary)
            h = g[:, : r - (k // 6) % 2] if r > 1 else g
            yield h @ h.conj().T
        elif kind == 3:  # normal with the flat face [1 - i, 1 + i] nearest 0
            ev = 2.0 + np.abs(g[0]) + 1j * g[0].imag
            ev[:2] = [1 + 1j, 1 - 1j][: r]
            yield np.exp(2j * np.pi * rng.random()) * (q * ev) @ q.conj().T
        elif kind == 4:  # normal with random spectrum, 0 inside or outside
            ev = g[0] + (3.0 if k % 4 else 0.0)
            yield (q * ev) @ q.conj().T
        else:  # rank one (0 in W(N) once r >= 2), or a scalar matrix
            yield np.outer(g[0], g[1].conj()) if (k // 6) % 2 else (1 - 2j) * np.eye(r)


def test_crawford_witness_attains_value():
    rng = np.random.default_rng(2024)
    for n_mat in _witness_cases(rng):
        r = n_mat.shape[0]
        m = sd.build_metric(np.eye(r))
        est = sd.crawford(m, n_mat)
        assert est.value == sd.numrange_distance(n_mat)[0]
        assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
        gap = _form_gap(est, n_mat)
        assert gap <= 1e-12 * (1 + np.linalg.norm(n_mat)), (r, gap)
        assert est.residual == pytest.approx(gap, abs=1e-14 * (1 + np.linalg.norm(n_mat)))


# ---------------------------------------------------------------------------
# Crawford: the inner-polygon short cut


def _takes_short_cut(n_mat):
    return radii._inner_zero(n_mat, *_Memo().run(radii._start_support, n_mat)) is not None


def _kernel_counted(monkeypatch):
    calls = []

    def counted(*args, _kernel=radii.rotated_eig_max):
        calls.append(args[1])
        return _kernel(*args)

    monkeypatch.setattr(radii, "rotated_eig_max", counted)
    return calls


def _interior_zero_cases():
    """Seeded complex Gaussian matrices; 0 lies inside their numerical ranges."""
    rng = np.random.default_rng(18)
    for r in (3, 4, 6, 12, 24):
        yield rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))


def _form_scale(c, n_mat):
    return abs(np.vdot(c, n_mat @ c)) / np.linalg.norm(n_mat, 2)


def test_crawford_short_cut_runs_no_kernel(monkeypatch):
    for n_mat in _interior_zero_cases():
        calls = _kernel_counted(monkeypatch)
        value, c, iterations, residual = _Memo().run(radii._crawford_core, n_mat)
        assert calls == []
        assert (value, iterations) == (0.0, START_ANGLES)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        assert _form_scale(c, n_mat) <= 1e-14
        assert residual == abs(np.vdot(c, n_mat @ c))
        monkeypatch.undo()
        # the kernel path, with the short cut off, certifies the same value
        assert sd.numrange_distance(n_mat)[0] == 0.0
        monkeypatch.setattr(radii, "_inner_zero", lambda *args: None)
        calls = _kernel_counted(monkeypatch)
        assert _Memo().run(radii._crawford_core, n_mat)[0] == 0.0
        assert calls == [0]
        monkeypatch.undo()


@pytest.mark.parametrize("r", [2, 3, 5])
def test_crawford_psd_singular_takes_kernel(r, monkeypatch):
    # 0 is on the boundary of W(G) = [0, lambda_max]: no interior to certify
    rng = np.random.default_rng(r)
    h = rng.standard_normal((r, r - 1)) + 1j * rng.standard_normal((r, r - 1))
    gram = h @ h.conj().T
    assert not _takes_short_cut(gram)
    calls = _kernel_counted(monkeypatch)
    value, c, _, _ = _Memo().run(radii._crawford_core, gram)
    assert calls == [0]
    assert value == pytest.approx(0.0, abs=1e-14 * np.linalg.norm(gram, 2))
    assert _form_scale(c, gram) <= 1e-14


@pytest.mark.parametrize("r", [2, 3, 6])
def test_crawford_hermitian_segment_takes_kernel(r, monkeypatch):
    # W(N) = [lambda_min, lambda_max] holds 0 in its relative interior, but the
    # hull of the support points is a segment with no interior
    rng = np.random.default_rng(30 + r)
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, _ = np.linalg.qr(g)
    ev = np.linspace(-1.0, 2.0, r)
    n_mat = (q * ev) @ q.conj().T
    n_mat = 0.5 * (n_mat + n_mat.conj().T)
    assert not _takes_short_cut(n_mat)
    calls = _kernel_counted(monkeypatch)
    value, c, _, _ = _Memo().run(radii._crawford_core, n_mat)
    assert calls == [0]
    assert value == 0.0
    assert _form_scale(c, n_mat) <= 1e-14


def _normal(rng, r, ev):
    q = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
    return (q * ev) @ q.conj().T


@pytest.mark.parametrize("r", [3, 4, 6, 8])
def test_crawford_normal_short_cut(r, monkeypatch):
    # the top eigenvectors of a normal N repeat across the start angles: their
    # points coincide up to rounding and are dropped before the edge test
    rng = np.random.default_rng(60 + r)
    ev = (0.5 + rng.random(r)) * np.exp(2j * np.pi * (np.arange(r) + 0.3 * rng.random(r)) / r)
    inside = _normal(rng, r, ev)
    assert _takes_short_cut(inside)
    calls = _kernel_counted(monkeypatch)
    value, c, iterations, _ = _Memo().run(radii._crawford_core, inside)
    assert calls == []
    assert (value, iterations) == (0.0, START_ANGLES)
    assert _form_scale(c, inside) <= 1e-14
    # 0 outside W(N): the kernel runs and the value is the distance to the hull
    outside = _normal(rng, r, ev + 3.0)
    assert not _takes_short_cut(outside)
    calls.clear()
    value = _Memo().run(radii._crawford_core, outside)[0]
    assert calls == [0]
    # the nearest point of the hull of the eigenvalues lies on a segment of two of them
    a, b = np.meshgrid(ev + 3.0, ev + 3.0)
    t = np.clip((-a.conj() * (b - a)).real / np.maximum(np.abs(b - a) ** 2, 1e-300), 0.0, 1.0)
    assert value == pytest.approx(np.abs(a + t * (b - a)).min(), rel=1e-12)


def test_crawford_invariant_on_both_routes():
    rng = np.random.default_rng(41)
    for inside in _interior_zero_cases():
        r = inside.shape[0]
        outside = inside + (3.0 + 2.0 * r) * np.exp(2j * np.pi * rng.random()) * np.eye(r)
        u = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
        for n_mat, short in ((inside, True), (outside, False)):
            value = _Memo().run(radii._crawford_core, n_mat)[0]
            for moved, scale in ((u @ n_mat @ u.conj().T, 1.0), (2.5 * n_mat, 2.5),
                                 (1e-3 * n_mat, 1e-3)):
                assert _takes_short_cut(moved) is short
                moved_value = _Memo().run(radii._crawford_core, moved)[0]
                assert moved_value == pytest.approx(scale * value, rel=1e-10)
            assert (value == 0.0) is short


# ---------------------------------------------------------------------------
# Davis-Wielandt radius


def test_dw_examples(id2, diag12):
    assert sd.dw_radius(id2, np.eye(2)).value == pytest.approx(SQ2, abs=1e-10)
    assert sd.dw_radius(diag12, Y_MAT).value == pytest.approx(SQ2, abs=1e-10)
    assert sd.dw_radius(diag12, X_MAT).value == pytest.approx(0.5, abs=1e-10)
    assert sd.dw_radius(diag12, X_MAT).value == pytest.approx(
        brute_dw(diag12.a, X_MAT), abs=1e-4)


def test_dw_witness_reproduces_value(diag12):
    est = sd.dw_radius(diag12, Y_MAT)
    assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
    n_mat = compress(diag12, Y_MAT)
    c = est.maximizer
    val = np.sqrt(abs(np.vdot(c, n_mat @ c)) ** 2 + np.linalg.norm(n_mat @ c) ** 4)
    assert val == pytest.approx(est.value, abs=1e-8)
    # ambient witness is A-unit and reproduces the value from the definition
    x = est.witness
    assert sd.semi_norm_vec(diag12, x) == pytest.approx(1.0, abs=1e-10)
    form = sd.semi_inner(diag12, Y_MAT @ x, x)
    norm = sd.semi_norm_vec(diag12, Y_MAT @ x)
    assert np.sqrt(abs(form) ** 2 + norm ** 4) == pytest.approx(est.value, abs=1e-8)


def test_dw_determinism(diag12):
    rng = np.random.default_rng(1)
    t = random_bounded_operator(rng, diag12)
    a = sd.dw_radius(diag12, t, seed=123)
    b = sd.dw_radius(diag12, t, seed=123)
    assert a.value == b.value
    np.testing.assert_array_equal(a.maximizer, b.maximizer)
    ora1 = sd.oracle_extremum(diag12, t, "dw", samples=2048, seed=9)
    ora2 = sd.oracle_extremum(diag12, t, "dw", samples=2048, seed=9)
    assert ora1.value == ora2.value


def test_dw_runs_w_only_when_it_reads_it(diag12, monkeypatch):
    calls = []

    def counted(n_mat, memo, _core=radii._w_core):
        calls.append(n_mat.tobytes())
        return _core(n_mat, memo)

    monkeypatch.setattr(radii, "_w_core", counted)
    assert sd.dw_radius(diag12, np.zeros((2, 2))).value == 0.0
    assert calls == []
    with pytest.raises(NormOutOfRange):
        sd.dw_radius(diag12, np.array([[0.0, 2.0 * NORM_MAX], [0.0, 0.0]]))
    assert calls == []
    assert sd.dw_radius(diag12, Y_MAT).value == pytest.approx(SQ2, abs=1e-10)
    assert calls == [compress(diag12, Y_MAT).tobytes()]


def test_dw_bracket_is_scale_free():
    # G = N*N grows like ||N||^2: nothing may overflow or lose the bracket up to 1e60
    rng = np.random.default_rng(1)
    n_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n_mat /= np.linalg.norm(n_mat, 2)
    w_val = _Memo().run(_w_core, n_mat)[0]
    for s in (1e3, 1e5, 1e20, 1e60):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, _, calls, width = _Memo().run(_dw_core, s * n_mat)
        assert calls <= DW_MAX_DIRECTIONS, s
        assert 0.0 <= width <= 1e-9 * (1.0 + value), s
        # the sandwich max(w, ||N||^2) <= dw <= sqrt(w^2 + ||N||^4) at ||s N|| = s
        lower, upper = s ** 2, np.hypot(s * w_val, s ** 2)
        assert lower * (1 - 1e-14) <= value <= upper * (1 + 1e-14), s


def _shell_family():
    """Named compressed matrices: Gaussian r = 1..24 and structured shells."""
    rng = np.random.default_rng(2024)
    out = [(f"gaussian r={r}", rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
           for r in (1, 2, 3, 4, 5, 6, 8, 12, 24)]
    for r in (2, 3, 5):
        h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        u, v = rng.standard_normal((2, r)) + 1j * rng.standard_normal((2, r))
        out += [(f"hermitian r={r}", h + h.conj().T),
                (f"nilpotent r={r}", np.diag(np.ones(r - 1), 1).astype(complex)),
                (f"scalar r={r}", (0.3 - 0.4j) * np.eye(r, dtype=complex)),
                (f"rank-one r={r}", np.outer(u, v.conj()))]
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    # two equal eigenvalues put a flat face on the numerical range
    out.append(("normal with a face", q @ np.diag([1.0, 1.0, 0.5j, -0.5]) @ q.conj().T))
    out.append(("jordan 4x4", np.diag(np.ones(3), 1) + 0.5 * np.eye(4)))
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out += [(f"gaussian x{s:g}", s * base) for s in (1e-9, 1e-3, 1e3, 1e20, 1e60)]
    return out


@pytest.mark.parametrize("name, n_mat", _shell_family(), ids=lambda v: v if isinstance(v, str) else "")
def test_dw_bracket_contains_oracle(name, n_mat):
    r = n_mat.shape[0]
    lower, c, calls, width = _Memo().run(_dw_core, n_mat)
    upper = lower + width
    assert calls <= DW_MAX_DIRECTIONS
    assert 0.0 <= width <= 1e-9 * (1.0 + lower)
    # the lower end is attained at its witness
    gram = n_mat.conj().T @ n_mat
    attained = abs(np.vdot(c, n_mat @ c)) ** 2 + np.vdot(c, gram @ c).real ** 2
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
    assert attained == pytest.approx(lower ** 2, rel=1e-13)
    if r <= 6:
        # the oracle's value is attained, so even one ulp above it stays under the upper
        # end; its quasi-Newton stops a few ulps short of the maximum, so it confirms the
        # lower end to the width tolerance rather than bounding it
        ora = sd.oracle_extremum(sd.build_metric(np.eye(r)), n_mat, "dw", samples=4096,
                                 seed=r).value
        assert np.nextafter(ora, np.inf) <= upper
        assert ora >= lower - 1e-9 * (1.0 + lower)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_identity(id2):
    est = sd.oracle_extremum(id2, np.eye(2), "dw", samples=2048, seed=5)
    assert est.value == pytest.approx(SQ2, abs=1e-6)


def test_oracle_matches_exact_closed_form(diag12):
    # dw of [[1, 1], [0, 0]] under diag(1,2) equals the scalar-block closed
    # form at b = 1/sqrt(2): two independent computations of one supremum
    m1 = sd.build_metric(np.eye(1))
    closed = sd.dw_exact_ix(m1, np.array([[2 ** -0.5]]))
    ora = sd.oracle_extremum(diag12, X_MAT + Y_MAT, "dw", samples=8192, seed=3)
    assert abs(closed.value - ora.value) <= 1e-6


def test_oracle_scale_free_below_unit_norm():
    # the oracle scaled its objective by max(||N||_2, 1)^2, so at ||N|| ~ 1e-9 its
    # fixed gradient tolerance stopped it 7.2e-8 (relative) below the maximum
    rng = np.random.default_rng(4)
    n_mat = 1e-9 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lower = _Memo().value(_dw_core, n_mat)
    ora = sd.oracle_extremum(sd.build_metric(np.eye(3)), n_mat, "dw", samples=4096, seed=4)
    assert ora.value == pytest.approx(lower, rel=1e-12, abs=0.0)


def test_oracle_guards(diag12):
    with pytest.raises(ValueError):
        sd.oracle_extremum(diag12, X_MAT, "nope", samples=128, seed=0)
    big = sd.build_metric(np.eye(7))
    with pytest.raises(RankTooLarge):
        sd.oracle_extremum(big, np.eye(7), "dw", samples=128, seed=0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            sd.oracle_extremum(diag12, X_MAT, "dw", samples=samples, seed=0)


def test_sphere_samples_seeded_unit_rows():
    rows = _sphere_samples(3, 1000, 7)
    assert rows.shape == (1000, 3)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(rows, _sphere_samples(3, 1000, 7))
    assert not np.any(np.all(rows == _sphere_samples(3, 1000, 8), axis=1))
    assert _sphere_samples(2, 1, 0).shape == (1, 2)


@pytest.mark.parametrize("r", range(1, 7))
def test_sphere_samples_uniform_moment(r):
    # uniform on the complex r-sphere: every |c_j|^2 has mean 1/r
    mean_sq = np.mean(np.abs(_sphere_samples(r, 8192, 11)) ** 2, axis=0)
    np.testing.assert_allclose(mean_sq, 1.0 / r, rtol=0, atol=0.02)


#: the level-set kernel loads scipy's LAPACK extension alone, never the scipy.linalg package
_SLOW_IMPORTS = ("scipy.linalg", "scipy.optimize", "scipy.stats", "scipy.special")


def _loaded_after(code: str) -> list[str]:
    """The modules of ``_SLOW_IMPORTS`` that a fresh interpreter holds after ``code``."""
    probe = f"{code}\nimport sys\nprint(' '.join(k for k in {_SLOW_IMPORTS!r} if k in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120, check=True)
    return proc.stdout.split()


def test_import_loads_no_optimizer_or_stats():
    assert _loaded_after("import semidw") == []
    assert _loaded_after("import semidw.cli") == []
    # the sampler needs numpy alone; the refinement loads scipy.optimize, whose
    # package init (linprog -> scipy.fft) pulls in scipy.special but never scipy.stats
    assert _loaded_after("from semidw.radii import _sphere_samples\n"
                         "_sphere_samples(3, 64, 1)") == []
    loaded = _loaded_after("import numpy as np, semidw as sd\n"
                           "sd.oracle_extremum(sd.build_metric(np.eye(2)), np.eye(2), 'dw',"
                           " samples=64, seed=1)")
    assert "scipy.optimize" in loaded and "scipy.stats" not in loaded


def test_default_commands_load_no_optimizer(tmp_path):
    # no command runs the oracle: the reports, dw and the closed-form checks of exact
    # and the suite all stand on the certified dw bracket
    metric, operator = tmp_path / "a.json", tmp_path / "t.json"
    metric.write_text('{"rows": 2, "cols": 2, "re": [[1, 0], [0, 2]]}')
    operator.write_text('{"rows": 2, "cols": 2, "re": [[0, 1], [0, 0]], "im": [[0, 0], [0.5, 0]]}')
    pair = f"'--metric', {str(metric)!r}, '--operator', {str(operator)!r}"
    suite = "'--verify-count', '1', '--exact-count', '1', '--invariance-count', '1'"
    assert _loaded_after("import os\nfrom semidw.cli import main\n"
                         f"for args in (['verify', {pair}], ['compute', {pair}], "
                         f"['exact', {pair}], ['remark-repro'], ['suite', {suite}]):\n"
                         "    assert main([*args, '--out', os.devnull]) == 0, args") == []


# ---------------------------------------------------------------------------
# spec invariants


@pytest.mark.parametrize("seed", range(10))
def test_radius_inequalities_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    norm = sd.op_seminorm(m, t).value
    w = sd.numerical_radius(m, t).value
    dw = sd.dw_radius(m, t, seed=seed).value
    # seminorm equivalence
    assert 0.5 * norm <= w + 1e-10 * (1 + norm)
    assert w <= norm + 1e-10 * (1 + norm)
    # sandwich
    assert max(w, norm ** 2) <= dw + 1e-8 * (1 + dw)
    assert dw <= np.sqrt(w ** 2 + norm ** 4) + 1e-8 * (1 + dw)
    # product norm ||T^# T|| = ||T||^2
    prod = sd.op_seminorm(m, sd.sharp(m, t) @ t).value
    assert abs(prod - norm ** 2) <= 1e-8 * (1 + norm ** 2)
    # oracle agreement
    if m.rank <= 6:
        ora = sd.oracle_extremum(m, t, "dw", samples=4096, seed=seed)
        assert dw >= ora.value - 1e-6 * (1 + dw)
        assert dw <= ora.value + 1e-4 * (1 + dw)


@pytest.mark.parametrize("seed", range(6))
def test_selfadjoint_radius_equals_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_selfadjoint_operator(rng, m)
    assert sd.is_a_selfadjoint(m, t)
    w = sd.numerical_radius(m, t).value
    norm = sd.op_seminorm(m, t).value
    assert abs(w - norm) <= 1e-8 * (1 + norm)


@pytest.mark.parametrize("seed", range(6))
def test_unitary_invariance(seed):
    rng = np.random.default_rng(seed + 40)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    u = random_phase_unitary(rng, m)
    assert sd.is_a_unitary(m, u)
    # both ends of the dw bracket
    est = sd.dw_radius(m, t, seed=seed)
    conj = sd.dw_radius(m, sd.sharp(m, u) @ t @ u, seed=seed + 1)
    tol = 1e-9 * (1 + est.value)
    assert abs(est.value - conj.value) <= tol
    assert abs(est.value + est.residual - conj.value - conj.residual) <= tol


def test_block_phase_swap_invariance(diag12):
    rng = np.random.default_rng(77)
    x = random_bounded_operator(rng, diag12)
    y = random_bounded_operator(rng, diag12)
    zero = np.zeros((2, 2))
    base = sd.block2(diag12, zero, x, y, zero)
    phased = sd.block2(diag12, zero, x, np.exp(1.3j) * y, zero)
    swapped = sd.block2(diag12, zero, y, x, zero)
    d0 = sd.dw_radius(base.metric2, base.assembled, seed=0).value
    d1 = sd.dw_radius(phased.metric2, phased.assembled, seed=1).value
    d2 = sd.dw_radius(swapped.metric2, swapped.assembled, seed=2).value
    assert d1 == pytest.approx(d0, abs=1e-6 * (1 + d0))
    assert d2 == pytest.approx(d0, abs=1e-6 * (1 + d0))


@pytest.mark.parametrize("seed", range(4))
def test_zero_characterization(seed):
    rng = np.random.default_rng(seed + 7)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n)))
    t = random_kernel_operator(rng, m)
    assert np.linalg.norm(m.a @ t) <= 1e-12 * (1 + np.linalg.norm(t))
    assert sd.dw_radius(m, t, seed=seed).value <= 1e-10
    assert sd.numerical_radius(m, t).value <= 1e-10


def test_crawford_brute_force(diag12):
    rng = np.random.default_rng(123)
    t = random_bounded_operator(rng, diag12)
    est = sd.crawford(diag12, t)
    # every sampled |<Tx,x>_A| is feasible, so the brute minimum can only
    # overshoot the true infimum
    assert est.value <= brute_crawford(diag12.a, t) + 1e-9


def test_rank_zero_metric():
    m = sd.build_metric(np.zeros((2, 2)))
    t = np.zeros((2, 2))
    for fn in (sd.op_seminorm, sd.min_modulus, sd.numerical_radius):
        est = fn(m, t)
        assert est.value == 0.0
    assert sd.dw_radius(m, t).value == 0.0
    assert sd.crawford(m, t).value == 0.0


def test_estimate_invariants_all_functionals(diag12):
    # unit maximizer and value-reproducing witness for every functional
    rng = np.random.default_rng(31)
    t = random_bounded_operator(rng, diag12)
    n_mat = compress(diag12, t)
    checks = {
        sd.op_seminorm: lambda c: np.linalg.norm(n_mat @ c),
        sd.min_modulus: lambda c: np.linalg.norm(n_mat @ c),
        sd.numerical_radius: lambda c: abs(np.vdot(c, n_mat @ c)),
        sd.crawford: lambda c: abs(np.vdot(c, n_mat @ c)),
        sd.dw_radius: lambda c: np.sqrt(abs(np.vdot(c, n_mat @ c)) ** 2
                                        + np.linalg.norm(n_mat @ c) ** 4),
    }
    for fn, objective in checks.items():
        est = fn(diag12, t)
        assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12), fn
        assert objective(est.maximizer) == pytest.approx(est.value, abs=1e-8), fn
        # gauge: first nonzero coordinate real nonnegative
        lead = est.maximizer[np.flatnonzero(np.abs(est.maximizer) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-10 and lead.real >= 0.0


def test_dim_one_metric():
    m = sd.build_metric(np.array([[2.0]]))
    t = np.array([[1.0 + 1.0j]])
    assert sd.op_seminorm(m, t).value == pytest.approx(np.sqrt(2.0))
    assert sd.numerical_radius(m, t).value == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert sd.crawford(m, t).value == pytest.approx(np.sqrt(2.0), abs=1e-8)
    dw = sd.dw_radius(m, t).value
    assert dw == pytest.approx(np.sqrt(2.0 + 4.0), abs=1e-9)
