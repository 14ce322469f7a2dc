import json
from pathlib import Path

import numpy as np
import pytest

import semidw as sd
from semidw import jsonio
from semidw.cli import main
from semidw.sampling import random_bounded_operator, random_metric

from conftest import X_MAT


@pytest.fixture
def matrix_files(tmp_path):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.diag([1.0, 2.0]))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(X_MAT)))
    return str(a_path), str(t_path)


# ---------------------------------------------------------------------------
# matrix JSON


def test_matrix_round_trip():
    arr = np.array([[1.0, 2.0 - 1.0j], [0.0, 3.0j]])
    back = jsonio.matrix_from_dict(jsonio.matrix_to_dict(arr))
    np.testing.assert_allclose(back, arr)


def test_matrix_im_optional():
    arr = jsonio.matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 0], [0, 2]]})
    assert arr.dtype == complex
    np.testing.assert_allclose(arr.imag, 0.0)


def test_matrix_parse_errors(tmp_path):
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 0]]})
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]],
                                 "im": [[0, 0]]})
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2 2}')
    with pytest.raises(sd.ParseError):
        jsonio.load_matrix(bad)


def test_report_csv_columns(diag12):
    report = sd.verify_all(diag12, X_MAT, seed=1)
    csv_text = jsonio.report_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,anchor,kind,value,dw,gap,satisfied"
    assert len(lines) == 1 + len(report.records)
    assert all(line.count(",") == 6 for line in lines)


# ---------------------------------------------------------------------------
# commands


def test_compute_text(matrix_files, capsys):
    a_path, t_path = matrix_files
    code = main(["compute", "--metric", a_path, "--operator", t_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.707107" in out
    assert "0.353553" in out
    assert "0.5" in out


def test_compute_json_deterministic(matrix_files, capsys):
    a_path, t_path = matrix_files
    main(["compute", "--metric", a_path, "--operator", t_path, "--format", "json",
          "--seed", "7"])
    first = capsys.readouterr().out
    main(["compute", "--metric", a_path, "--operator", t_path, "--format", "json",
          "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["dw_radius"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert payload["dw_radius"]["method"] == "dw_shell"


def test_compute_runs_each_core_once(tmp_path, capsys, monkeypatch):
    # one compression and one memo serve the five estimates; each equals its public function's
    from semidw import radii

    rng = np.random.default_rng(5)
    m = random_metric(rng, 4, 3)
    t = random_bounded_operator(rng, m)
    paths = [str(tmp_path / name) for name in ("a.json", "t.json")]
    for path, arr in zip(paths, (m.a, t)):
        Path(path).write_text(json.dumps(jsonio.matrix_to_dict(arr)))
    want = {"seminorm": sd.op_seminorm(m, t), "min_modulus": sd.min_modulus(m, t),
            "numerical_radius": sd.numerical_radius(m, t), "crawford": sd.crawford(m, t),
            "dw_radius": sd.dw_radius(m, t)}
    calls = []
    for name in ("compress", "_w_core", "_seminorm_core"):
        def counted(*args, _name=name, _fn=getattr(radii, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(radii, name, counted)
    assert main(["compute", "--metric", paths[0], "--operator", paths[1], "--format", "json"]) == 0
    assert sorted(calls) == ["_seminorm_core", "_w_core", "compress"]
    got = json.loads(capsys.readouterr().out)
    assert sorted(got) == sorted(want)
    for name, est in want.items():
        assert jsonio.dump_json(got[name]) == jsonio.dump_json(est.to_dict())


def test_compute_parse_error_exit_2(matrix_files, tmp_path, capsys):
    _, t_path = matrix_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--metric", str(bad), "--operator", t_path]) == 2
    assert main(["compute", "--metric", str(tmp_path / "missing.json"),
                 "--operator", t_path]) == 2


def test_compute_metric_path_starting_with_brace(matrix_files, tmp_path, capsys,
                                                 monkeypatch):
    # a path that began with "{" was parsed as inline JSON: "invalid JSON", exit 2
    a_path, t_path = matrix_files
    monkeypatch.chdir(tmp_path)
    Path("{A}.json").write_text(Path(a_path).read_text())
    assert main(["compute", "--metric", "a.json", "--operator", t_path, "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert main(["compute", "--metric", "{A}.json", "--operator", t_path,
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == plain


def test_compute_precondition_exit_3(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.diag([1.0, 0.0]))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(X_MAT)))
    code = main(["compute", "--metric", str(a_path), "--operator", str(t_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "residual" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_verify_nonfinite_residual_exit_3(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.diag([1.0, 0.0]))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(np.array([[0.0, 1e160], [0.0, 0.0]]))))
    code = main(["verify", "--metric", str(a_path), "--operator", str(t_path),
                 "--samples", "256"])
    assert code == 3
    assert "not A-bounded" in capsys.readouterr().err


def test_verify_norm_out_of_range_exit_3(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.eye(2))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(np.array([[0.0, 1e100], [0.0, 0.0]]))))
    code = main(["verify", "--metric", str(a_path), "--operator", str(t_path),
                 "--samples", "256"])
    assert code == 3
    assert "||T||_A = 1e+100" in capsys.readouterr().err


def _large_norm_files(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.eye(4))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(t * (1e35 / np.linalg.norm(t, 2)))))
    return ["--metric", str(a_path), "--operator", str(t_path), "--seed", "42",
            "--samples", "8192"]


def test_verify_large_norm_reference_finite(tmp_path, capsys):
    # the oracle overflowed to inf here, and the report passed vacuously
    code = main(["verify", *_large_norm_files(tmp_path)])
    out = capsys.readouterr().out
    assert "reference dw = inf" not in out
    assert code == 0
    assert "overall: pass" in out


def test_verify_nonfinite_reference_exit_1(tmp_path, capsys, monkeypatch):
    from semidw import radii

    monkeypatch.setattr(radii, "_dw_core", lambda *args: (np.inf, None, 0, 0.0))
    code = main(["verify", *_large_norm_files(tmp_path)])
    assert code == 1
    assert "dw bracket is [inf, inf]" in capsys.readouterr().err


def test_compute_out_directory_exit_2(matrix_files, tmp_path, capsys):
    a_path, t_path = matrix_files
    code = main(["compute", "--metric", a_path, "--operator", t_path, "--out", str(tmp_path)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_bounds_metric_directory_exit_2(matrix_files, tmp_path, capsys):
    _, t_path = matrix_files
    code = main(["bounds", "--metric", str(tmp_path), "--operator", t_path])
    assert code == 2
    assert "parse error" in capsys.readouterr().err

@pytest.mark.parametrize("b", [1e40, pytest.param(1e160, marks=pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning"))])
def test_exact_out_of_range_b_exit_3(tmp_path, capsys, b):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    a_path.write_text(json.dumps(jsonio.matrix_to_dict(np.eye(2))))
    t_path.write_text(json.dumps(jsonio.matrix_to_dict(np.array([[0.0, b], [0.0, 0.0]]))))
    code = main(["exact", "--metric", str(a_path), "--operator", str(t_path),
                 "--samples", "256"])
    err = capsys.readouterr().err
    assert code == 3
    assert "b = ||X||_A" in err


def test_bounds_and_verify(matrix_files, capsys):
    a_path, t_path = matrix_files
    code = main(["bounds", "--metric", a_path, "--operator", t_path,
                 "--samples", "1024", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "name,anchor,kind,value,dw,gap,satisfied"
    code = main(["verify", "--metric", a_path, "--operator", t_path,
                 "--samples", "1024"])
    assert code == 0


def test_pair_bounds_via_operator2(matrix_files, tmp_path, capsys):
    a_path, t_path = matrix_files
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(jsonio.matrix_to_dict(
        np.array([[1.0, 0.0], [0.0, 0.0]]))))
    code = main(["verify", "--metric", a_path, "--operator", t_path,
                 "--operator2", str(y_path), "--samples", "8192",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    values = {rec["anchor"]: rec["value"] for rec in payload["records"]}
    assert values["sum-split-upper"] == pytest.approx(2.621320, abs=5e-4)
    assert values["feki-sum-upper"] == pytest.approx(4.2994, abs=5e-4)
    assert values["product-sum-balanced-upper"] == pytest.approx(3.240466, abs=5e-4)
    assert values["product-sum-aligned-upper"] == pytest.approx(3.26928, abs=5e-4)
    assert payload["overall_pass"] is True
    assert payload["reference_dw"] == pytest.approx(1.8249907414, abs=1e-6)


def test_exact_command(matrix_files, capsys):
    a_path, t_path = matrix_files
    code = main(["exact", "--metric", a_path, "--operator", t_path,
                 "--samples", "2048", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_block"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert payload["identity_block"]["value"] == pytest.approx(
        payload["oracle_identity_block"]["value"], abs=1e-4)
    # compressed block rank 2r = 8: the oracle's rank guard left this unchecked
    rng = np.random.default_rng(8)
    m = random_metric(rng, 5, 4)
    Path(a_path).write_text(json.dumps(jsonio.matrix_to_dict(m.a)))
    Path(t_path).write_text(json.dumps(jsonio.matrix_to_dict(random_bounded_operator(rng, m))))
    code = main(["exact", "--metric", a_path, "--operator", t_path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [rec["anchor"] for rec in payload["records"]] == ["identity-block-exact",
                                                            "zero-block-exact"]
    assert all(rec["satisfied"] for rec in payload["records"])


def test_exact_assembles_no_block(matrix_files, capsys, monkeypatch):
    # the closed forms are judged on the compressed blocks [[I_r or 0, N_X], [0, 0]]
    from semidw import cli, radii, semiop

    def assembled(*args, **kwargs):
        raise AssertionError("exact assembled a block on the doubled space")

    for module, name in ((semiop, "block2"), (semiop, "double_metric"), (cli, "block2"),
                         (radii, "dw_radius")):
        monkeypatch.setattr(module, name, assembled)
    a_path, t_path = matrix_files
    code = main(["exact", "--metric", a_path, "--operator", t_path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [rec["satisfied"] for rec in payload["records"]] == [True, True]
    assert payload["oracle_zero_block"]["value"] == pytest.approx(0.5, abs=1e-12)


def test_exact_compresses_once(matrix_files, capsys, monkeypatch):
    # one compression of X and one SVD of N_X serve both closed forms and the
    # ||X||_A line (before: 4 compressions, 3 SVDs of N_X)
    from semidw import bounds, cli, exact, metric, radii

    a_path, t_path = matrix_files
    compress, seminorm_core = metric.compress, radii._seminorm_core
    n_x = compress(sd.build_metric(np.diag([1.0, 2.0])), X_MAT)
    compressions, svds_of_n_x = [], []

    def counted_compress(m, t):
        compressions.append(t)
        return compress(m, t)

    def counted_seminorm(n_mat, memo):
        svds_of_n_x.append(np.array_equal(n_mat, n_x))
        return seminorm_core(n_mat, memo)

    for module in (metric, radii, exact, bounds, cli):
        for name, counted in (("compress", counted_compress),
                              ("_seminorm_core", counted_seminorm)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert main(["exact", "--metric", a_path, "--operator", t_path]) == 0
    assert "||X||_A = 0.707107" in capsys.readouterr().out
    assert len(compressions) == 1
    assert sum(svds_of_n_x) == 1


def test_remark_repro(capsys):
    code = main(["remark-repro", "--samples", "20000", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["ordering_ok"] is True
    values = {row["anchor"]: row["value"] for row in payload["bounds"]}
    assert values["feki-sum-upper"] == pytest.approx(4.2994, abs=5e-4)
    assert values["sum-split-upper"] == pytest.approx(2.621320, abs=5e-4)
    assert values["product-sum-balanced-upper"] == pytest.approx(3.240466, abs=5e-4)
    assert values["product-sum-aligned-upper"] == pytest.approx(3.26928, abs=5e-4)
    assert payload["dw"] <= 2.621320 + 5e-4


def test_remark_repro_deterministic(capsys):
    main(["remark-repro", "--samples", "4096", "--format", "json", "--seed", "5"])
    first = capsys.readouterr().out
    main(["remark-repro", "--samples", "4096", "--format", "json", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("samples", ["0", "-3", "many"])
def test_samples_must_be_positive(samples, capsys):
    # a usage error (exit 2), not an IndexError traceback from the oracle
    with pytest.raises(SystemExit) as exc:
        main(["remark-repro", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_suite_small(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["suite", "--verify-count", "3", "--exact-count", "2",
                 "--invariance-count", "2", "--samples", "1024",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"]["bounds"]["pass"] == 3
    assert payload["suites"]["exact"]["pass"] == 2
    assert payload["suites"]["invariance"]["pass"] == 2


def test_suite_out_dir(tmp_path):
    code = main(["suite", "--verify-count", "1", "--exact-count", "1",
                 "--invariance-count", "1", "--samples", "1024",
                 "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "semidw-suite.json").read_text())
    assert payload["suites"]["bounds"] == {"pass": 1, "total": 1}


def test_out_file(matrix_files, tmp_path):
    a_path, t_path = matrix_files
    out_path = tmp_path / "report.json"
    code = main(["compute", "--metric", a_path, "--operator", t_path,
                 "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["seminorm"]["value"] == pytest.approx(2 ** -0.5, abs=1e-12)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "abc"])
def test_tol_must_be_finite_nonnegative(matrix_files, tol, capsys):
    # --tol inf passed vacuously; nan and -1 failed every record (exit 4)
    a_path, t_path = matrix_files
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--metric", a_path, "--operator", t_path, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["suite"], ["remark-repro"], ["compute", "--metric", "a",
                                                                   "--operator", "t"]])
def test_tol_only_where_read(command, capsys):
    # compute, remark-repro and suite parsed --tol and never read it
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", "0"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "exact"])
def test_operator2_only_where_read(matrix_files, command, capsys):
    # compute and exact parsed --operator2 and never opened the file
    a_path, t_path = matrix_files
    with pytest.raises(SystemExit) as exc:
        main([command, "--metric", a_path, "--operator", t_path, "--operator2", t_path])
    assert exc.value.code == 2
    assert "--operator2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--verify-count", "--exact-count", "--invariance-count"])
def test_suite_counts_must_be_nonnegative(flag, capsys):
    # --verify-count -2 printed "0/-2 instances pass" and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["suite", flag, "-2"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_suite_replay_ignores_bounds_samples(tmp_path, capsys):
    # the bounds replay reads no sample count, so a zero one is not an error
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"suite": "bounds", "entropy": [42, 1, 0], "dim": 2,
                                  "rank": 2, "samples": 0}))
    code = main(["suite", "--replay", str(replay), "--format", "json"])
    assert code in (0, 4)
    assert json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize("text", ["{not json", json.dumps({"suite": "bounds"})])
def test_suite_replay_malformed_file_exit_2(tmp_path, capsys, text):
    # a traceback with exit 1 before: JSONDecodeError, and KeyError: 'entropy'
    replay = tmp_path / "replay.json"
    replay.write_text(text)
    assert main(["suite", "--replay", str(replay)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and str(replay) in err


_REPLAY_FILES = {
    "bounds": {"suite": "bounds", "entropy": [42, 1, 0], "dim": 2, "rank": 2},
    "exact": {"suite": "exact", "entropy": [42, 2, 0], "dim": 2, "target_b": 0.3},
}


@pytest.mark.parametrize("suite, field, value", [
    ("bounds", "entropy", "x"), ("bounds", "entropy", [42, -1, 0]),
    ("bounds", "dim", "two"), ("bounds", "dim", 0),
    ("bounds", "rank", -1), ("bounds", "rank", True),
    ("exact", "target_b", "x"), ("exact", "target_b", float("nan")),
])
def test_suite_replay_bad_field_exit_2(tmp_path, capsys, suite, field, value):
    # before: a traceback with exit 1 (TypeError or ValueError from SeedSequence or
    # the samplers), exit 3 for dim 0 and a nan target_b, a run for rank true
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({**_REPLAY_FILES[suite], field: value}))
    assert main(["suite", "--replay", str(replay)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and repr(field) in err


def test_verify_text_shows_dw_bracket(matrix_files, capsys):
    a_path, t_path = matrix_files
    assert main(["verify", "--metric", a_path, "--operator", t_path]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("reference dw"))
    assert line.startswith("reference dw = 0.5 (bracket [0.5, ")
