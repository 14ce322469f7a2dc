import json

import numpy as np
import pytest

import semidw as sd
from semidw import jsonio
from semidw.cli import main

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


def test_matrix_parse_errors():
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 0]]})
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(sd.ParseError):
        jsonio.matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]],
                                 "im": [[0, 0]]})
    with pytest.raises(sd.ParseError):
        jsonio.load_matrix('{"rows": 2 2}')


def test_report_csv_columns(diag12):
    report = sd.verify_all(diag12, X_MAT, seed=1, oracle_samples=1024)
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
    assert payload["dw_radius"]["method"] == "multistart"


def test_compute_parse_error_exit_2(matrix_files, tmp_path, capsys):
    _, t_path = matrix_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--metric", str(bad), "--operator", t_path]) == 2
    assert main(["compute", "--metric", str(tmp_path / "missing.json"),
                 "--operator", t_path]) == 2


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
    from semidw import bounds

    monkeypatch.setattr(bounds, "_oracle_core", lambda *args: (np.inf, None, 0, 0.0))
    code = main(["verify", *_large_norm_files(tmp_path)])
    assert code == 1
    assert "oracle dw is inf" in capsys.readouterr().err


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
