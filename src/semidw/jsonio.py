"""Matrix JSON parsing and report serialization.

Matrices travel as ``{"rows": n, "cols": n, "re": [[...]], "im": [[...]]}``
with ``im`` optional (zeros). Reports serialize to JSON (full precision,
sorted keys, so a fixed configuration yields byte-identical output) and to
CSV with one row per bound record: name, anchor, kind, value, dw, gap,
satisfied.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .bounds import BoundRecord, VerificationReport
from .errors import ParseError

CSV_COLUMNS = ("name", "anchor", "kind", "value", "dw", "gap", "satisfied")


def matrix_to_dict(arr: np.ndarray) -> dict:
    """Encode a complex matrix in the wire format."""
    arr = np.asarray(arr, dtype=complex)
    out = {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "re": np.real(arr).tolist(),
    }
    if np.any(arr.imag):
        out["im"] = np.imag(arr).tolist()
    return out


def _number_block(block, name: str, shape: tuple[int, int]) -> np.ndarray:
    """A ``shape`` list of rows of JSON numbers as floats; a JSON bool or string is no number."""
    if type(block) is not list or not all(
            type(row) is list and all(type(v) in (int, float) for v in row) for row in block):
        raise ParseError(f"{name} block is not a list of rows of JSON numbers")
    try:
        arr = np.asarray(block, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows, an integer beyond float range
        raise ParseError(f"malformed {name} block: {exc}") from exc
    if arr.shape != shape:
        raise ParseError(f"{name} block has shape {arr.shape}, expected {shape}")
    return arr


def matrix_from_dict(data: dict) -> np.ndarray:
    """Decode the wire format into a complex matrix; raises :class:`ParseError`."""
    if not isinstance(data, dict):
        raise ParseError(f"expected a matrix object, got {type(data).__name__}")
    rows, cols = data.get("rows"), data.get("cols")
    if type(rows) is not int or type(cols) is not int:
        raise ParseError(f"rows and cols must be JSON integers, got {rows!r} and {cols!r}")
    re_part = _number_block(data.get("re"), "re", (rows, cols))
    im = data.get("im")
    im_part = np.zeros((rows, cols)) if im is None else _number_block(im, "im", (rows, cols))
    arr = re_part + 1j * im_part
    if not np.all(np.isfinite(arr.view(float))):
        raise ParseError("matrix has non-finite entries")
    return arr


def load_matrix(source) -> np.ndarray:
    """Load a matrix from a path or an already-decoded dict."""
    if isinstance(source, dict):
        return matrix_from_dict(source)
    try:
        data = json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return matrix_from_dict(data)


def record_to_dict(rec: BoundRecord) -> dict:
    return {
        "name": rec.name,
        "anchor": rec.anchor,
        "kind": rec.kind,
        "value": _json_float(rec.value),
        "dw": _json_float(rec.reference_dw),
        "gap": _json_float(rec.gap),
        "satisfied": rec.satisfied,
        "status": rec.status,
        "params": _jsonable(rec.params),
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "instance": report.instance,
        "dw_multistart": _json_float(report.dw_multistart),
        "dw_oracle": _json_float(report.dw_oracle),
        "reference_dw": _json_float(report.reference_dw),
        "reference_dw_upper": _json_float(report.reference_dw_upper),
        "tol": report.tol,
        "seed": report.seed,
        "overall_pass": report.overall_pass,
        "records": [record_to_dict(r) for r in report.records],
    }


def report_csv(report: VerificationReport) -> str:
    """CSV rendering: one row per record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in report.records:
        writer.writerow([
            rec.name,
            rec.anchor,
            rec.kind,
            _csv_float(rec.value),
            _csv_float(rec.reference_dw),
            _csv_float(rec.gap),
            "" if rec.satisfied is None else str(bool(rec.satisfied)).lower(),
        ])
    return buf.getvalue()


def dump_json(obj, path=None) -> str:
    """Deterministic JSON dump (sorted keys); optionally written to a file."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    return None if not np.isfinite(x) else x


def _csv_float(x) -> str:
    x = float(x)
    return "" if not np.isfinite(x) else repr(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _json_float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj
