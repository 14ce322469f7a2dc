"""The catalog against its pinned reports (``tests/data/catalog_fixture.json``).

``tests/make_catalog_fixture.py`` wrote the fixture: ``verify_all``, ``pair_report``
and ``semidw exact`` on 30 seeded instances of the four bench shapes. Keys,
record names, ``status``, ``satisfied`` and ``overall_pass`` must match exactly;
every number must match to ``RTOL`` relative, and each ``reference_dw`` must lie
in its stored bracket. This pins regressions; it is not evidence of correctness.
"""

import json
from pathlib import Path

import pytest

from make_catalog_fixture import FIXTURE, entry_outputs

#: relative agreement of every stored number
RTOL = 1e-13

ENTRIES = json.loads(Path(FIXTURE).read_text())["entries"]


def _numbers(obj) -> list[float]:
    if isinstance(obj, list):
        return [x for item in obj for x in _numbers(item)]
    return [abs(obj)] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _mismatches(got, want, path: str, scale: float = 0.0):
    """Paths where ``got`` differs from ``want``: exactly for keys, strings, bools and
    None, else to ``RTOL`` of the larger magnitude (of a whole list for list entries,
    of the record's value and dw for its gap)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            yield f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
            return
        for key in want:
            sub = max(_numbers([want.get("value"), want.get("dw")]), default=0.0) \
                if key == "gap" else 0.0
            yield from _mismatches(got[key], want[key], f"{path}.{key}", sub)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield f"{path}: {got!r} != {want!r}"
            return
        sub = max(_numbers(want), default=0.0)
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{path}[{i}]", max(scale, sub))
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or abs(got - want) > RTOL * max(abs(got), abs(want), scale)):
            yield f"{path}: {got!r} != {want!r}"
    elif got != want or type(got) is not type(want):
        yield f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{e['workload']}-{e['k']}" for e in ENTRIES])
def test_reports_match_the_fixture(entry):
    outputs = entry_outputs(entry)
    assert outputs.keys() == {key for key in ("verify", "pair", "exact") if key in entry}
    for key, got in outputs.items():
        bad = list(_mismatches(got, entry[key], key))
        assert not bad, bad[:5]
        if key != "exact":
            assert entry[key]["reference_dw"] <= got["reference_dw"] \
                <= entry[key]["reference_dw_upper"], key


def test_fixture_covers_the_bench_shapes():
    assert len(ENTRIES) == 30
    assert {e["workload"] for e in ENTRIES} == {"catalog-lowrank", "catalog-highrank",
                                               "pair-blocks", "cli-cold"}
    # rank-deficient metrics, and ||X||_A at each of the four B_TARGETS of the exact forms
    assert any(e["verify"]["instance"]["rank"] < e["verify"]["instance"]["dim"] for e in ENTRIES)
    norms = {round(e["verify"]["records"][0]["params"]["norm"], 6) for e in ENTRIES
             if "exact" in e}
    assert norms == {0.3, 0.707107, 0.9, 1.6}
