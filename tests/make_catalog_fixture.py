"""Write ``tests/data/catalog_fixture.json``, the pinned reports of the catalog.

Run from the repository root::

    PYTHONPATH=src python tests/make_catalog_fixture.py [--check]

Instances are drawn by ``bench/workloads.make_instance`` (seed 1) from all four
bench shapes: ``catalog-lowrank`` (dims 2-6, every third metric rank-deficient),
``catalog-highrank`` (ranks 8-16 of singular metrics), ``pair-blocks`` (||X||_A at
each of ``B_TARGETS``) and ``cli-cold``. Each entry stores its inputs, so the
fixture does not depend on the bench code that drew them, and the JSON of
``verify_all`` on ``(A, X)``, of ``pair_report`` on ``(A, X, Y)`` where a ``Y`` is
drawn, and of ``semidw exact`` on the ``pair-blocks`` instances.
``tests/test_fixture.py`` checks the package against it. A change that moves a
value regenerates the file with this script and states the largest move: before it
writes, the script prints, against the fixture on disk, the largest relative move of
each JSON key and every report whose dw bracket no longer meets its stored one. Both
brackets are certified, so such a miss is a bug: the script then exits 1 and writes
nothing. With ``--check`` it writes nothing at all: it prints the same moves and exits
1 unless the fixture it would write is byte for byte the one on disk.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "catalog_fixture.json"
SEED = 1
#: (workload, instance indices): 30 instances over the four bench shapes
DRAWS = (("catalog-lowrank", range(10)), ("catalog-highrank", range(4)),
         ("pair-blocks", range(12)), ("cli-cold", range(4)))


def exact_payload(m_json: dict, x_json: dict) -> dict:
    """The JSON that ``semidw exact`` writes for the metric and operator in wire format."""
    from semidw import cli, jsonio

    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in ("A", "X", "out")}
        jsonio.dump_json(m_json, paths["A"])
        jsonio.dump_json(x_json, paths["X"])
        cli.main(["exact", "--metric", str(paths["A"]), "--operator", str(paths["X"]),
                  "--format", "json", "--out", str(paths["out"])])
        return json.loads(paths["out"].read_text())


def entry_outputs(entry: dict) -> dict:
    """The reports of one fixture entry, computed from its stored inputs."""
    import semidw as sd
    from semidw import bounds, jsonio

    m = sd.build_metric(jsonio.load_matrix(entry["A"]))
    x = jsonio.load_matrix(entry["X"])
    out = {"verify": jsonio.report_to_dict(bounds.verify_all(m, x, seed=entry["seed"]))}
    if "Y" in entry:
        y = jsonio.load_matrix(entry["Y"])
        out["pair"] = jsonio.report_to_dict(bounds.pair_report(m, x, y, seed=entry["seed"]))
    if entry["workload"] == "pair-blocks":
        out["exact"] = exact_payload(entry["A"], entry["X"])
    return out


def _moves(old, new, key: str, out: dict, scale: float = 0.0) -> None:
    """Fold into ``out`` the largest relative move of each key's numbers, scaled as
    ``tests/test_fixture.py`` compares them: a list's numbers count under its key,
    relative to its largest entry, and a gap relative to its record's value and dw."""
    if isinstance(old, dict):
        floor = max((abs(old[k]) for k in ("value", "dw") if isinstance(old.get(k), float)),
                    default=0.0)
        for sub in old.keys() & new.keys():
            _moves(old[sub], new[sub], sub, out, floor if sub == "gap" else 0.0)
    elif isinstance(old, list):
        floor = max((abs(x) for x in old if isinstance(x, float)), default=0.0)
        for o, n in zip(old, new):
            _moves(o, n, key, out, max(scale, floor))
    elif isinstance(old, (int, float)) and not isinstance(old, bool) and old != new:
        move = abs(new - old) / max(abs(old), abs(new), scale)
        out[key] = max(out.get(key, 0.0), move)


def _brackets(entry: dict) -> dict:
    """The dw brackets of one entry's reports, by report."""
    out = {key: (entry[key]["reference_dw"], entry[key]["reference_dw_upper"])
           for key in ("verify", "pair") if key in entry}
    for label in ("identity", "zero"):
        bracket = entry.get("exact", {}).get(f"oracle_{label}_block")
        if bracket:
            out[f"exact.{label}"] = (bracket["value"], bracket["value"] + bracket["residual"])
    return out


def report_moves(entries: list) -> int:
    """Print the moves of ``entries`` against the fixture on disk, if there is one, and
    return the number of dw brackets that do not meet their stored ones."""
    if not FIXTURE.exists():
        return 0
    stored = {(e["workload"], e["k"]): e for e in json.loads(FIXTURE.read_text())["entries"]}
    moves: dict = {}
    apart = []
    for entry in entries:
        old = stored.get((entry["workload"], entry["k"]))
        if old is None:
            continue
        _moves(old, entry, "", moves)
        new_brackets = _brackets(entry)
        for key, (lo, hi) in _brackets(old).items():
            new_lo, new_hi = new_brackets.get(key, (lo, hi))
            if new_lo > hi or new_hi < lo:
                apart.append(f"{entry['workload']}-{entry['k']} {key}: [{new_lo!r}, {new_hi!r}]"
                             f" does not meet [{lo!r}, {hi!r}]")
    print("largest relative move per key against the stored fixture:")
    for key, move in sorted(moves.items(), key=lambda item: -item[1]):
        print(f"  {key:24s} {move:.3g}")
    print(f"{len(apart)} dw brackets do not meet their stored brackets")
    for line in apart:
        print(f"  {line}")
    return len(apart)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 unless the fixture is unchanged")
    check = parser.parse_args(argv).check
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    from semidw import jsonio

    entries = []
    for workload, ks in DRAWS:
        for k in ks:
            inst = workloads.make_instance(workload, SEED, k)
            entry = {"workload": workload, "k": k, "seed": inst.seed,
                     "A": jsonio.matrix_to_dict(inst.a), "X": jsonio.matrix_to_dict(inst.x)}
            if inst.y is not None:
                entry["Y"] = jsonio.matrix_to_dict(inst.y)
            entry.update(entry_outputs(entry))
            entries.append(entry)
    apart = report_moves(entries)
    # one entry per line: a moved value shows as its entry's line in a diff
    lines = ",\n".join(json.dumps(e, sort_keys=True, allow_nan=False) for e in entries)
    text = f'{{"seed": {SEED}, "entries": [\n{lines}\n]}}\n'
    if check:
        same = FIXTURE.exists() and FIXTURE.read_text() == text
        print(f"{FIXTURE} is {'byte for byte' if same else 'not'} the fixture the package "
              "writes now")
        return 0 if same and not apart else 1
    if apart:
        print(f"not written: certified brackets cannot miss each other; {FIXTURE} is unchanged",
              file=sys.stderr)
        return 1
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text)
    ranks = sorted({e["verify"]["instance"]["rank"] for e in entries})
    print(f"wrote {len(entries)} entries (ranks {ranks}) to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
