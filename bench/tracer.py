"""Span tracer for the traced benchmark run, installed from outside semidw.

``bounds``, ``exact``, ``semiop`` and ``cli`` import their callees by name
(``from .radii import crawford``), so patching ``semidw.radii.crawford``
alone would miss every call made from ``bounds``. Entering a
:class:`Tracer` therefore replaces each traced function in every loaded
``semidw`` module namespace that holds it; leaving it puts the originals
back.

A span is ``[name, start, end, parent, instance, key, iterations]``:
``parent`` indexes the enclosing span (-1 at top level), ``key`` hashes the
operator argument (for the useful ratios) and ``iterations`` is
``RadiusEstimate.iterations`` where the span returns one. Spans stay in
memory and are written out once, at the end of the run.

``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` are wrapped as counters,
not spans: Hermitian matrices solved (batches expanded), their computed
flops, and SVD calls, per instance.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: traced functions per semidw module; every one has declared per-layer metrics
TRACED = {
    "metric": ("compress", "build_metric"),
    "semiop": ("sharp", "abs_sq", "block2"),
    "radii": ("op_seminorm", "min_modulus", "numerical_radius", "numrange_distance",
              "crawford", "dw_radius", "oracle_extremum"),
    "bounds": ("sandwich", "lower_crawford", "upper_theta_sweep", "cartesian_half",
               "upper_buzano", "upper_triple", "upper_lambda_theta", "upper_lambda_complex",
               "sum_upper", "feki_sum_upper", "offdiag_upper", "product_sum_upper_b",
               "product_sum_upper_c", "verify_all", "pair_report"),
    "exact": ("dw_exact_ix", "dw_exact_0x"),
    "jsonio": ("load_matrix", "report_to_dict", "dump_json"),
}
#: modules whose traced functions also report ``.calls``; the rest report self_s only
CALL_COUNTED = ("metric", "semiop", "radii")
#: spans whose RadiusEstimate.iterations is summed, with the metric suffix
ITERATION_SPANS = {"radii.crawford": "iterations", "radii.dw_radius": "iterations",
                   "radii.oracle_extremum": "evals"}
KEYED_SPANS = {"metric.compress"} | {f"radii.{f}" for f in TRACED["radii"]}
#: real flops per n x n Hermitian matrix (Golub & Van Loan, symmetric QR:
#: 4n^3/3 for eigenvalues only, 9n^3 with eigenvectors); complex input x4
EIG_FLOPS = {"eigvalsh": lambda n: 4.0 * n ** 3 / 3.0, "eigh": lambda n: 9.0 * n ** 3}
LINALG_WRAPPED = ("eigh", "eigvalsh", "svd")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=12)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _operator_key(name: str, args: tuple, kwargs: dict) -> str:
    """Hash of the operator a compress / radii call works on."""
    if name == "radii.numrange_distance":
        return _digest(args[0] if args else kwargs["n_mat"])
    m = args[0] if args else kwargs["m"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    key = _digest(m.a, np.asarray(t))
    if name == "radii.oracle_extremum":
        key += ":" + (args[2] if len(args) > 2 else kwargs["objective"])
    return key


class Tracer:
    """Records spans and linalg counts while installed.

    Set :attr:`instance` before each operation; spans and counts carry it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple] | None = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        keyed = name in KEYED_SPANS
        counted = name in ITERATION_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = _operator_key(name, args, kwargs) if keyed else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.instance, key, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counted:
                span[6] = int(out.iterations)
            return out

        return traced

    def _linalg(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            inst = tracer.instance
            if name == "svd":
                counts[inst, "linalg.svd_calls"] += 1
            else:
                arr = np.asarray(a)
                n = arr.shape[-1]
                batch = int(np.prod(arr.shape[:-2], dtype=np.int64))
                flops = EIG_FLOPS[name](n) * (4.0 if np.iscomplexobj(arr) else 1.0)
                counts[inst, "linalg.eig_matrices"] += batch
                counts[inst, "linalg.eig_flops_computed"] += batch * flops
            return fn(a, *args, **kwargs)

        return counted

    def _build_patches(self) -> list[tuple]:
        patches = []
        consumers = [mod for name, mod in sys.modules.items()
                     if name == "semidw" or name.startswith("semidw.")]
        for modname, funcs in TRACED.items():
            home = sys.modules.get(f"semidw.{modname}")
            if home is None:  # e.g. jsonio, which only the CLI loads
                continue
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._span(f"{modname}.{fname}", orig)
                for mod in consumers:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, attr, orig, wrapped))
        for fname in LINALG_WRAPPED:
            orig = getattr(np.linalg, fname)
            patches.append((np.linalg, fname, orig, self._linalg(fname, orig)))
        return patches

    # -- install / uninstall ---------------------------------------------

    def __enter__(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)
        return False

    def dump(self) -> dict:
        """Spans and counts in a JSON-ready form (counts keyed by instance)."""
        counts = defaultdict(dict)
        for (inst, name), val in self.counts.items():
            counts[str(inst)][name] = val
        return {"spans": self.spans, "counts": counts}


def merge(dumps: list[dict]) -> dict:
    """Merge dumps from several processes, re-basing parent indices."""
    spans: list[list] = []
    counts: dict = defaultdict(dict)
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            s = list(s)
            if s[3] >= 0:
                s[3] += base
            spans.append(s)
        for inst, vals in d["counts"].items():
            for name, val in vals.items():
                counts[inst][name] = counts[inst].get(name, 0) + val
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, window: int, ops: int) -> tuple[dict[str, float], float]:
    """Per-layer metrics from a trace, and the seconds per operation in spans.

    Counts (``*.calls``, iterations, evals, ``linalg.*``, useful ratios)
    cover the instances ``< window``, which every run completes, so they
    repeat exactly for a seed. ``*.self_s`` is self seconds per operation
    over all ``ops`` traced operations: span duration minus child spans.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    iters: Counter = Counter()
    distinct: dict[str, set] = defaultdict(set)
    covered = 0.0
    for s, inner in zip(spans, child):
        name, start, end, parent, inst, key, its = s
        self_s[name] += (end - start) - inner
        if parent < 0:
            covered += end - start
        if inst >= window:
            continue
        calls[name] += 1
        if its is not None:
            iters[name] += its
        if key is not None:
            group = "metric.compress" if name == "metric.compress" else "radii"
            distinct[group].add((inst, name, key))
    out: dict[str, float] = {}
    for modname, funcs in TRACED.items():
        for fname in funcs:
            name = f"{modname}.{fname}"
            if modname in CALL_COUNTED:
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name] / ops
    for name, suffix in ITERATION_SPANS.items():
        out[f"{name}.{suffix}"] = iters[name]
    compress_calls = calls["metric.compress"]
    radii_calls = sum(calls[f"radii.{f}"] for f in TRACED["radii"])
    out["metric.compress.useful_ratio"] = (
        len(distinct["metric.compress"]) / compress_calls if compress_calls else 0.0)
    out["radii.useful_ratio"] = len(distinct["radii"]) / radii_calls if radii_calls else 0.0
    for name in ("linalg.eig_matrices", "linalg.svd_calls", "linalg.eig_flops_computed"):
        out[name] = sum(vals.get(name, 0) for inst, vals in trace["counts"].items()
                        if 0 <= int(inst) < window)
    return out, covered / ops
