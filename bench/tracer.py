"""Span tracing of the library's layers from outside.

A traced run replaces, in every `quiverbundles` module, each attribute
bound to one of the LAYERS functions with a wrapper that records a span:
name, start, end, parent span and operation id.  Because each caller looks
the function up through its own module's attribute at call time, this
catches calls made inside the library too (`complexes` calling
`sparse_rank`, `bundles` calling `poly_det`, `cli` calling
`parse_document`) without changing any file under `src/`.

Spans are kept in memory in flat arrays and written out when the run
ends.  A layer's self time is its span's duration minus the time covered
by its child spans, so the self times of all spans of one operation add up
to that operation's root span.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module that defines the function, function name): every layer
# a per-layer metric names, and every library call `cli.main` makes on the
# `cli` workload, so that `cli.main.self_s` holds argparse, dispatch and output
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("complexes.build_complex", "complexes", "build_complex"),
    ("complexes.hypercoh_dims", "complexes", "hypercoh_dims"),
    ("complexes.euler_char_rr", "complexes", "euler_char_rr"),
    ("linalg.sparse_rank", "linalg", "sparse_rank"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.row_space_basis", "linalg", "row_space_basis"),
    ("bundles.residual_is_zero", "bundles", "residual_is_zero"),
    ("bundles.generation_columns", "bundles", "generation_columns"),
    ("bundles.base_locus", "bundles", "base_locus"),
    ("bundles.is_stable_quasimap", "bundles", "is_stable_quasimap"),
    ("bundles.validate", "bundles", "validate"),
    ("stability.generated_subsheaf_summary", "bundles", "generated_subsheaf_summary"),
    ("polynomials.poly_det", "polynomials", "poly_det"),
    ("polynomials.poly_gcd", "polynomials", "poly_gcd"),
    ("polynomials.generic_rank", "polynomials", "generic_rank"),
    ("polynomials.format_factored", "polynomials", "format_factored"),
    ("representations.is_stable_framed", "representations", "is_stable_framed"),
    ("stability.subobject_family", "stability", "subobject_family"),
    ("stability.check_delta_stability", "stability", "check_delta_stability"),
    ("stability.asymptotic_equivalence_check", "stability", "asymptotic_equivalence_check"),
    ("stability.hn_quotient_bound_check", "stability", "hn_quotient_bound_check"),
    ("stability.instance_threshold", "stability", "instance_threshold"),
    ("stability.delta_threshold", "stability", "delta_threshold"),
    ("stability.slopes", "stability", "slopes"),
    ("generators.stable_bundles", "generators", "stable_bundles"),
    ("generators.gen_bundle", "generators", "gen_bundle"),
    ("serialization.parse_document", "serialization", "parse_document"),
    ("serialization.schema_errors", "serialization", "schema_errors"),
    ("serialization.bundle_to_doc", "serialization", "bundle_to_doc"),
    ("serialization.dumps", "serialization", "dumps"),
    ("cli.main", "cli", "main"),
)

OP = "op"
SETUP_OP = -1


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self._name_ids: dict[str, int] = {OP: 0}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        # sparse_rank arguments and results: span index -> (rows, nnz, rank)
        self.sparse: dict[int, tuple[int, int, int]] = {}
        self._stack: list[int] = []
        self._current_op = SETUP_OP
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.end[idx] = perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def operation(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of operation op_id."""
        self._current_op = op_id
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0)
            self._current_op = SETUP_OP

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates, so the span covers
            # the iteration (the benchmark consumes these with list())
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                t0 = perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(idx, t0)
        elif name == "linalg.sparse_rank":
            def wrapper(rows):
                idx = tracer._open(name_id)
                t0 = perf_counter()
                try:
                    rows = list(rows)
                    result = fn(rows)
                    tracer.sparse[idx] = (
                        sum(1 for r in rows if r), sum(len(r) for r in rows), result
                    )
                    return result
                finally:
                    tracer._close(idx, t0)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "quiverbundles" or n.startswith("quiverbundles."))
        ]
        for name, module, func in LAYERS:
            fn = getattr(sys.modules[f"quiverbundles.{module}"], func)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self, op_ids: set[int] | None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost span of a
        name only, so recursion is not counted twice), self seconds and
        the slowest single call, over spans of the given operations
        (None: the set-up spans)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            op = self.op[i]
            if (op != SETUP_OP) if op_ids is None else (op not in op_ids):
                continue
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            agg["max_s"] = max(agg["max_s"], dur)
            p = self.parent[i]
            nested = False
            while p >= 0:
                if self.name[p] == self.name[i]:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                agg["s"] += dur
        return out

    def children_of(self, parent_name: str, op_ids: set[int]) -> dict[str, float]:
        """Seconds spent in direct children of spans named parent_name,
        per child name."""
        pid = self._name_ids.get(parent_name)
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.name[p] == pid and self.op[i] in op_ids:
                name = self.names[self.name[i]]
                out[name] = out.get(name, 0.0) + self.end[i] - self.start[i]
        return out

    def count_children(self, child_name: str, parent_name: str, op_ids: set[int]) -> int:
        cid, pid = self._name_ids.get(child_name), self._name_ids.get(parent_name)
        return sum(
            1 for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0
            and self.name[self.parent[i]] == pid and self.op[i] in op_ids
        )

    def sparse_totals(self, op_ids: set[int]) -> tuple[int, int, int]:
        rows = nnz = rank = 0
        for idx, (r, z, k) in self.sparse.items():
            if self.op[idx] in op_ids:
                rows, nnz, rank = rows + r, nnz + z, rank + k
        return rows, nnz, rank

    def write(self, path: Path) -> None:
        """Spans as columns: name index, start, end, parent, operation."""
        t0 = min(self.start) if self.start else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [self.name[i], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9),
                 self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
            "sparse_rank": {str(i): list(v) for i, v in self.sparse.items()},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
