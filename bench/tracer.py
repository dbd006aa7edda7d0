"""Outside-in tracer: spans and counters around flatbands' public layers.

Nothing under ``src/`` is edited.  ``Tracer.install`` rebinds module
attributes that callers look up at call time -- every alias of a wrapped
function across the loaded ``flatbands.*`` modules, since ``cli`` and
others import names directly -- plus ``FloquetMatrix.__init__`` and
``LaurentPoly.__init__`` on the classes.  ``Tracer.restore`` puts every
original back.

Spans (name, start, end, parent, op id) are kept in memory and dumped by
``Tracer.dump``.  Spans are recorded only while an op is open, so the
benchmark's own checks never show up in the per-layer numbers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name) of every wrapped public function.
WRAPPED = (
    ("flatbands.graphio", "load_graph_file", "graphio.load"),
    ("flatbands.sampling", "random_periodic_graph", "sampling"),
    ("flatbands.sampling", "random_labeling", "sampling"),
    ("flatbands.graph", "find_support_zero_component", "graph.oracle"),
    ("flatbands.graph", "has_support_zero_domain", "graph.oracle"),
    ("flatbands.laurent", "determinant", "laurent.det"),
    ("flatbands.flatband", "flat_bands", "flatband.flat_bands"),
    ("flatbands.unipoly", "gcd", "unipoly.gcd"),
    ("flatbands.unipoly", "factor_rational", "unipoly.factor"),
    ("flatbands.polytope", "generic_support", "polytope.support"),
    ("flatbands.polytope", "vertical_faces", "polytope.faces"),
    ("flatbands.polytope", "facial_independence_witness", "polytope.witness"),
    ("flatbands.polytope", "extreme_points", "polytope.hull"),
    ("flatbands.bands", "sample_bands", "bands.sample"),
    ("flatbands.bands", "floquet_at", "bands.eval"),
    ("flatbands.bands", "hermitian_eigh", "bands.eigh"),
    ("flatbands.bands", "write_csv", "bands.csv"),
    ("flatbands.cli", "emit", "cli.emit"),
)

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "graphio.load.calls": "count", "graphio.load.s": "s",
    "sampling.s": "s",
    "graph.oracle.s": "s",
    "floquet.build.calls": "count", "floquet.build.s": "s",
    "laurent.det.calls": "count", "laurent.det.s": "s",
    "laurent.bareiss.calls": "count", "laurent.bareiss.s": "s",
    "laurent.det.max_n": "count", "laurent.det.terms_out": "count",
    "laurent.leibniz.calls": "count", "laurent.leibniz.s": "s",
    "laurent.poly_inits": "count",
    "flatband.flat_bands.calls": "count", "flatband.flat_bands.s": "s",
    "flatband.flat_share": "ratio", "flatband.generic.inconsistent": "count",
    "unipoly.gcd.calls": "count", "unipoly.gcd.s": "s",
    "unipoly.factor.calls": "count", "unipoly.factor.s": "s",
    "unipoly.factor.sympy_calls": "count",
    "polytope.support.s": "s", "polytope.faces.s": "s", "polytope.witness.s": "s",
    "polytope.hull.calls": "count", "polytope.hull.s": "s",
    "polytope.hull.lp_calls": "count", "polytope.hull.points_in": "count",
    "polytope.hull.vertices_out": "count", "polytope.hull.vertex_ratio": "ratio",
    "bands.sample.s": "s", "bands.eval.s": "s",
    "bands.eigh.calls": "count", "bands.eigh.s": "s",
    "bands.grid_points": "count", "bands.csv.s": "s", "bands.csv.bytes": "bytes",
    "cli.emit.s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


# Kernels inside a span of the same layer: timed and counted but not
# spanned, so the enclosing span keeps their time as its own (laurent.det
# holds its kernel, polytope.hull its LPs) and the split is still reported.
TIMED = (
    ("flatbands.laurent", "det_leibniz", "laurent.leibniz"),
    ("flatbands.laurent", "det_bareiss", "laurent.bareiss"),
    ("flatbands.polytope", "in_convex_hull", "polytope.lp"),
)


def self_times(spans: list[Span]) -> Counter:
    """Per span name: total duration minus the time its child spans cover."""
    out: Counter = Counter()
    for span in spans:
        took = span.end - span.start
        out[span.name] += took
        if span.parent is not None:
            out[spans[span.parent].name] -= took
    return out


def _after_call(counts: Counter, name: str, args, result) -> None:
    """Counters that need the arguments or the result of a call."""
    if name == "laurent.det":
        counts["laurent.det.max_n"] = max(counts["laurent.det.max_n"], args[0].size)
        counts["laurent.det.terms_out"] += len(result.support())
    elif name == "flatband.flat_bands":
        counts["flatband.flat_bands.found"] += bool(result.has_flat_band)
    elif name == "unipoly.factor":
        counts["unipoly.factor.sympy_calls"] += len(args[0]) >= 4
    elif name == "polytope.hull":
        counts["polytope.hull.points_in"] += len(set(args[0]))
        counts["polytope.hull.vertices_out"] += len(result)
    elif name == "bands.sample":
        counts["bands.grid_points"] += len(result.grid)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if self._op is None:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def op(self, op_id: int):
        """Open an op: the root span every layer span of this op hangs from."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- wrapping ---------------------------------------------------------

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_function(self, module_name: str, attr: str, name: str,
                       spanned: bool = True) -> None:
        original = getattr(sys.modules[module_name], attr)
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            counts[name + ".calls"] += 1
            if spanned:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            else:
                start = time.perf_counter()
                result = original(*args, **kwargs)
                counts[name + ".s"] += time.perf_counter() - start
            _after_call(counts, name, args, result)
            return result

        wrapper.__wrapped__ = original
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "flatbands" and not mod_name.startswith("flatbands."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, wrapper)

    def _wrap_init(self, cls, name: str | None, counter: str) -> None:
        original = cls.__init__
        tracer = self

        def __init__(obj, *args, **kwargs):
            if tracer._op is None:
                return original(obj, *args, **kwargs)
            tracer.counts[counter] += 1
            if name is None:
                return original(obj, *args, **kwargs)
            with tracer.span(name):
                return original(obj, *args, **kwargs)

        self._rebind(cls, "__init__", __init__)

    def install(self) -> None:
        """Wrap every layer boundary; flatbands must already be imported."""
        import flatbands.cli  # noqa: F401  (loads every submodule)
        from flatbands.floquet import FloquetMatrix
        from flatbands.laurent import LaurentPoly

        for module_name, attr, name in WRAPPED:
            self._wrap_function(module_name, attr, name)
        for module_name, attr, name in TIMED:
            self._wrap_function(module_name, attr, name, spanned=False)
        self._wrap_init(FloquetMatrix, "floquet.build", "floquet.build.calls")
        # ~10^5 constructions per run: a counter only, a span each would swamp it
        self._wrap_init(LaurentPoly, None, "laurent.poly_inits")

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        own = self_times(self.spans)
        timed = {name + ".s" for _, _, name in TIMED}
        c = self.counts
        values = {}
        for name, unit in LAYER_METRICS.items():
            if unit == "s" and name not in timed:
                values[name] = own[name[:-2]]
            else:
                values[name] = c[name]
        values["polytope.hull.lp_calls"] = c["polytope.lp.calls"]
        values["flatband.flat_share"] = (
            c["flatband.flat_bands.found"] / c["flatband.flat_bands.calls"]
            if c["flatband.flat_bands.calls"] else 0.0)
        values["polytope.hull.vertex_ratio"] = (
            c["polytope.hull.vertices_out"] / c["polytope.lp.calls"]
            if c["polytope.lp.calls"] else 0.0)
        values["trace.overhead_ratio"] = traced_wall / untraced_wall
        return values

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
                "counts": dict(self.counts),
            }, handle)
