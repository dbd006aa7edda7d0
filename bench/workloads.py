"""The four benchmark workloads: their ops and the checks behind fail_rate.

An op is one call into flatbands: ``flatbands.cli.main(argv)`` with
stdout captured, or ``flatbands.newton_polytope_data``.  Each op has an
``invoke`` (the timed call) and a ``check`` that returns None when the
output is right, ``INCONSISTENT`` for exit 11 (random labelings that
disagreed, counted apart from failures), or a reason for the failure.
Checks hold for any seed: they compare against facts the generator
planted, against flatbands' own combinatorial oracles, and against
invariants recomputed here (a 2-D hull, the trace of L(z)), never
against golden files.

``flatbands`` is looked up at call time, so a tracer that rebinds its
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import corpus

INCONSISTENT = "inconsistent"

# Pre-generated corpus size per workload: at least twice what a 28 s window
# uses at the seed code.  A faster program cycles through it again.
CORPUS_SIZE = {"sweep": 5000, "dispersion": 800, "newton": 500, "bands": 400}

# Ops in one corpus cycle: one graph of every stratum (a fixed block of
# sweep seeds).  ops_per_s is taken over the median cycle time.
CYCLE_OPS = {
    "sweep": 50,
    "dispersion": 2 * len(corpus.DISPERSION_STRATA),
    "newton": 2 * len(corpus.NEWTON_STRATA),
    "bands": len(corpus.BANDS_STRATA),
}

# Fixed inputs of the warm-up op, the same for every seed.  They reach
# every lazy import the workload's timed ops reach (sweep graph 0 and the
# planted 3-orbit block of dispersion graph 3 both factor through sympy).
WARMUP_SEED = 0
WARMUP_INDEX = {"sweep": 0, "dispersion": 3, "newton": 0, "bands": 0}


@dataclass
class CliResult:
    code: int
    out: str


@dataclass
class Op:
    kind: str
    invoke: Callable[[], Any]
    check: Callable[[Any], str | None]
    output: Path | None = None  # a file the op writes


@dataclass
class Item:
    """One corpus entry as the run prints it; ``support`` is filled in by
    the newton checks, the only ones that see the dispersion support."""

    name: str
    text: str
    n: int = 0
    d: int = 0
    edges: int = 0
    support: int | None = None


def call_cli(argv: list[str]) -> CliResult:
    import flatbands.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = flatbands.cli.main(argv)
    return CliResult(code, buf.getvalue())


def _cli_op(kind: str, argv: list[str], check: Callable[[dict, int], str | None],
            output: Path | None = None) -> Op:
    def checked(result: CliResult) -> str | None:
        try:
            doc = json.loads(result.out)
        except json.JSONDecodeError:
            return f"exit {result.code}, stdout is not a JSON report"
        return check(doc, result.code)

    return Op(kind, lambda: call_cli(argv), checked, output)


def _library_oracles(path: Path) -> tuple[bool, bool]:
    """flatbands' combinatorial oracles on the file, computed before timing."""
    import flatbands

    graph = flatbands.load_graph_file(path).graph
    return (flatbands.find_support_zero_component(graph) is not None,
            flatbands.has_support_zero_domain(graph))


def _write(workdir: Path, graph: corpus.Graph) -> tuple[Path, Item]:
    text = graph.text()
    path = workdir / f"{graph.name}.json"
    path.write_text(text, encoding="utf-8")
    return path, Item(graph.name, text, graph.n, graph.dimension, len(graph.edges))


# ---------------------------------------------------------------------------
# sweep: verify-theorem, one random graph per op


def sweep_ops(seed: int, index: int, workdir: Path, items: list) -> list[Op]:
    k = seed * 1_000_000 + index
    items.append(Item(f"verify-theorem-{k}", f"verify-theorem --seed {k}\n"))

    def check(doc: dict, code: int) -> str | None:
        agreement = doc["oracle_agreement"]
        if code == 11:
            return INCONSISTENT
        if code != 0 or agreement["disagreements"] or doc["vertical_segment_agreement"][
                "ladder_failures"]:
            return f"verify-theorem seed {k}: exit {code}, oracles disagree"
        if (agreement["both_flat_band"] + agreement["both_no_flat_band"] != 1
                or doc["vertical_segment_agreement"]["agreeing"] != 1):
            return f"verify-theorem seed {k}: agreement counts do not add up to 1"
        return None

    argv = ["--json", "verify-theorem", "--count", "1", "--seed", str(k), "--trials", "5",
            "--dims", "1,2", "--max-orbits", "4", "--max-edges", "6"]
    return [_cli_op("verify-theorem", argv, check)]


# ---------------------------------------------------------------------------
# dispersion: analyze and generic on each graph


def dispersion_ops(seed: int, index: int, workdir: Path, items: list) -> list[Op]:
    graph = corpus.dispersion_graph(seed, index)
    path, item = _write(workdir, graph)
    items.append(item)
    planted = graph.flat_orbits > 0
    component, _ = _library_oracles(path)

    def check_analyze(doc: dict, code: int) -> str | None:
        report = doc["flat_bands"]
        if code not in (0, 10) or report["flat_band_found"] != (code == 10):
            return f"{graph.name} analyze: exit {code} disagrees with its report"
        if not all(root["divisibility_verified"] for root in report["rational_roots"]):
            return f"{graph.name} analyze: a rational root failed divisibility"
        if planted and report["count_with_multiplicity"] < graph.flat_orbits:
            return (f"{graph.name} analyze: planted block of {graph.flat_orbits} orbits, "
                    f"{report['count_with_multiplicity']} flat bands reported")
        return None

    def check_generic(doc: dict, code: int) -> str | None:
        if code == 11:
            return INCONSISTENT
        if code not in (0, 10) or doc["generic_flat_band"] != (code == 10):
            return f"{graph.name} generic: exit {code} disagrees with its report"
        if not planted == component == doc["generic_flat_band"]:
            return (f"{graph.name} generic: verdict {doc['generic_flat_band']}, planted "
                    f"{planted}, support-zero component {component}")
        return None

    s = str(index)
    return [
        _cli_op("analyze", ["--json", "analyze", str(path), "--labels", "random",
                            "--seed", s], check_analyze),
        _cli_op("generic", ["--json", "generic", str(path), "--trials", "3",
                            "--seed", s], check_generic),
    ]


# ---------------------------------------------------------------------------
# newton: polytope report, then the hull of the printed support


def hull_2d(points) -> set:
    """Vertices of the convex hull of planar integer points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return set(chain(pts)[:-1] + chain(reversed(pts))[:-1])


def newton_ops(seed: int, index: int, workdir: Path, items: list) -> list[Op]:
    graph = corpus.newton_graph(seed, index)
    path, item = _write(workdir, graph)
    items.append(item)
    segment_expected = graph.flat_orbits == graph.n
    _, domain = _library_oracles(path)
    top = (0,) * graph.dimension + (graph.n,)
    state: dict = {}

    def check_polytope(doc: dict, code: int) -> str | None:
        support = frozenset(tuple(p) for p in doc["generic_support"])
        state["support"] = support
        item.support = len(support)
        if code != 0:
            return f"{graph.name} polytope: exit {code}"
        if top not in support or any(
                len(p) != graph.dimension + 1 or not 0 <= p[-1] <= graph.n for p in support):
            return f"{graph.name} polytope: support misses {top} or leaves the lam range"
        if not doc["vertical_segment"] == segment_expected == domain:
            return (f"{graph.name} polytope: vertical_segment {doc['vertical_segment']}, "
                    f"all orbits planted {segment_expected}, support-zero domain {domain}")
        return None

    def hull():
        import flatbands

        return flatbands.newton_polytope_data(state["support"])

    def check_hull(data) -> str | None:
        support = state["support"]
        vertices = set(data.hull_vertices)
        if not vertices <= support:
            return f"{graph.name} hull: vertices outside the support"
        if not {top, min(support), max(support)} <= vertices:
            return f"{graph.name} hull: misses the top or a lexicographic extreme point"
        if graph.dimension == 1 and vertices != hull_2d(support):
            return f"{graph.name} hull: vertices differ from the 2-D hull"
        return None

    return [
        _cli_op("polytope", ["--json", "polytope", str(path), "--seed", str(index)],
                check_polytope),
        Op("newton_polytope_data", hull, check_hull),
    ]


# ---------------------------------------------------------------------------
# bands: numeric sampling with CSV output


def trace_at(graph: corpus.Graph, thetas: list[float]) -> float:
    """Trace of L(z) at z = exp(i theta): potentials plus 2 w cos(a.theta) per self class."""
    total = float(sum(graph.potentials))
    for (i, j, a), w in zip(graph.edges, graph.weights):
        if i == j:
            total += 2.0 * float(w) * math.cos(sum(e * t for e, t in zip(a, thetas)))
    return total


def check_csv(graph: corpus.Graph, text: str, grid_points: int) -> str | None:
    """Row count, and band sums against the trace of L(z) at every grid point."""
    rows = text.splitlines()
    if len(rows) != grid_points + 1:
        return f"{graph.name} bands: CSV has {len(rows)} rows, expected {grid_points + 1}"
    d = graph.dimension
    for row in rows[1:]:
        values = [float(x) for x in row.split(",")]
        if len(values) != d + graph.n:
            return f"{graph.name} bands: CSV row has {len(values)} fields"
        if abs(sum(values[d:]) - trace_at(graph, values[:d])) > 1e-9:
            return f"{graph.name} bands: band sum differs from trace L(z) at {values[:d]}"
    return None


def bands_ops(seed: int, index: int, workdir: Path, items: list) -> list[Op]:
    graph, resolution = corpus.bands_graph(seed, index)
    path, item = _write(workdir, graph)
    items.append(item)
    csv_path = workdir / "bands.csv"

    def check(doc: dict, code: int) -> str | None:
        if code != 0:
            return f"{graph.name} bands: exit {code}"
        checks = doc["exact_crosscheck"]
        if not all(c["consistent"] for c in checks):
            return f"{graph.name} bands: an exact cross-check is inconsistent"
        if graph.flat_orbits and not checks:
            return f"{graph.name} bands: planted rational flat band not cross-checked"
        if doc["grid_points"] != resolution ** graph.dimension:
            return f"{graph.name} bands: {doc['grid_points']} grid points"
        return check_csv(graph, csv_path.read_text(encoding="utf-8"), doc["grid_points"])

    argv = ["--json", "bands", str(path), "--resolution", str(resolution),
            "--seed", str(index), "--out", str(csv_path)]
    return [_cli_op("bands", argv, check, csv_path)]


BUILDERS = {
    "sweep": sweep_ops,
    "dispersion": dispersion_ops,
    "newton": newton_ops,
    "bands": bands_ops,
}


def build(workload: str, seed: int, workdir: Path, count: int | None = None
          ) -> tuple[list[Op], list[Item]]:
    """Ops of the first ``count`` corpus entries, in corpus order."""
    make = BUILDERS[workload]
    ops: list[Op] = []
    items: list[Item] = []
    for index in range(CORPUS_SIZE[workload] if count is None else count):
        ops.extend(make(seed, index, workdir, items))
    return ops, items


def warm_up(workload: str, workdir: Path) -> None:
    """Run the fixed warm-up ops, in their own directory, outside any timing."""
    warmdir = workdir / "warmup"
    warmdir.mkdir(exist_ok=True)
    for op in BUILDERS[workload](WARMUP_SEED, WARMUP_INDEX[workload], warmdir, []):
        op.check(op.invoke())
