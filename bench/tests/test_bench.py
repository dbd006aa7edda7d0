"""Tests of the benchmark itself: corpus, checks, tracer and names.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# corpus


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_is_deterministic_for_a_seed(workload, tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        _, items = workloads.build(workload, 7, tmp_path / sub, count=12)
        texts.append([item.text for item in items])
    assert texts[0] == texts[1]
    if workload != "sweep":
        files = [sorted(p.read_bytes() for p in (tmp_path / sub).glob("*.json"))
                 for sub in ("a", "b")]
        assert files[0] == files[1]
    (tmp_path / "c").mkdir()
    _, other = workloads.build(workload, 8, tmp_path / "c", count=12)
    assert corpus.digest(t for t in texts[0]) != corpus.digest(i.text for i in other)


def test_planted_and_dispersive_parts_have_the_promised_oracles():
    import flatbands

    for index in range(40):
        graph = corpus.dispersion_graph(3, index)
        spec = flatbands.load_graph_text(graph.text())
        found = flatbands.find_support_zero_component(spec.graph) is not None
        assert found == (graph.flat_orbits > 0)


def test_bands_graphs_factor_without_sympy():
    """A cubic flat-band polynomial would import sympy mid-run and move
    peak_rss_mb on some seeds only.  Equal potentials outside the planted
    dimer or Lieb side A can add such accidental flat bands."""
    import flatbands

    for seed in (1, 2):
        for index in range(10 * len(corpus.BANDS_STRATA)):
            graph, _ = corpus.bands_graph(seed, index)
            repeated = [p for p in set(graph.potentials) if graph.potentials.count(p) > 1]
            assert len(repeated) == (graph.flat_orbits > 0), graph.name
            spec = flatbands.load_graph_text(graph.text())
            report = flatbands.flat_bands_of(spec.graph, spec.labeling())
            assert len(report.flatband_poly) - 1 <= 2, graph.name


# ---------------------------------------------------------------------------
# checks flag corrupted reports


def test_sweep_check_flags_oracle_disagreement(tmp_path):
    op = workloads.build("sweep", 1, tmp_path, count=1)[0][0]
    good = op.invoke()
    assert op.check(good) is None
    doc = json.loads(good.out)
    doc["oracle_agreement"]["disagreements"] = [{"trial": 0}]
    assert op.check(workloads.CliResult(10, json.dumps(doc))) not in (None, workloads.INCONSISTENT)
    assert op.check(workloads.CliResult(11, good.out)) == workloads.INCONSISTENT


def test_dispersion_check_flags_a_flipped_verdict(tmp_path):
    ops, _ = workloads.build("dispersion", 1, tmp_path, count=4)
    generic = ops[7]  # graph 3 has a planted block
    good = generic.invoke()
    assert good.code == 10 and generic.check(good) is None
    doc = json.loads(good.out)
    doc["generic_flat_band"] = False
    assert generic.check(workloads.CliResult(0, json.dumps(doc))) is not None

    analyze = ops[6]
    good = analyze.invoke()
    assert analyze.check(good) is None
    doc = json.loads(good.out)
    for root in doc["flat_bands"]["rational_roots"]:
        root["divisibility_verified"] = False
    doc["flat_bands"]["count_with_multiplicity"] = 0
    assert analyze.check(workloads.CliResult(good.code, json.dumps(doc))) is not None


def test_newton_checks_flag_a_wrong_segment_and_a_wrong_hull(tmp_path):
    ops, _ = workloads.build("newton", 1, tmp_path, count=1)
    polytope, hull = ops
    good = polytope.invoke()
    assert polytope.check(good) is None
    data = hull.invoke()
    assert hull.check(data) is None
    doc = json.loads(good.out)
    doc["vertical_segment"] = not doc["vertical_segment"]
    assert polytope.check(workloads.CliResult(0, json.dumps(doc))) is not None
    polytope.check(good)

    class Wrong:
        hull_vertices = frozenset(list(data.hull_vertices)[1:])

    assert hull.check(Wrong) is not None


def test_hull_2d_drops_collinear_and_interior_points():
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0), (0, 1)]
    assert workloads.hull_2d(square) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    assert workloads.hull_2d([(0, 0), (0, 1), (0, 2)]) == {(0, 0), (0, 2)}


def test_bands_check_flags_one_band_perturbed_by_1e_6(tmp_path):
    op = workloads.build("bands", 1, tmp_path, count=1)[0][0]
    good = op.invoke()
    assert op.check(good) is None
    rows = op.output.read_text().splitlines()
    fields = rows[5].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    rows[5] = ",".join(fields)
    op.output.write_text("\n".join(rows) + "\n")
    assert op.check(good) is not None


def test_bands_check_flags_a_missing_row(tmp_path):
    op = workloads.build("bands", 1, tmp_path, count=1)[0][0]
    good = op.invoke()
    op.output.write_text("\n".join(op.output.read_text().splitlines()[:-1]) + "\n")
    assert op.check(good) is not None


# ---------------------------------------------------------------------------
# tracer


def test_self_times_add_up_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("op", 0.0, 10.0, None, 0),
        S("laurent.det", 1.0, 5.0, 0, 0),
        S("floquet.build", 2.0, 3.0, 1, 0),
        S("unipoly.factor", 6.0, 8.0, 0, 0),
        S("op", 10.0, 11.0, None, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {"op": 5.0, "laurent.det": 3.0, "floquet.build": 1.0,
                   "unipoly.factor": 2.0}
    assert sum(own.values()) == pytest.approx(11.0)


def test_tracer_records_layers_and_restores_every_attribute(tmp_path):
    import flatbands
    import flatbands.cli
    import flatbands.floquet
    import flatbands.laurent

    before = (flatbands.cli.load_graph_file, flatbands.floquet.determinant,
              flatbands.laurent.det_leibniz, flatbands.FloquetMatrix.__init__,
              flatbands.LaurentPoly.__init__, flatbands.newton_polytope_data)
    ops, _ = workloads.build("dispersion", 1, tmp_path, count=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert flatbands.cli.load_graph_file is not before[0]
        result = run.run_pass(ops, count=2, tracer=tracer)
    finally:
        tracer.restore()
    after = (flatbands.cli.load_graph_file, flatbands.floquet.determinant,
             flatbands.laurent.det_leibniz, flatbands.FloquetMatrix.__init__,
             flatbands.LaurentPoly.__init__, flatbands.newton_polytope_data)
    assert all(a is b for a, b in zip(before, after))
    assert result.failed == 0
    metrics = tracer.layer_metrics(result.wall, result.wall)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["graphio.load.calls"] == 2
    assert metrics["laurent.det.calls"] == metrics["floquet.build.calls"] > 0
    assert metrics["laurent.leibniz.s"] <= metrics["laurent.det.s"]
    roots = [s for s in tracer.spans if s.parent is None]
    assert [(s.name, s.op) for s in roots] == [("op", 0), ("op", 1)]


# ---------------------------------------------------------------------------
# names and the command-line contract


def test_names_match_benchmark_json():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= run.MIN_OPS
    key = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
