"""End-to-end command-line behavior: reports, exit codes, determinism."""

import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flatbands
from flatbands import cli, laurent, polytope, unipoly
from flatbands.bands import MAX_GRID_POINTS
from flatbands.flatband import flat_bands_of, generic_flat_band_decision
from flatbands.floquet import FloquetMatrix, PencilTemplate
from flatbands.laurent import LaurentMatrix, LaurentPoly, PackedTemplate, format_unipoly
from flatbands.sampling import random_labeling, random_periodic_graph, rng_for
from flatbands.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FLAT_BAND,
    EXIT_INCONSISTENT,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    main,
)

from conftest import LIEB_DOCUMENT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture
def edgeless_path(tmp_path):
    return write_graph(tmp_path, "edgeless.json", {
        "dimension": 1,
        "orbits": [{"id": "a"}, {"id": "b"}],
    })


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[str]:
    """The `flatbands ...` lines of the README's "Examples:" block."""
    block = README.read_text().split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("flatbands ")]


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_runs(capsys, monkeypatch, tmp_path, line):
    # the exit code is the one the line's comment names, else 0
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    stated = re.search(r"exit (\d+)", comment)
    monkeypatch.chdir(README.parent)
    code = main(argv)
    capsys.readouterr()
    assert code == (int(stated.group(1)) if stated else EXIT_OK)


class TestFormatUnipoly:
    def test_rendering(self):
        assert format_unipoly(()) == "0"
        assert format_unipoly((0, 1)) == "lam"
        assert format_unipoly((2, 0, -3)) == "-3*lam^2 + 2"
        assert format_unipoly((-1, 1, 0, 1)) == "lam^3 + lam - 1"


class TestAnalyze:
    def test_lieb_json(self, capsys, lieb_json_path):
        code, out, _ = run_cli(capsys, "--json", "analyze", lieb_json_path)
        assert code == EXIT_FLAT_BAND
        report = json.loads(out)
        assert report["command"] == "analyze"
        assert report["exit_code"] == EXIT_FLAT_BAND
        assert report["floquet_matrix"] == [
            ["0", "1 + z1", "0"],
            ["z1^-1 + 1", "0", "z2^-1 + 1"],
            ["0", "1 + z2", "0"],
        ]
        section = report["flat_bands"]
        assert section["flat_band_found"] is True
        assert section["count_with_multiplicity"] == 1
        assert section["rational_roots"] == [
            {"energy": 0, "multiplicity": 1, "divisibility_verified": True}
        ]
        assert section["irreducible_factors"] == []

    def test_lieb_text(self, capsys, lieb_json_path):
        code, out, _ = run_cli(capsys, "analyze", lieb_json_path)
        assert code == EXIT_FLAT_BAND
        assert "flat band found: True" in out
        assert "dispersion:" in out
        assert "_" not in out.split("dispersion:")[0]  # keys are prettified

    def test_random_labels_remove_flat_band(self, capsys, lieb_json_path):
        code, out, _ = run_cli(
            capsys, "--json", "analyze", lieb_json_path, "--labels", "random"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["flat_bands"]["flat_band_found"] is False
        assert report["labels_mode"] == "random"

    def test_given_requires_full_labels(self, capsys, tmp_path):
        path = write_graph(tmp_path, "partial.json", {
            "dimension": 1,
            "orbits": [{"id": "1", "potential": 0}, {"id": "2"}],
            "edges": [{"from": "1", "to": "2", "offset": [0]}],
        })
        code, _, err = run_cli(capsys, "analyze", path, "--labels", "given")
        assert code == EXIT_INPUT_ERROR
        assert "labels missing" in err

    @pytest.mark.parametrize("command", ["analyze", "bands"])
    @pytest.mark.parametrize("mode", ["given", "auto"])
    def test_zero_weight_in_the_file_names_the_edge(self, capsys, tmp_path, command, mode):
        path = write_graph(tmp_path, "zero.json", {
            "dimension": 1,
            "orbits": [{"id": "A", "potential": 0}, {"id": "B", "potential": 0}],
            "edges": [{"from": "A", "to": "B", "offset": [0], "weight": 0}],
        })
        code, _, err = run_cli(capsys, command, path, "--labels", mode)
        assert code == EXIT_INPUT_ERROR
        assert "A~B@[0]" in err and "allow_zero" not in err
        # random labels ignore the file's weights
        code, _, _ = run_cli(capsys, command, path, "--labels", "random")
        assert code != EXIT_INPUT_ERROR

    def test_deterministic_output(self, capsys, lieb_json_path):
        args = ("--json", "analyze", lieb_json_path, "--labels", "random", "--seed", "3")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second

    def test_seed_changes_random_labels(self, capsys, lieb_json_path):
        _, out_a, _ = run_cli(capsys, "--json", "analyze", lieb_json_path,
                              "--labels", "random", "--seed", "1")
        _, out_b, _ = run_cli(capsys, "--json", "analyze", lieb_json_path,
                              "--labels", "random", "--seed", "2")
        labels = lambda text: json.loads(text)["labeling"]
        assert labels(out_a) != labels(out_b)


class TestGeneric:
    def test_lieb(self, capsys, lieb_json_path):
        code, out, _ = run_cli(capsys, "--json", "generic", lieb_json_path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["per_trial_flat_band_counts"] == [0] * 5
        assert report["consistent"] is True
        assert report["generic_flat_band"] is False

    def test_edgeless_graph_is_all_flat(self, capsys, edgeless_path):
        code, out, _ = run_cli(capsys, "--json", "generic", edgeless_path,
                               "--trials", "3")
        assert code == EXIT_FLAT_BAND
        report = json.loads(out)
        assert report["per_trial_flat_band_counts"] == [2, 2, 2]
        assert report["generic_flat_band"] is True

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_rejects_trials_below_one_before_reading_the_file(self, capsys, tmp_path,
                                                              trials):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "--json", "generic", missing, "--trials", trials)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "input error: --trials must be at least 1\n"


class TestPolytope:
    def test_lieb_faces(self, capsys, lieb_json_path):
        code, out, _ = run_cli(capsys, "--json", "polytope", lieb_json_path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["vertical_segment"] is False
        assert len(report["faces"]) == 8
        assert [f["normal"] for f in report["faces"][:2]] == [[-1, -1, 0], [-1, 0, 0]]
        assert all(f["min_value"] == -1 for f in report["faces"])
        for face in report["faces"]:
            assert face["independence_witness"] in ("1", "2", "3")
        assert "facial_note" in report

    def test_segment_reports_ladder(self, capsys, edgeless_path):
        code, out, _ = run_cli(capsys, "--json", "polytope", edgeless_path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["vertical_segment"] is True
        assert report["vertical_segment_is_full_ladder"] is True
        assert report["faces"] == []
        assert "vertical segment" in report["notice"]

    def test_high_dimension_notice(self, capsys, tmp_path):
        path = write_graph(tmp_path, "cubic.json", {
            "dimension": 3,
            "orbits": [{"id": "1"}, {"id": "2"}],
            "edges": [
                {"from": "1", "to": "2", "offset": [0, 0, 0]},
                {"from": "1", "to": "2", "offset": [1, 0, 0]},
            ],
        })
        code, out, _ = run_cli(capsys, "--json", "polytope", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["vertical_segment"] is False
        assert report["faces"] == []
        assert "dimension" in report["notice"]


class TestVerifyTheorem:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify-theorem",
                               "--count", "10", "--seed", "7")
        assert code == EXIT_OK
        report = json.loads(out)
        agreement = report["oracle_agreement"]
        assert agreement["both_flat_band"] + agreement["both_no_flat_band"] == 10
        assert agreement["disagreements"] == []
        assert agreement["inconsistent_trials"] == []
        assert report["vertical_segment_agreement"]["agreeing"] == 10
        assert report["vertical_segment_agreement"]["ladder_failures"] == []

    def test_rejects_bad_dims(self, capsys):
        # an entry out of range, an empty entry, and one that is no number
        for dims in ("3", "1,,2", "x"):
            code, _, err = run_cli(capsys, "verify-theorem", "--dims", dims)
            assert code == EXIT_INPUT_ERROR
            assert err.strip().endswith("--dims must list dimensions within 1..2")

    def test_rejects_negative_count(self, capsys):
        code, out, err = run_cli(capsys, "--json", "verify-theorem", "--count", "-3")
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "--count" in err
        code, out, _ = run_cli(capsys, "--json", "verify-theorem", "--count", "0")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 0

    @pytest.mark.parametrize("count", ["0", "5"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_rejects_trials_below_one_before_any_graph(self, capsys, monkeypatch,
                                                       count, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("no graph may be drawn")

        monkeypatch.setattr(cli, "random_periodic_graph", refuse)
        code, out, err = run_cli(capsys, "--json", "verify-theorem",
                                 "--count", count, "--trials", trials)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "input error: --trials must be at least 1\n"


    def test_verdict_matches_the_decision_over_every_trial(self, capsys):
        # a labeling whose exact gcd is 1 proves that the generic operator
        # has no flat band, so verify-theorem stops at the first one.  Its
        # verdict is the decision over all K labelings wherever that one is
        # unanimous.  Where it is mixed, the stop says "no" if trial 0 has no
        # flat band, and stays inconsistent if a "flat" draw came first.
        for k in range(2000):
            dims = ((1,), (2,), (1, 2))[k % 3]
            trials = 1 + k % 5
            code, out, _ = run_cli(capsys, "--json", "verify-theorem", "--count", "1",
                                   "--seed", str(k), "--trials", str(trials),
                                   "--dims", ",".join(map(str, dims)))
            graph = random_periodic_graph(rng_for(k, "graph", 0), dims=dims,
                                          max_orbits=4, max_edges=6)
            decision = generic_flat_band_decision(graph, trials=trials, seed=f"{k}/alg/0")
            expected = decision.has_flat_band
            if not decision.consistent:
                expected = None if decision.reports[0].has_flat_band else False
            assert _sweep_verdict(json.loads(out)) == expected, k
            assert (code == EXIT_INCONSISTENT) == (expected is None), k

    @pytest.mark.parametrize("seed, labelings", [(1, 1), (0, 5)])
    def test_one_template_and_labelings_up_to_the_first_no(self, capsys, monkeypatch,
                                                            seed, labelings):
        # graph 0 of seed 1 has no flat band at trial 0; that of seed 0 is flat
        # at every trial
        assert _labelings_until_settled(0, seed=seed) == labelings
        fills, templates = [], []
        fill, init = PackedTemplate.fill, PencilTemplate.__init__

        def counted_fill(self, values):
            fills.append(len(values))
            return fill(self, values)

        def counted_init(self, graph):
            templates.append(graph)
            init(self, graph)

        monkeypatch.setattr(PackedTemplate, "fill", counted_fill)
        monkeypatch.setattr(PencilTemplate, "__init__", counted_init)
        code, _, _ = run_cli(capsys, "--json", "verify-theorem", "--count", "1",
                             "--seed", str(seed))
        assert code == EXIT_OK
        assert len(fills) == labelings
        assert len(templates) == 1


def _sweep_verdict(report: dict) -> bool | None:
    """The generic verdict of a one-graph verify-theorem report; None if mixed."""
    agreement = report["oracle_agreement"]
    if agreement["inconsistent_trials"]:
        return None
    if agreement["both_flat_band"] or agreement["both_no_flat_band"]:
        return bool(agreement["both_flat_band"])
    [entry] = [d for d in agreement["disagreements"] if "generic_flat_band" in d]
    return entry["generic_flat_band"]


class TestBands:
    def test_lieb_with_csv(self, capsys, lieb_json_path, tmp_path):
        out_csv = tmp_path / "bands.csv"
        code, out, _ = run_cli(capsys, "--json", "bands", lieb_json_path,
                               "--resolution", "4", "--out", str(out_csv))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["grid_points"] == 16
        assert report["numeric_flat_bands"] == [2]
        assert float(report["band_flatness"][1]) < 1e-12
        check = report["exact_crosscheck"]
        assert len(check) == 1
        assert check[0]["energy"] == 0
        assert check[0]["matching_bands"] == [2]
        assert check[0]["present_at_every_grid_point"] is True
        assert check[0]["consistent"] is True
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "theta_1,theta_2,band_1,band_2,band_3"
        assert len(lines) == 17

    @pytest.mark.parametrize("field, label", [
        ("potential", "potential of orbit 1"),
        ("weight", "weight of edge 1~2@[0]"),
    ])
    def test_label_beyond_float_range_is_an_input_error(self, capsys, tmp_path,
                                                        field, label):
        document = {
            "dimension": 1,
            "orbits": [{"id": "1", "potential": 0}, {"id": "2", "potential": 0}],
            "edges": [{"from": "1", "to": "2", "offset": [0], "weight": 1},
                      {"from": "1", "to": "2", "offset": [1], "weight": 1}],
        }
        if field == "potential":
            document["orbits"][0]["potential"] = "1e400"
        else:
            document["edges"][0]["weight"] = "-1e400"
        path = write_graph(tmp_path, "huge.json", document)
        code, out, err = run_cli(capsys, "bands", path, "--resolution", "4")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"input error: {label} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("weight", ["1e160", "1e-170", "1e300", "1e-300"])
    def test_bands_at_the_ends_of_the_float_range(self, capsys, tmp_path, weight):
        # the Lieb bands at the Gamma point are 0 and +-2 sqrt(2) w
        document = json.loads(json.dumps(LIEB_DOCUMENT))
        for edge in document["edges"]:
            edge["weight"] = weight
        path = write_graph(tmp_path, "lieb.json", document)
        out_csv = tmp_path / "bands.csv"
        code, _, err = run_cli(capsys, "bands", path, "--resolution", "4",
                               "--out", str(out_csv))
        assert (code, err) == (EXIT_OK, "")
        gamma = [float(x) for x in out_csv.read_text().splitlines()[1].split(",")]
        w = float(weight)
        assert gamma[:2] == [0.0, 0.0]
        for got, want in zip(gamma[2:], [-2.0 * math.sqrt(2.0) * w, 0.0,
                                         2.0 * math.sqrt(2.0) * w], strict=True):
            assert abs(got - want) <= 1e-12 * w

    @pytest.mark.parametrize("weight", ["1", "1e160", "1e-170", "1e300", "1e-300"])
    def test_verdicts_do_not_depend_on_the_label_scale(self, capsys, tmp_path, weight):
        # --tol is relative to the largest |band value|: the exact flat band
        # at 0 stays consistent and only the middle band is flagged
        document = json.loads(json.dumps(LIEB_DOCUMENT))
        for edge in document["edges"]:
            edge["weight"] = weight
        path = write_graph(tmp_path, "lieb.json", document)
        code, out, _ = run_cli(capsys, "--json", "bands", path, "--resolution", "4")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["numeric_flat_bands"] == [2]
        assert report["tolerance"] == 1e-8
        check = report["exact_crosscheck"]
        assert [(c["energy"], c["matching_bands"]) for c in check] == [(0, [2])]
        assert check[0]["present_at_every_grid_point"] is True
        assert check[0]["consistent"] is True

    def test_tolerance_is_absolute_when_every_band_is_zero(self, capsys, tmp_path):
        document = {"dimension": 1, "orbits": [{"id": "1", "potential": 0}], "edges": []}
        path = write_graph(tmp_path, "zero.json", document)
        code, out, _ = run_cli(capsys, "--json", "bands", path, "--resolution", "4",
                               "--tol", "1e-3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["numeric_flat_bands"] == [1]
        assert report["exact_crosscheck"][0]["consistent"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("exists", [True, False])
    def test_rejects_a_bad_tolerance_before_reading_the_file(self, capsys, monkeypatch,
                                                             lieb_json_path, tmp_path,
                                                             tol, exists):
        def refuse(*args, **kwargs):
            raise AssertionError("no grid may be sampled")

        monkeypatch.setattr(cli, "sample_bands", refuse)
        path = lieb_json_path if exists else str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "--json", "bands", path, f"--tol={tol}")
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "input error: --tol must be a positive finite number\n"

    def test_entries_beyond_the_float_range_are_an_input_error(self, capsys, tmp_path):
        # every weight is a float, but w + w z1 at z1 = 1 is not
        document = json.loads(json.dumps(LIEB_DOCUMENT))
        for edge in document["edges"]:
            edge["weight"] = "1e308"
        path = write_graph(tmp_path, "lieb.json", document)
        code, out, err = run_cli(capsys, "bands", path, "--resolution", "4")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("input error: Floquet matrix entries ")

    def test_grid_budget(self, capsys, lieb_json_path):
        code, out, err = run_cli(capsys, "bands", lieb_json_path, "--resolution", "100000")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == (f"input error: a grid of 100000^2 points exceeds the limit "
                       f"of {MAX_GRID_POINTS} grid points\n")

    def test_resolution_must_be_sane(self, capsys, lieb_json_path):
        code, _, err = run_cli(capsys, "bands", lieb_json_path, "--resolution", "1")
        assert code == EXIT_INPUT_ERROR
        assert "resolution" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
        assert code == EXIT_INPUT_ERROR
        assert "input error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "invalid JSON" in err

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch, lieb_json_path):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([])
            assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                main(["analyze", lieb_json_path, "--no-such-flag"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
            assert run_cli(capsys, "generic", lieb_json_path, "--trials", "2")[0] == EXIT_OK
        assert built == [1]

    @pytest.mark.parametrize("patch_kernel", [True, False])
    def test_a_non_monic_dispersion_is_an_internal_error(self, capsys, monkeypatch,
                                                          lieb_json_path, patch_kernel):
        # doubling breaks the +-1 lam-leading coefficient: FloquetMatrix.dispersion
        # catches a doubled kernel result, flat_bands one doubled after that check
        if patch_kernel:
            kernel = laurent.det_leibniz
            monkeypatch.setattr(laurent, "det_leibniz", lambda m: kernel(m) * 2)
        else:
            original = FloquetMatrix.dispersion
            monkeypatch.setattr(FloquetMatrix, "dispersion",
                                lambda self: original(self) * 2)
        code, out, err = run_cli(capsys, "analyze", lieb_json_path)
        assert code == EXIT_INTERNAL_ERROR == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal error: ")
        assert "Traceback" not in err

    def test_a_broken_integer_determinant_is_an_internal_error(self, capsys, monkeypatch,
                                                               lieb_json_path):
        # the exact commands all expand through det_packed; a doubled result
        # breaks the (-1)^n lam-leading term that each of them checks
        expand = laurent.det_packed
        monkeypatch.setattr(laurent, "det_packed",
                            lambda pencil: {k: 2 * v for k, v in expand(pencil).items()})
        for argv in (["analyze", lieb_json_path], ["generic", lieb_json_path],
                     ["verify-theorem", "--count", "3"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_INTERNAL_ERROR, "")
            assert err == "internal error: dispersion lost its leading lam term\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_analyze_prints_integers_past_the_str_limit(self, capsys, tmp_path, as_json):
        # the dispersion holds the cubed potential, 6001 digits
        document = json.loads(json.dumps(LIEB_DOCUMENT))
        for orbit in document["orbits"]:
            orbit["potential"] = "1e2000"
        path = write_graph(tmp_path, "lieb.json", document)
        code, out, err = run_cli(capsys, *(["--json"] if as_json else []), "analyze", path)
        assert (code, err) == (EXIT_FLAT_BAND, "")
        energy = "1" + "0" * 2000
        if as_json:
            roots = json.loads(out)["flat_bands"]["rational_roots"]
            assert roots == [{"energy": 10 ** 2000, "multiplicity": 1,
                              "divisibility_verified": True}]
        else:
            assert f"energy: {energy}\n" in out
        # the constant term of the dispersion, c^3 - 4c at c = 10^2000
        assert "9" * 3999 + "6" + "0" * 2000 in out

    def test_integers_past_the_str_limit_print_as_text(self):
        big = 10 ** 5000
        assert laurent.decimal_text(big) == "1" + "0" * 5000
        assert laurent.decimal_text(-big) == "-1" + "0" * 5000
        assert laurent.decimal_text(Fraction(-big, 3)) == "-1" + "0" * 5000 + "/3"
        assert laurent.decimal_text(Fraction(7, 2)) == "7/2"
        assert cli._rational_out(Fraction(big)) == "1" + "0" * 5000
        assert cli._rational_out(Fraction(12)) == 12
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            # the last int that str() still prints, and the first it refuses
            edge = 10 ** limit
            assert cli._rational_out(Fraction(1 - edge)) == 1 - edge
            assert cli._rational_out(Fraction(edge)) == "1" + "0" * limit
        assert format_unipoly((-big, 1)) == "lam - 1" + "0" * 5000

    def test_huge_exponent_is_an_input_error(self, capsys, tmp_path):
        path = write_graph(tmp_path, "huge.json", {
            "dimension": 1,
            "orbits": [{"id": "a", "potential": "1e1000000000"}],
        })
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == EXIT_INPUT_ERROR
        assert "exponent" in err

    @pytest.mark.parametrize("error", [
        ArithmeticError("phase-1 simplex became unbounded"),
        ZeroDivisionError("inexact division"),
        AssertionError("support-zero subset produced a z-dependent dispersion"),
        AssertionError(),
    ])
    def test_internal_errors_get_their_own_exit_code(self, capsys, monkeypatch,
                                                      lieb_json_path, error):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code, out, err = run_cli(capsys, "analyze", lieb_json_path)
        assert code == EXIT_INTERNAL_ERROR == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal error: ")
        assert str(error) in err
        assert "Traceback" not in err

    def test_exhausted_memory_is_one_internal_error_line(self, capsys, monkeypatch,
                                                         lieb_json_path):
        def exhausted(pencil):
            raise MemoryError

        monkeypatch.setattr(laurent, "det_packed", exhausted)
        code, out, err = run_cli(capsys, "analyze", lieb_json_path)
        assert code == EXIT_INTERNAL_ERROR
        assert out == ""
        assert err == "internal error: MemoryError\n"

    @pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
    def test_interrupts_pass_through(self, monkeypatch, lieb_json_path, error):
        def interrupted(args):
            raise error

        monkeypatch.setattr(cli, "cmd_analyze", interrupted)
        with pytest.raises(error):
            main(["analyze", lieb_json_path])

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_a_closed_stdout_ends_quietly(self, capsys, monkeypatch, lieb_json_path,
                                          failing):
        # a reader that went away (`| head`) is no input error: one documented
        # exit code and nothing on stderr, whether the report breaks the pipe
        # while it is written or when the buffered rest is flushed
        class ClosedPipe:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["analyze", lieb_json_path])
        monkeypatch.undo()
        assert code == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_a_pipe_closed_by_the_reader_leaves_stderr_empty(self, tmp_path):
        # 300 edgeless orbits print about 280 kB, more than a pipe holds
        path = write_graph(tmp_path, "edgeless300.json", {
            "dimension": 1,
            "orbits": [{"id": str(k), "potential": 0} for k in range(300)],
        })
        proc = subprocess.Popen([sys.executable, "-m", "flatbands", "analyze", path],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "command: analyze\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (EXIT_BROKEN_PIPE, "")

    def test_polytope_of_a_thousand_edgeless_orbits(self, capsys, tmp_path):
        # a recursive minor expansion ends here in a RecursionError traceback
        path = write_graph(tmp_path, "edgeless1100.json", {
            "dimension": 1,
            "orbits": [{"id": str(k), "potential": 0} for k in range(1100)],
        })
        code, out, err = run_cli(capsys, "polytope", path)
        assert code == EXIT_OK
        assert err == ""


def _refuse_factoring(p):
    raise RuntimeError("factor_rational must not run")


def _labelings_until_settled(t: int, seed: int = 0, trials: int = 5) -> int:
    """Labelings `verify-theorem` draws for its graph t: up to the first "no"."""
    graph = random_periodic_graph(rng_for(seed, "graph", t), dims=(1, 2),
                                  max_orbits=4, max_edges=6)
    for k in range(trials):
        labeling = random_labeling(graph, rng_for(f"{seed}/alg/{t}", "decision", k))
        if not flat_bands_of(graph, labeling).has_flat_band:
            return k + 1
    return trials


class TestExactWorkPerCommand:
    """Each command runs only the exact work its report prints."""

    def test_generic_never_factors(self, capsys, monkeypatch, lieb_json_path):
        expected = run_cli(capsys, "generic", lieb_json_path)
        with monkeypatch.context() as patch:
            patch.setattr(unipoly, "factor_rational", _refuse_factoring)
            assert run_cli(capsys, "generic", lieb_json_path) == expected
        assert expected[0] == EXIT_OK

    def test_verify_theorem_never_factors(self, capsys, monkeypatch):
        argv = ("--json", "verify-theorem", "--count", "5")
        expected = run_cli(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(unipoly, "factor_rational", _refuse_factoring)
            assert run_cli(capsys, *argv) == expected
        assert expected[0] == EXIT_OK

    def test_no_subcommand_imports_sympy(self, tmp_path, lieb_json_path):
        # a z-free 3-orbit cycle: its flat-band polynomial is the irreducible
        # cubic lam^3 - 3 lam^2 - lam + 1; the default sweep meets cubic
        # flat-band polynomials by graph 20
        cubic = write_graph(tmp_path, "cubic.json", {
            "dimension": 1,
            "orbits": [{"id": "a", "potential": 1}, {"id": "b", "potential": 2},
                       {"id": "c", "potential": 0}],
            "edges": [{"from": "a", "to": "b", "offset": [1], "weight": 1},
                      {"from": "b", "to": "c", "offset": [-2], "weight": 1},
                      {"from": "c", "to": "a", "offset": [1], "weight": 1}],
        })
        commands = [["analyze", cubic], ["generic", cubic], ["polytope", lieb_json_path],
                    ["bands", lieb_json_path, "--resolution", "4"],
                    ["verify-theorem", "--count", "20"]]
        code = ("import contextlib, io, json, sys\n"
                "if sys.argv[1] == 'block':\n"
                "    sys.modules['sympy'] = None\n"
                "from flatbands.cli import main\n"
                "runs = []\n"
                "for argv in json.loads(sys.argv[2]):\n"
                "    out = io.StringIO()\n"
                "    with contextlib.redirect_stdout(out):\n"
                "        runs.append([main(argv), out.getvalue()])\n"
                "print(json.dumps([runs, 'sympy' in sys.modules]))")

        def child(mode):
            proc = subprocess.run([sys.executable, "-c", code, mode, json.dumps(commands)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            return json.loads(proc.stdout)

        runs, imported = child("allow")
        assert not imported
        assert child("block")[0] == runs
        assert [exit_code for exit_code, _ in runs] == [
            EXIT_FLAT_BAND, EXIT_FLAT_BAND, EXIT_OK, EXIT_OK, EXIT_OK]
        assert "lam^3 - 3*lam^2 - lam + 1" in runs[0][1]

    def test_analyze_takes_one_determinant(self, capsys, monkeypatch, lieb_json_path):
        calls = []
        kernel = laurent.det_leibniz

        def counted(matrix):
            calls.append(matrix.size)
            return kernel(matrix)

        monkeypatch.setattr(laurent, "det_leibniz", counted)
        code, _, _ = run_cli(capsys, "analyze", lieb_json_path)
        assert code == EXIT_FLAT_BAND
        assert calls == [3]

    @pytest.mark.parametrize("argv", [
        ("generic", "LIEB", "--trials", "4"),
        ("--json", "verify-theorem", "--count", "5"),
    ])
    def test_exact_commands_make_one_laurent_poly_per_dispersion(
            self, capsys, monkeypatch, lieb_json_path, argv):
        labelings = 4 if "generic" in argv else sum(map(_labelings_until_settled, range(5)))
        counts = {"matrices": 0, "polys": 0, "dispersions": 0, "permanents": 0,
                  "floquet": 0, "decoded": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LaurentMatrix, "__init__",
                            counting("matrices", LaurentMatrix.__init__))
        monkeypatch.setattr(LaurentPoly, "__init__", counting("polys", LaurentPoly.__init__))
        monkeypatch.setattr(LaurentPoly, "_from_terms", classmethod(
            counting("polys", LaurentPoly._from_terms.__func__)))
        monkeypatch.setattr(laurent, "det_packed",
                            counting("dispersions", laurent.det_packed))
        monkeypatch.setattr(FloquetMatrix, "__init__",
                            counting("floquet", FloquetMatrix.__init__))
        monkeypatch.setattr(laurent, "det_leibniz", counting("decoded", laurent.det_leibniz))
        monkeypatch.setattr(polytope, "support_leibniz",
                            counting("permanents", polytope.support_leibniz))
        argv = [lieb_json_path if a == "LIEB" else a for a in argv]
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        # the decisions stay in integers: each labeling is one integer
        # determinant, with no Floquet matrix and no Laurent polynomial
        # (4 trials of generic; for verify-theorem, each of the 5 graphs
        # up to its first labeling without a flat band, at most 5).
        # The generic support of each verify-theorem graph is one more run
        # of the same expander, as the permanent of the pattern.
        permanents = 0 if "generic" in argv else 5
        assert counts["permanents"] == permanents
        assert counts["dispersions"] == labelings + permanents
        assert counts["matrices"] == counts["polys"] == 0
        assert counts["floquet"] == counts["decoded"] == 0

    def test_polytope_fills_one_template(self, capsys, monkeypatch, lieb_json_path):
        # the generic support reads the template's keys alone; only the
        # representative labeling of the facial polynomials fills one
        fills = []
        fill = PackedTemplate.fill

        def counted(self, values):
            fills.append(len(values))
            return fill(self, values)

        monkeypatch.setattr(PackedTemplate, "fill", counted)
        code, _, _ = run_cli(capsys, "polytope", lieb_json_path)
        assert code == EXIT_OK
        assert fills == [3 + 4 + 1]

    def test_bands_builds_one_floquet_matrix(self, capsys, monkeypatch, lieb_json_path):
        builds = []
        init = FloquetMatrix.__init__

        def counted(self, graph, labeling):
            builds.append(graph.num_orbits)
            init(self, graph, labeling)

        monkeypatch.setattr(FloquetMatrix, "__init__", counted)
        code, out, _ = run_cli(capsys, "--json", "bands", lieb_json_path,
                               "--resolution", "4")
        assert code == EXIT_OK
        assert json.loads(out)["exact_crosscheck"][0]["consistent"] is True
        assert builds == [3]

    @pytest.mark.parametrize("command, matrices", [("bands", 0), ("analyze", 1)])
    def test_only_the_analyze_printout_builds_a_laurent_matrix(
            self, capsys, monkeypatch, lieb_json_path, command, matrices):
        # the band grid reads the pencil template; analyze prints L(z)
        builds = []
        init = LaurentMatrix.__init__

        def counted(self, entries):
            builds.append(command)
            init(self, entries)

        monkeypatch.setattr(LaurentMatrix, "__init__", counted)
        code, _, _ = run_cli(capsys, command, lieb_json_path)
        assert code in (EXIT_OK, EXIT_FLAT_BAND)
        assert len(builds) == matrices


def test_module_entry_point(lieb_json_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flatbands", "--json", "analyze", lieb_json_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_FLAT_BAND
    assert json.loads(proc.stdout)["command"] == "analyze"


def test_every_exported_name_resolves():
    missing = [name for name in flatbands.__all__ if not hasattr(flatbands, name)]
    assert missing == []
