"""Graph file parsing, validation errors, and round-trip serialization."""

import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands.graph import PeriodicGraph
from flatbands.graphio import (
    MAX_DIMENSION,
    GraphFormatError,
    GraphSpec,
    graph_to_document,
    load_graph_file,
    load_graph_text,
    parse_graph_spec,
    parse_rational,
)

from conftest import LIEB_EDGES


def lieb_document():
    return {
        "dimension": 2,
        "orbits": [
            {"id": "1", "potential": 0},
            {"id": "2", "potential": 0},
            {"id": "3", "potential": 0},
        ],
        "edges": [
            {"from": "1", "to": "2", "offset": [0, 0], "weight": 1},
            {"from": "2", "to": "3", "offset": [0, 0], "weight": 1},
            {"from": "1", "to": "2", "offset": [1, 0], "weight": 1},
            {"from": "3", "to": "2", "offset": [0, 1], "weight": 1},
        ],
    }


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational(3, "x") == 3
        assert parse_rational("-3/4", "x") == Fraction(-3, 4)
        assert parse_rational(" 7 ", "x") == 7

    @pytest.mark.parametrize("bad", [True, 0.5, "1/0", "abc", None, [1]])
    def test_rejected_forms(self, bad):
        with pytest.raises(GraphFormatError):
            parse_rational(bad, "x")

    def test_decimal_exponents(self):
        assert parse_rational("2.5e-3", "x") == Fraction(1, 400)
        assert parse_rational("1e3", "x") == 1000
        assert parse_rational("1E+4300", "x") == 10 ** 4300

    @pytest.mark.parametrize("huge", [
        "1e1000000000", "1e-1000000000", "1e" + "9" * 5000, "1E+4301", " 3.5e-4301 ",
    ])
    def test_huge_exponent_is_refused_promptly(self, huge):
        start = time.perf_counter()
        with pytest.raises(GraphFormatError, match="exponent"):
            parse_rational(huge, "x")
        assert time.perf_counter() - start < 0.1


def test_parse_lieb(lieb_graph):
    spec = parse_graph_spec(lieb_document())
    assert spec.graph == lieb_graph
    assert spec.orbit_ids == ("1", "2", "3")
    assert spec.fully_labeled
    labeling = spec.labeling()
    assert labeling.potentials == (0, 0, 0)
    assert all(w == 1 for w in labeling.weights.values())


def test_unlabeled_spec():
    doc = lieb_document()
    for orbit in doc["orbits"]:
        del orbit["potential"]
    doc["edges"][0].pop("weight")
    spec = parse_graph_spec(doc)
    assert not spec.fully_labeled
    with pytest.raises(GraphFormatError, match="labels missing"):
        spec.labeling()


def test_partial_labels_are_kept():
    doc = lieb_document()
    doc["orbits"][1]["potential"] = "5/2"
    del doc["orbits"][2]["potential"]
    spec = parse_graph_spec(doc)
    assert spec.potentials == {0: 0, 1: Fraction(5, 2)}


def test_round_trip_labeled(lieb_graph, lieb_labeling):
    doc = graph_to_document(lieb_graph, ("a", "b", "c"), lieb_labeling)
    spec = parse_graph_spec(doc)
    assert spec.graph == lieb_graph
    assert spec.orbit_ids == ("a", "b", "c")
    relab = spec.labeling()
    assert relab.potentials == lieb_labeling.potentials
    assert relab.weights == lieb_labeling.weights
    # and the serialization itself is stable
    assert graph_to_document(spec.graph, spec.orbit_ids, relab) == doc


def test_round_trip_default_ids():
    g = PeriodicGraph(1, 2, [(0, 1, (1,))])
    doc = graph_to_document(g)
    assert [o["id"] for o in doc["orbits"]] == ["1", "2"]
    assert "potential" not in doc["orbits"][0]
    assert parse_graph_spec(doc).graph == g


def test_document_rational_rendering(lieb_graph):
    from flatbands.graph import Labeling

    lab = Labeling(lieb_graph, [Fraction(1, 2), 0, -2],
                   {e: Fraction(3) for e in LIEB_EDGES})
    doc = graph_to_document(lieb_graph, labeling=lab)
    assert doc["orbits"][0]["potential"] == "1/2"
    assert doc["orbits"][2]["potential"] == -2
    assert doc["edges"][0]["weight"] == 3


def test_graph_to_document_id_mismatch(lieb_graph):
    with pytest.raises(ValueError, match="orbit_ids"):
        graph_to_document(lieb_graph, ("only-one",))


def test_load_graph_file(lieb_json_path, lieb_graph):
    spec = load_graph_file(lieb_json_path)
    assert spec.graph == lieb_graph
    assert spec.fully_labeled


def test_load_graph_text_bad_json():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        load_graph_text("{not json")


@pytest.mark.parametrize("text", ["[" * 200000, '{"a": ' * 200000], ids=["array", "object"])
def test_load_graph_text_deeply_nested_json(text):
    # the decoder recurses once per level and runs out of stack
    with pytest.raises(GraphFormatError, match="invalid JSON: nested too deeply"):
        load_graph_text(text)


@pytest.mark.parametrize("text", [
    '{"dimension": 1, "orbits": [{"id": "A", "potential": 1%s}]}' % ("0" * 4999),
    '{"dimension": 1%s, "orbits": [{"id": "A"}]}' % ("0" * 4999),
], ids=["potential", "dimension"])
def test_load_graph_text_integer_past_the_digit_limit(text):
    # the decoder's own message tells the user to call a Python function
    limit = sys.get_int_max_str_digits()
    with pytest.raises(GraphFormatError,
                       match=rf"^invalid JSON: an integer has more than {limit} digits$"):
        load_graph_text(text)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.pop("dimension"), "missing required field"),
        (lambda d: d.pop("orbits"), "missing required field"),
        (lambda d: d.update(extra=1), "unknown top-level"),
        (lambda d: d.update(dimension=0), "dimension"),
        (lambda d: d.update(dimension=True), "dimension"),
        (lambda d: d.update(dimension="2"), "dimension"),
        (lambda d: d.update(dimension=2 ** 70), "dimension must be at most"),
        (lambda d: d.update(orbits=[]), "orbits"),
        (lambda d: d.update(orbits="nope"), "orbits"),
        (lambda d: d["orbits"].append("nope"), "expected an object"),
        (lambda d: d["orbits"][0].update(color="red"), "unknown fields"),
        (lambda d: d["orbits"][0].pop("id"), "missing id"),
        (lambda d: d["orbits"][1].update(id="1"), "duplicate orbit id"),
        (lambda d: d["edges"][0].update(label="x"), "unknown fields"),
        (lambda d: d["edges"][0].pop("offset"), "missing 'offset'"),
        (lambda d: d["edges"][0].update({"from": "9"}), "unknown orbit id"),
        (lambda d: d["edges"][0].update(offset=[0]), "offset must be"),
        (lambda d: d["edges"][0].update(offset=[0, 0.5]), "offset must be"),
        (lambda d: d["edges"][0].update(offset=[0, True]), "offset must be"),
        (lambda d: d["edges"][0].update(offset=(0, 0)), "offset must be"),
        (lambda d: d["edges"].append(
            {"from": "1", "to": "1", "offset": [0, 0]}), "loop edge"),
        (lambda d: d["edges"].append(
            {"from": "2", "to": "1", "offset": [0, 0]}), "duplicate edge class"),
        (lambda d: d.update(edges=5), "edges must be a list"),
        (lambda d: d.update(edges="nope"), "edges must be a list"),
        (lambda d: d.update(edges={"from": "1"}), "edges must be a list"),
        (lambda d: d.update(dimension=MAX_DIMENSION + 1), f"at most {MAX_DIMENSION}$"),
    ],
)
def test_parse_errors(mangle, message):
    doc = lieb_document()
    mangle(doc)
    with pytest.raises(GraphFormatError, match=message):
        parse_graph_spec(doc)


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d["orbits"][0].update(id=None), r"^orbits\[0\]\.id must be a string, got null$"),
    (lambda d: d["orbits"][1].update(id=True), r"^orbits\[1\]\.id must be a string, got a boolean$"),
    (lambda d: d["orbits"][2].update(id=1.5), r"^orbits\[2\]\.id must be a string, got a number$"),
    (lambda d: d["orbits"][0].update(id=[[["1"]]]), r"^orbits\[0\]\.id must be a string, got an array$"),
    (lambda d: d["orbits"][0].update(id={"name": "1"}),
     r"^orbits\[0\]\.id must be a string, got an object$"),
    (lambda d: d["edges"][0].update({"from": 1}), r"^edges\[0\]\.from must be a string, got a number$"),
    (lambda d: d["edges"][3].update(to=None), r"^edges\[3\]\.to must be a string, got null$"),
], ids=["null-id", "bool-id", "number-id", "array-id", "object-id", "number-from", "null-to"])
def test_ids_and_edge_ends_must_be_strings(mangle, message):
    doc = lieb_document()
    mangle(doc)
    with pytest.raises(GraphFormatError, match=message):
        parse_graph_spec(doc)


def test_top_level_must_be_object():
    with pytest.raises(GraphFormatError, match="top level"):
        parse_graph_spec([1, 2, 3])


def test_json_ready(tmp_path):
    """graph_to_document output survives an actual json.dumps round trip."""
    g = PeriodicGraph(2, 3, LIEB_EDGES)
    doc = graph_to_document(g)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert load_graph_file(path).graph == g


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# Near-valid documents, so the fuzzing reaches the orbit and edge checks.
ORBIT_IDS = st.sampled_from(["1", "2", "3"])
ORBIT = st.fixed_dictionaries(
    {"id": ORBIT_IDS}, optional={"potential": st.integers(-2, 2) | JSON_VALUES}
)
EDGE = st.fixed_dictionaries(
    {
        "from": ORBIT_IDS | JSON_VALUES,
        "to": ORBIT_IDS,
        "offset": st.lists(st.integers(-2, 2), min_size=1, max_size=2) | JSON_VALUES,
    },
    optional={"weight": st.integers(-2, 2) | JSON_VALUES},
)
GRAPH_LIKE = st.fixed_dictionaries(
    {
        "dimension": st.integers(1, 2) | JSON_VALUES,
        "orbits": st.lists(ORBIT, min_size=1, max_size=3, unique_by=lambda o: o["id"])
        | JSON_VALUES,
        "edges": st.lists(EDGE | JSON_VALUES, max_size=4) | JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | GRAPH_LIKE)
@example({"dimension": 1, "orbits": [{"id": "1"}], "edges": 5})
@example({"dimension": 1, "orbits": [{"id": "1"}], "edges": None})
def test_any_json_value_parses_or_raises_format_error(document):
    try:
        spec = parse_graph_spec(document)
    except GraphFormatError:
        return
    assert isinstance(spec, GraphSpec)
