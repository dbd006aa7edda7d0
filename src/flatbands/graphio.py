"""JSON graph files: parsing, validation, and round-trip serialization.

A graph file looks like::

    {
      "dimension": 2,
      "orbits": [
        {"id": "A", "potential": "0"},
        {"id": "B"}
      ],
      "edges": [
        {"from": "A", "to": "B", "offset": [0, 0], "weight": "1/2"}
      ]
    }

The dimension is at most MAX_DIMENSION.  Rationals are JSON integers or
strings like "-3/4"; floats are refused because the whole pipeline is
exact.  Orbit ids and the "from" and "to" of every edge are JSON
strings.  Potentials and weights may be omitted, which leaves them to
the caller (the CLI fills them randomly).
Orbits are 1-indexed toward the user only through their ids; internally
everything is 0-based in file order.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .graph import EdgeClass, Labeling, PeriodicGraph, canonicalize_edge
from .laurent import decimal_text


class GraphFormatError(ValueError):
    """Raised for structurally invalid graph files, with location context."""


# Fraction("1e<k>") builds 10**k, which for a huge k runs for hours.  The
# bound is the interpreter's default digit limit for int(str).
MAX_DECIMAL_EXPONENT = 4300

# Largest "dimension" a graph file may declare.  The packed exponent keys
# hold base ** k for every axis k <= d, so the exact layer grows about as
# d^2.  On a two-orbit file with three edge classes, `analyze`, `generic`
# and `polytope` each took 0.11 s at d = 1000 (start-up included),
# 0.14-0.21 s and 20 MB ru_maxrss at d = 4096, and 0.48-1.05 s and 34 MB
# at d = 10000, on a 2-vCPU host.
MAX_DIMENSION = 4096


def _exponent_out_of_range(text: str) -> bool:
    """Whether the decimal exponent of `text` exceeds MAX_DECIMAL_EXPONENT.

    Reads the digits after the "e" as a string, so an exponent of any
    length is judged without converting it to an int first.
    """
    _, marker, exponent = text.strip().lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not marker or not digits.isdecimal():
        return False
    return len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise GraphFormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise GraphFormatError(
            f"{where}: floats are not accepted; write the value as a string like \"3/10\""
        )
    if isinstance(value, str):
        if _exponent_out_of_range(value):
            raise GraphFormatError(
                f"{where}: decimal exponent beyond +/-{MAX_DECIMAL_EXPONENT} is not accepted"
            )
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"{where}: cannot parse rational {value!r}") from exc
    raise GraphFormatError(f"{where}: expected a rational, got {type(value).__name__}")


@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph file: structure plus whatever labels were present."""

    graph: PeriodicGraph
    orbit_ids: tuple[str, ...]
    potentials: dict[int, Fraction]
    weights: dict[EdgeClass, Fraction]

    @property
    def fully_labeled(self) -> bool:
        return (
            len(self.potentials) == self.graph.num_orbits
            and len(self.weights) == len(self.graph.edge_classes)
        )

    def labeling(self) -> Labeling:
        """The explicit labeling; requires every label to be present."""
        if not self.fully_labeled:
            missing_p = [
                self.orbit_ids[v]
                for v in range(self.graph.num_orbits)
                if v not in self.potentials
            ]
            missing_w = [e for e in self.graph.sorted_edges() if e not in self.weights]
            raise GraphFormatError(
                f"labels missing: potentials for {missing_p}, weights for {missing_w}"
            )
        pots = [self.potentials[v] for v in range(self.graph.num_orbits)]
        return Labeling(self.graph, pots, self.weights)


def _orbit_name(value, where: str) -> str:
    """An orbit id or edge end, which must be a JSON string."""
    if not isinstance(value, str):
        kind = ("null" if value is None else "a boolean" if isinstance(value, bool)
                else "a number" if isinstance(value, (int, float))
                else "an array" if isinstance(value, list) else "an object")
        raise GraphFormatError(f"{where} must be a string, got {kind}")
    return value


def parse_graph_spec(document: dict) -> GraphSpec:
    """Validate a decoded JSON document into a GraphSpec."""
    if not isinstance(document, dict):
        raise GraphFormatError("top level must be a JSON object")
    for field in ("dimension", "orbits"):
        if field not in document:
            raise GraphFormatError(f"missing required field {field!r}")
    unknown = set(document) - {"dimension", "orbits", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown top-level fields {sorted(unknown)}")

    dimension = document["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise GraphFormatError(f"dimension must be a positive integer, got {dimension!r}")
    if dimension > MAX_DIMENSION:
        raise GraphFormatError(f"dimension must be at most {MAX_DIMENSION}")

    orbits = document["orbits"]
    if not isinstance(orbits, list) or not orbits:
        raise GraphFormatError("orbits must be a nonempty list")
    ids: list[str] = []
    potentials: dict[int, Fraction] = {}
    for k, orbit in enumerate(orbits):
        where = f"orbits[{k}]"
        if not isinstance(orbit, dict):
            raise GraphFormatError(f"{where}: expected an object")
        if set(orbit) - {"id", "potential"}:
            raise GraphFormatError(f"{where}: unknown fields {sorted(set(orbit) - {'id', 'potential'})}")
        if "id" not in orbit:
            raise GraphFormatError(f"{where}: missing id")
        name = _orbit_name(orbit["id"], f"{where}.id")
        if name in ids:
            raise GraphFormatError(f"{where}: duplicate orbit id {name!r}")
        ids.append(name)
        if "potential" in orbit:
            potentials[k] = parse_rational(orbit["potential"], f"{where}.potential")
    index = {name: k for k, name in enumerate(ids)}

    edge_docs = document.get("edges", [])
    if not isinstance(edge_docs, list):
        raise GraphFormatError("edges must be a list")
    weights: dict[EdgeClass, Fraction] = {}
    edges: list[tuple[int, int, tuple[int, ...]]] = []
    seen: set[EdgeClass] = set()
    for k, edge in enumerate(edge_docs):
        where = f"edges[{k}]"
        if not isinstance(edge, dict):
            raise GraphFormatError(f"{where}: expected an object")
        if set(edge) - {"from", "to", "offset", "weight"}:
            raise GraphFormatError(
                f"{where}: unknown fields {sorted(set(edge) - {'from', 'to', 'offset', 'weight'})}"
            )
        for field in ("from", "to", "offset"):
            if field not in edge:
                raise GraphFormatError(f"{where}: missing {field!r}")
        for side in ("from", "to"):
            if _orbit_name(edge[side], f"{where}.{side}") not in index:
                raise GraphFormatError(f"{where}: unknown orbit id {edge[side]!r}")
        offset = edge["offset"]
        if (not isinstance(offset, list) or len(offset) != dimension
                or any(not isinstance(e, int) or isinstance(e, bool) for e in offset)):
            raise GraphFormatError(
                f"{where}: offset must be a list of {dimension} integers, got {offset!r}"
            )
        i, j = index[edge["from"]], index[edge["to"]]
        try:
            canonical = canonicalize_edge(i, j, offset)
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        if canonical in seen:
            raise GraphFormatError(
                f"{where}: duplicate edge class {canonical} after canonicalization"
            )
        seen.add(canonical)
        edges.append((i, j, tuple(offset)))
        if "weight" in edge:
            weights[canonical] = parse_rational(edge["weight"], f"{where}.weight")

    try:
        graph = PeriodicGraph(dimension, len(ids), edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    return GraphSpec(graph=graph, orbit_ids=tuple(ids), potentials=potentials,
                     weights=weights)


def load_graph_text(text: str) -> GraphSpec:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError("invalid JSON: nested too deeply to decode") from exc
    except ValueError as exc:
        # the decoder's int() refuses literals past the interpreter's limit
        raise GraphFormatError(f"invalid JSON: an integer has more than "
                               f"{sys.get_int_max_str_digits()} digits") from exc
    return parse_graph_spec(document)


def load_graph_file(path) -> GraphSpec:
    with open(path, encoding="utf-8") as handle:
        return load_graph_text(handle.read())


def _rational_out(value: Fraction):
    """A JSON-ready rational: an int where possible, else its text.

    Fractions come out as text, and so do ints past the interpreter's
    int -> str digit limit, since json.dumps and the text report both
    print ints with str().
    """
    if value.denominator == 1:
        # the limit counts decimal digits (none before Python 3.10.7);
        # 2^(3 L) < 10^L, so most ints pass on their bit length alone
        number = value.numerator
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if (not limit or number.bit_length() <= 3 * limit
                or abs(number) < 10 ** limit):
            return number
    return decimal_text(value)


def graph_to_document(graph: PeriodicGraph, orbit_ids=None,
                      labeling: Labeling | None = None) -> dict:
    """Serialize a graph (optionally labeled) back to the JSON layout.

    Feeding the result to parse_graph_spec reproduces the graph, which
    is how sweep disagreements are dumped for replay.
    """
    ids = list(orbit_ids) if orbit_ids else [str(v + 1) for v in range(graph.num_orbits)]
    if len(ids) != graph.num_orbits:
        raise ValueError("orbit_ids length mismatch")
    orbits = []
    for v, name in enumerate(ids):
        entry: dict = {"id": name}
        if labeling is not None:
            entry["potential"] = _rational_out(labeling.potentials[v])
        orbits.append(entry)
    edges = []
    for i, j, a in graph.sorted_edges():
        entry = {"from": ids[i], "to": ids[j], "offset": list(a)}
        if labeling is not None:
            entry["weight"] = _rational_out(labeling.weights[(i, j, a)])
        edges.append(entry)
    return {"dimension": graph.dimension, "orbits": orbits, "edges": edges}
