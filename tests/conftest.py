"""Shared fixtures: the Lieb lattice in several forms."""

import json
import os
from pathlib import Path

import pytest

from flatbands.graph import Labeling, PeriodicGraph
from flatbands.laurent import LaurentMatrix, LaurentPoly

# Tests that start `python -m flatbands` need the same sources in the
# child interpreter, whether or not the package is installed.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)


def laurent_pencil(matrix: LaurentMatrix) -> LaurentMatrix:
    """L(z) - lam * I by Laurent arithmetic: ``e - lam`` on the diagonal."""
    lam = LaurentPoly.lam(matrix.dimension)
    return LaurentMatrix(
        [e - lam if i == j else e for j, e in enumerate(row)]
        for i, row in enumerate(matrix.entries)
    )


LIEB_EDGES = [
    (0, 1, (0, 0)),
    (1, 2, (0, 0)),
    (0, 1, (1, 0)),
    (2, 1, (0, 1)),  # canonicalizes to (1, 2, (0, -1))
]


@pytest.fixture
def lieb_graph() -> PeriodicGraph:
    return PeriodicGraph(2, 3, LIEB_EDGES)


@pytest.fixture
def lieb_labeling(lieb_graph) -> Labeling:
    weights = {edge: 1 for edge in lieb_graph.sorted_edges()}
    return Labeling(lieb_graph, [0, 0, 0], weights)


# the same lattice as a graph file document, with v = 0 and e = 1
LIEB_DOCUMENT = {
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


@pytest.fixture(scope="session")
def lieb_json_path(tmp_path_factory) -> str:
    """Fully labeled Lieb lattice file (v = 0, e = 1) for CLI runs."""
    path = tmp_path_factory.mktemp("graphs") / "lieb.json"
    path.write_text(json.dumps(LIEB_DOCUMENT))
    return str(path)
