"""Floquet matrices and dispersion polynomials.

The Lieb lattice doubles as the main oracle: its determinant has a short
closed form that the tests rebuild directly from Laurent arithmetic,
independently of the matrix pipeline under test.  `_build_matrix`, the
entry-by-entry Laurent build, is the oracle of the packed build.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands import floquet
from flatbands.floquet import (
    FloquetMatrix,
    build_floquet,
    dispersion_polynomial,
    induced_dispersion,
    induced_operator,
)
from flatbands.graph import Labeling, PeriodicGraph, canonicalize_edge
from flatbands.laurent import LaurentMatrix, LaurentPoly, det_bareiss, format_poly
from flatbands.sampling import random_labeling, random_periodic_graph, rng_for


def lieb_closed_form(v, e):
    """det(L - lam) for the Lieb lattice, expanded by hand.

    v = (v1, v2, v3) potentials, e = (e1, e2, e3, e4) weights on the
    classes (1,2,[0,0]), (2,3,[0,0]), (1,2,[1,0]), (3,2,[0,1]).
    """
    z1 = LaurentPoly.z_var(2, 0)
    z2 = LaurentPoly.z_var(2, 1)
    z1i = LaurentPoly.z_var(2, 0, -1)
    z2i = LaurentPoly.z_var(2, 1, -1)
    lam = LaurentPoly.lam(2)
    d1 = LaurentPoly.constant(2, v[0]) - lam
    d2 = LaurentPoly.constant(2, v[1]) - lam
    d3 = LaurentPoly.constant(2, v[2]) - lam
    horiz = LaurentPoly.constant(2, e[0] * e[0] + e[2] * e[2]) + (z1 + z1i).scale(e[0] * e[2])
    vert = LaurentPoly.constant(2, e[1] * e[1] + e[3] * e[3]) + (z2 + z2i).scale(e[1] * e[3])
    return d1 * d2 * d3 - d1 * vert - d3 * horiz


def test_lieb_entries(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling).matrix
    entry = [[format_poly(p) for p in row] for row in matrix.entries]
    assert entry == [
        ["0", "1 + z1", "0"],
        ["z1^-1 + 1", "0", "z2^-1 + 1"],
        ["0", "1 + z2", "0"],
    ]


def test_lieb_uniform_dispersion(lieb_graph, lieb_labeling):
    d = dispersion_polynomial(lieb_graph, lieb_labeling)
    assert d.terms == {
        (0, 0, 3): Fraction(-1),
        (0, 0, 1): Fraction(4),
        (1, 0, 1): Fraction(1),
        (-1, 0, 1): Fraction(1),
        (0, 1, 1): Fraction(1),
        (0, -1, 1): Fraction(1),
    }
    assert d == lieb_closed_form((0, 0, 0), (1, 1, 1, 1))


def test_lieb_general_labels_match_closed_form(lieb_graph):
    v = (Fraction(1, 2), Fraction(-2), Fraction(3))
    e = (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5, 7))
    weights = {
        (0, 1, (0, 0)): e[0],
        (1, 2, (0, 0)): e[1],
        (0, 1, (1, 0)): e[2],
        (1, 2, (0, -1)): e[3],
    }
    labeling = Labeling(lieb_graph, v, weights)
    assert dispersion_polynomial(lieb_graph, labeling) == lieb_closed_form(v, e)


def test_single_orbit_chain():
    g = PeriodicGraph(1, 1, [(0, 0, (1,))])
    lab = Labeling(g, [Fraction(1, 3)], {(0, 0, (1,)): 2})
    d = dispersion_polynomial(g, lab)
    z = LaurentPoly.z_var(1, 0)
    zi = LaurentPoly.z_var(1, 0, -1)
    lam = LaurentPoly.lam(1)
    assert d == LaurentPoly.constant(1, Fraction(1, 3)) + (z + zi).scale(2) - lam


def test_self_class_lands_on_diagonal():
    g = PeriodicGraph(2, 2, [(0, 0, (1, 1)), (0, 1, (0, 0))])
    lab = Labeling(g, [0, 0], {(0, 0, (1, 1)): 3, (0, 1, (0, 0)): 1})
    m = build_floquet(g, lab).matrix
    assert m[0][0] == LaurentPoly(2, {(1, 1, 0): 3, (-1, -1, 0): 3})
    assert m[0][1] == LaurentPoly.constant(2, 1)
    assert m[1][1].is_zero


def test_dispersion_lam_leading_coefficient():
    for trial in range(15):
        rng = random.Random(f"lead/{trial}")
        g = random_periodic_graph(rng)
        lab = random_labeling(g, rng)
        d = dispersion_polynomial(g, lab)
        n = g.num_orbits
        assert d.lam_degree == n
        lead = d.lam_coefficient(n)
        assert lead == LaurentPoly.constant(g.dimension, (-1) ** n)


def test_dispersion_is_reversal_symmetric():
    # det is invariant under transposition, and L(1/z) is the transpose
    for trial in range(15):
        rng = rng_for("reversal", trial)
        g = random_periodic_graph(rng)
        lab = random_labeling(g, rng)
        d = dispersion_polynomial(g, lab)
        assert d.negate_z() == d


def test_induced_operator_and_dispersion(lieb_graph, lieb_labeling):
    sub = induced_operator(lieb_graph, lieb_labeling, [1, 2])
    assert sub.size == 2
    d = induced_dispersion(lieb_graph, lieb_labeling, [1, 2])
    assert format_poly(d) == "-z2^-1 - 2 - z2 + lam^2"


def test_induced_dispersion_multiplies_over_split(lieb_graph, lieb_labeling):
    left = induced_dispersion(lieb_graph, lieb_labeling, [0])
    right = induced_dispersion(lieb_graph, lieb_labeling, [2])
    both = induced_dispersion(lieb_graph, lieb_labeling, [0, 2])
    assert both == left * right


def test_dispersion_method_choice(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    assert matrix.dispersion(method="leibniz") == matrix.dispersion(method="bareiss")
    with pytest.raises(ValueError):
        matrix.dispersion(method="cofactor")


def _build_matrix(graph: PeriodicGraph, labeling: Labeling) -> LaurentMatrix:
    """L(z) from Laurent arithmetic: zero entries plus one monomial per class side."""
    d = graph.dimension
    n = graph.num_orbits
    rows = [
        [LaurentPoly.zero(d) for _ in range(n)]
        for _ in range(n)
    ]
    for v in range(n):
        rows[v][v] = LaurentPoly.constant(d, labeling.potentials[v])
    for i, j, a in graph.sorted_edges():
        w = labeling.weights[(i, j, a)]
        direct = LaurentPoly.monomial(d, a, 0, w)
        reverse = LaurentPoly.monomial(d, tuple(-e for e in a), 0, w)
        if i == j:
            rows[i][i] = rows[i][i] + direct + reverse
        else:
            rows[i][j] = rows[i][j] + direct
            rows[j][i] = rows[j][i] + reverse
    return LaurentMatrix(rows)


@st.composite
def labeled_graphs(draw):
    """n = 1..7 orbits in d = 1..3, self classes included, up to n + 2 classes.

    About half the potentials are zero; labels have denominators
    up to 10^6, and one labeling in five may carry zero weights.
    """
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    offset = st.tuples(*([st.integers(-2, 2)] * d))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), offset),
                        max_size=n + 2))
    edges = set()
    for i, j, a in raw:
        if i != j or any(a):
            edges.add(canonicalize_edge(i, j, a))
    graph = PeriodicGraph(d, n, sorted(edges))
    label = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    potentials = [draw(st.just(0) | label) for _ in range(n)]
    allow_zero = draw(st.integers(0, 4)) == 0
    weight = label if allow_zero else label.filter(bool)
    weights = {edge: draw(weight) for edge in graph.sorted_edges()}
    return Labeling(graph, potentials, weights, allow_zero=allow_zero)


@given(labeling=labeled_graphs())
@example(labeling=Labeling(PeriodicGraph(1, 1, [(0, 0, (1,))]), [0], {(0, 0, (1,)): 2}))
@example(labeling=Labeling(PeriodicGraph(2, 2, [(0, 0, (1, -1)), (0, 1, (0, 0))]),
                           [Fraction(1, 10**6), 0],
                           {(0, 0, (1, -1)): Fraction(-3, 7), (0, 1, (0, 0)): 0},
                           allow_zero=True))
@settings(max_examples=80, deadline=None)
def test_packed_build_matches_the_laurent_oracle(labeling):
    graph = labeling.graph
    oracle = _build_matrix(graph, labeling)
    matrix = FloquetMatrix(graph, labeling)
    assert matrix.matrix == oracle
    assert matrix.char_matrix() == oracle.minus_lam_identity()
    pencil = oracle.minus_lam_identity().entries
    assert matrix.dispersion() == det_bareiss(LaurentMatrix(pencil))


def test_laurent_matrices_wait_for_a_reader(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    matrix.dispersion()
    assert matrix._matrix is None
    assert matrix.matrix is matrix.matrix


def test_pencil_is_packed_on_the_first_dispersion(monkeypatch, lieb_graph, lieb_labeling):
    sizes = []
    pack = floquet.pack_rows

    def counted_pack(dimension, rows):
        sizes.append(len(rows))
        return pack(dimension, rows)

    monkeypatch.setattr(floquet, "pack_rows", counted_pack)
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    assert sizes == []
    first = matrix.dispersion()
    assert matrix.dispersion() is first
    assert sizes == [3]
