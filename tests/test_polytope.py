"""Exact hull geometry, vertical faces, and support containment checks."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands import floquet, laurent, polytope, sampling
from flatbands.flatband import flat_bands_of, vertical_segment_face_witness
from flatbands.floquet import FloquetMatrix, dispersion_polynomial
from flatbands.graph import (Labeling, PeriodicGraph, canonicalize_edge,
                             has_support_zero_domain)
from flatbands.laurent import PackedTemplate, determinant, facial_polynomial, support_leibniz
from flatbands.polytope import (
    _hull_cycle_2d,
    _minplus_permanent,
    extreme_points,
    face_of,
    facial_independence_witness,
    generic_support,
    hulls_equal,
    in_convex_hull,
    is_vertical_segment,
    minkowski_sum,
    newton_polytope_data,
    permutation_product,
    projected_face_normals,
    sigma_support_check,
    vertical_faces,
)
from flatbands.sampling import random_labeling, random_rational, rng_for

from conftest import LIEB_EDGES, pack_triples

LIEB_SUPPORT = {
    (0, 0, 3),
    (0, 0, 2),
    (0, 0, 1),
    (0, 0, 0),
    (1, 0, 1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, 1),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
}


def test_in_convex_hull_triangle():
    triangle = [(0, 0), (4, 0), (0, 4)]
    assert in_convex_hull((1, 1), triangle)
    assert in_convex_hull((0, 0), triangle)
    assert in_convex_hull((2, 2), triangle)  # midpoint of the long edge
    assert not in_convex_hull((3, 3), triangle)
    assert not in_convex_hull((-1, 0), triangle)


def test_in_convex_hull_degenerate_cases():
    assert in_convex_hull((1,), [(1,)])
    assert not in_convex_hull((2,), [(1,)])
    assert in_convex_hull((1, 2, 3), [(0, 0, 0), (2, 4, 6)])
    assert not in_convex_hull((1, 2, 4), [(0, 0, 0), (2, 4, 6)])


@pytest.mark.parametrize("point, points", [
    ((0.5, 0.5), [(0, 0), (1, 1)]),
    ((0, 0), [(0, 0.0), (1, 1)]),
    ((True, 0), [(0, 0), (2, 0)]),
    # equal to an int member: a set would merge these before any refusal
    ((True, 0), [(1, 0), (2, 0)]),
    ((0, 0), [(0.0, 0), (1, 1)]),
    ((1, 1), [(1, 1.0), (0, 0)]),
], ids=["float-query", "float-point", "bool-query", "bool-query-member",
        "float-point-member", "float-member-equals-query"])
def test_in_convex_hull_refuses_floats_and_bools(point, points):
    with pytest.raises(TypeError, match=r"^(float|bool) point coordinates are not allowed; "
                                        r"use Fraction or int$"):
        in_convex_hull(point, points)


def test_extreme_points_square_with_interior():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
    assert extreme_points(pts) == {(0, 0), (2, 0), (0, 2), (2, 2)}


@pytest.mark.parametrize("points", [
    [(0.5,), (1,), (0,)],
    [(0, 0), (1, 1.0), (2, 0)],
    [(True, 0), (0, 1), (0, 0)],
], ids=["float-midpoint", "float-vertex", "bool"])
def test_extreme_points_refuses_floats_and_bools(points):
    with pytest.raises(TypeError, match=r"^(float|bool) point coordinates are not allowed; "
                                        r"use Fraction or int$"):
        extreme_points(points)


def test_extreme_points_of_rational_points():
    # the midpoint pass packs each point into one number, which is
    # injective on ints only: unscaled, (3/2, 0) was taken for a midpoint
    pts = [(Fraction(1, 3), Fraction(1, 4)), (Fraction(1), Fraction(0)),
           (Fraction(3, 2), Fraction(0)), (Fraction(1, 2), Fraction(2, 3)),
           (Fraction(1, 2), Fraction(1, 3))]
    assert extreme_points(pts) == set(pts[:4])
    rng = random.Random(7)
    for _ in range(200):
        ints = {tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(rng.randint(1, 8))}
        k = rng.randint(2, 6)
        assert extreme_points([tuple(Fraction(x, k) for x in p) for p in ints]) == {
            tuple(Fraction(x, k) for x in v) for v in extreme_points(ints)}


def test_minkowski_sum_and_hull_equality():
    a = [(0, 0), (1, 0)]
    b = [(0, 0), (0, 1)]
    square = minkowski_sum(a, b)
    assert square == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert hulls_equal(square, list(square) + [(0, 0)])
    assert not hulls_equal(a, b)


def test_is_vertical_segment():
    assert is_vertical_segment({(0, 0, 0), (0, 0, 2)})
    assert not is_vertical_segment({(0, 0, 0), (1, 0, 1)})
    with pytest.raises(ValueError):
        is_vertical_segment(set())


def _sampled_support(graph, trials=5, seed=0):
    """Oracle: union of the dispersion supports of `trials` random labelings.

    A monomial whose coefficient is a nonzero polynomial in the labels
    survives some draw with overwhelming probability; trial t is
    reproducible from (seed, t) alone.
    """
    points = set()
    for t in range(trials):
        labeling = random_labeling(graph, rng_for(seed, "generic", t))
        points |= dispersion_polynomial(graph, labeling).support()
    return frozenset(points)


def test_generic_support_lieb(lieb_graph):
    support = generic_support(lieb_graph)
    assert support == LIEB_SUPPORT
    assert support == _sampled_support(lieb_graph)


def test_projected_normals_interval():
    assert projected_face_normals({(0,), (2,)}) == [(1,), (-1,)]
    assert projected_face_normals({(1,)}) == []


def test_projected_normals_collinear():
    normals = projected_face_normals({(0, 0), (1, 1), (2, 2)})
    assert sorted(normals) == [(-1, -1), (1, 1)]


def test_projected_normals_diamond():
    diamond = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    normals = projected_face_normals(diamond)
    assert len(normals) == 8
    assert sorted(normals) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
    ]


def test_face_of_reports_minimizers():
    pts = {(0, 0, 0), (1, 0, 1), (1, 0, 0)}
    face = face_of(pts, (-1, 0, 0))
    assert face.min_value == -1
    assert face.members == {(1, 0, 1), (1, 0, 0)}
    assert sorted(face.members) == [(1, 0, 0), (1, 0, 1)]


def test_vertical_faces_lieb():
    faces = vertical_faces(LIEB_SUPPORT)
    assert len(faces) == 8
    by_normal = {f.normal: f for f in faces}
    # the face picked out by w = (1, 0, 0) collapses onto the z1^-1 column
    left = by_normal[(1, 0, 0)]
    assert left.min_value == -1
    assert left.members == {(-1, 0, 0), (-1, 0, 1)}
    assert all(f.min_value == -1 for f in faces)
    # output is sorted by normal
    assert [f.normal for f in faces] == sorted(
        f.normal for f in faces
    )


def test_vertical_faces_rejects_segment_and_high_dimension():
    with pytest.raises(ValueError):
        vertical_faces({(0, 0, 0), (0, 0, 1)})
    with pytest.raises(ValueError):
        vertical_faces({(0, 0, 0, 0), (1, 1, 1, 1)})


def test_vertical_faces_needs_vertical_pair():
    # lam-degree 0 on the outer z-columns: faces exist but none vertical
    pts = {(0, 0, 0), (0, 0, 1), (1, 0, 0), (-1, 0, 0)}
    assert vertical_faces(pts) == []


def test_faces_come_from_one_lifted_scan():
    """Faces are plain integer data in ascending normal order, and the
    flat-band witness reads the same scan on the labeled support."""
    witnessed = 0
    for t in range(80):
        rng = rng_for("lifted faces", t)
        graph = sampling.random_periodic_graph(rng, dims=(1, 2))
        support = generic_support(graph)
        if is_vertical_segment(support):
            continue
        faces = vertical_faces(support)
        assert [f.normal for f in faces] == sorted(f.normal for f in faces)
        for face in faces:
            assert type(face.normal) is tuple
            assert all(type(e) is int for e in face.normal)
            assert face == face_of(support, face.normal)
        labeling = random_labeling(graph, rng)
        if has_support_zero_domain(graph) or not flat_bands_of(graph, labeling).has_flat_band:
            continue
        found = vertical_segment_face_witness(graph, labeling)
        if found is None:
            continue
        normal, facial = found
        assert type(normal) is tuple and normal[-1] == 0
        z_parts = {key[:-1] for key in facial.support()}
        assert len(z_parts) == 1 and (0,) * graph.dimension not in z_parts
        assert facial == facial_polynomial(dispersion_polynomial(graph, labeling), normal)
        witnessed += 1
    assert witnessed


def _refuse(*args):
    raise AssertionError("a refused helper ran")


@pytest.mark.parametrize("call", [
    lambda: extreme_points([(0, 0), (1,), (2, 2)]),
    lambda: in_convex_hull((1, 1), [(0,), (2, 2)]),
    lambda: vertical_faces([(0, 0), (1,), (0, 1)]),
    lambda: newton_polytope_data([(0, 0), (1,), (2, 2)]),
], ids=["extreme_points", "in_convex_hull", "vertical_faces", "newton_polytope_data"])
def test_mixed_point_lengths_are_rejected_before_any_lp(monkeypatch, call):
    for helper in ("_independent_rows", "_hull_cycle_2d", "_beneath_beyond"):
        monkeypatch.setattr(polytope, helper, _refuse)
    with pytest.raises(ValueError, match=r"mixed lengths \[1, 2\]"):
        call()


def test_newton_polytope_data_lieb(lieb_graph):
    data = newton_polytope_data(LIEB_SUPPORT)
    assert data.dimension == 3
    assert data.support_points == LIEB_SUPPORT
    assert data.hull_vertices == LIEB_SUPPORT - {(0, 0, 0), (0, 0, 1), (0, 0, 2)}
    assert len(data.face_descriptors) == 8


def test_newton_polytope_data_segment_and_high_d():
    assert newton_polytope_data({(0, 0), (0, 1)}).face_descriptors == ()
    assert newton_polytope_data({(0, 0, 0, 1), (1, 0, 0, 0)}).face_descriptors is None


class TestFacialIndependenceWitness:
    def test_lieb_witnesses(self, lieb_graph):
        pts = generic_support(lieb_graph)
        cases = {
            (1, 0, 0): 0,
            (-1, 0, 0): 0,
            (0, 1, 0): 1,
            (0, -1, 0): 1,
        }
        for w, expected in cases.items():
            witness = facial_independence_witness(lieb_graph, face_of(pts, w), support_points=pts)
            assert witness == expected

    def test_rejects_nonzero_lam_weight(self, lieb_graph):
        pts = generic_support(lieb_graph)
        with pytest.raises(ValueError):
            facial_independence_witness(lieb_graph, face_of(pts, (1, 0, 1)), support_points=pts)

    def test_rejects_whole_polytope(self, lieb_graph):
        pts = generic_support(lieb_graph)
        with pytest.raises(ValueError):
            facial_independence_witness(lieb_graph, face_of(pts, (0, 0, 0)), support_points=pts)

    def test_rejects_a_support_that_is_not_generic(self, lieb_graph):
        pts = generic_support(lieb_graph)
        # one vertical pair past the z1^-1 column, and that column removed
        wider = pts | {(-2, 0, 0), (-2, 0, 1)}
        narrower = pts - {(-1, 0, 0), (-1, 0, 1)}
        for support in (wider, narrower):
            with pytest.raises(ValueError, match="not the generic support"):
                facial_independence_witness(lieb_graph, face_of(support, (1, 0, 0)),
                                            support_points=support)

    def test_rejects_non_vertical_face(self):
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        pts = generic_support(g)
        # w = (1, 0) picks the lone z^-1 corner, which has no vertical pair
        with pytest.raises(ValueError):
            facial_independence_witness(g, face_of(pts, (1, 0)), support_points=pts)


def _two_sample_witness(graph, w, rng, support_points):
    """Oracle: compare the facial polynomial at two values of each potential.

    The other labels stay at one random draw; this is the full-dispersion
    test that the principal cofactor replaces.
    """
    members = face_of(set(support_points), w).members
    base = random_labeling(graph, rng)

    def facial_at(labeling):
        poly = dispersion_polynomial(graph, labeling)
        return {k: v for k, v in poly.items() if k in members}

    for orbit in range(graph.num_orbits):
        first = random_rational(rng)
        second = random_rational(rng)
        while second == first:
            second = random_rational(rng)
        samples = []
        for value in (first, second):
            pots = list(base.potentials)
            pots[orbit] = value
            samples.append(facial_at(Labeling(graph, pots, base.weights)))
        if samples[0] == samples[1]:
            return orbit
    return None


@st.composite
def _planted_graphs(draw, max_orbits, max_dimension):
    """Random classes plus a refittable block on n = 1..max_orbits orbits.

    The block's offsets are differences of per-orbit shifts, so it carries
    flat bands for every labeling and a vertical piece in the support.
    """
    d = draw(st.integers(1, max_dimension))
    n = draw(st.integers(1, max_orbits))
    block = draw(st.integers(0, n))
    core = n - block
    offsets = st.tuples(*[st.integers(-1, 1)] * d)
    edges = set()

    def add(i, j, a):
        if i != j or any(a):
            edges.add(canonicalize_edge(i, j, a))

    if core:
        orbit = st.integers(0, core - 1)
        for i, j, a in draw(st.lists(st.tuples(orbit, orbit, offsets), max_size=7)):
            add(i, j, a)
    shifts = draw(st.lists(offsets, min_size=block, max_size=block))
    for k in range(1, block):
        parent = draw(st.integers(0, k - 1))
        add(core + parent, core + k,
            tuple(b - a for a, b in zip(shifts[parent], shifts[k])))
    return PeriodicGraph(d, n, sorted(edges))


@given(graph=_planted_graphs(max_orbits=5, max_dimension=2))
@example(graph=PeriodicGraph(1, 1, [(0, 0, (1,))]))
@example(graph=PeriodicGraph(2, 3, [(0, 1, (0, 0)), (1, 2, (0, 0)),
                                    (0, 1, (1, 0)), (1, 2, (0, -1))]))
# a dispersive orbit beside a planted two-orbit block
@example(graph=PeriodicGraph(1, 3, [(0, 0, (1,)), (0, 1, (0,)), (1, 2, (1,))]))
@settings(max_examples=200, deadline=None)
def test_cofactor_witness_matches_two_sample_oracle(graph):
    pts = generic_support(graph)
    if is_vertical_segment(pts):
        return
    for k, face in enumerate(vertical_faces(pts)):
        w = face.normal
        got = facial_independence_witness(graph, face, support_points=pts)
        assert got == _two_sample_witness(graph, w, rng_for("witness", k), pts)


@given(graph=_planted_graphs(max_orbits=6, max_dimension=3))
# two orbits whose self classes have the same offset
@example(graph=PeriodicGraph(1, 2, [(0, 0, (1,)), (1, 1, (1,)), (0, 1, (0,))]))
# two classes between one pair of orbits
@example(graph=PeriodicGraph(2, 2, [(0, 1, (0, 0)), (0, 1, (1, 0))]))
# a 3-cycle with net offset 0: both orientations land on z^0
@example(graph=PeriodicGraph(1, 3, [(0, 1, (1,)), (1, 2, (1,)), (0, 2, (2,))]))
@example(graph=PeriodicGraph(1, 1, [(0, 0, (1,))]))
@example(graph=PeriodicGraph(2, 1, []))
@example(graph=PeriodicGraph(2, 3, LIEB_EDGES))
@settings(max_examples=200, deadline=None)
def test_generic_support_matches_sampled_labelings(graph):
    support = generic_support(graph)
    assert generic_support(floquet.PencilTemplate(graph)) == support
    assert support == _sampled_support(graph, trials=8, seed="support")
    # labels of 0 and +-1 cancel terms, but never add one outside the support
    rng = rng_for("support", "degenerate")
    for _ in range(4):
        labeling = Labeling(graph, [rng.choice((0, 1)) for _ in range(graph.num_orbits)],
                            {edge: rng.choice((-1, 1)) for edge in graph.sorted_edges()})
        assert dispersion_polynomial(graph, labeling).support() <= support


def test_cofactor_witness_on_one_orbit():
    # no generic support of a one-orbit graph has a vertical face, so the
    # 1 x 1 case is reached through hand-made supports
    g = PeriodicGraph(1, 1, [(0, 0, (1,))])
    for support, w, expected in (
        ({(0, 1), (0, 2), (1, 0)}, (1, 0), 0),
        ({(0, 0), (0, 1), (1, 0)}, (1, 0), None),
    ):
        got = facial_independence_witness(g, face_of(support, w), support_points=support)
        assert got == expected
        assert _two_sample_witness(g, w, random.Random(0), support) == expected


def test_witness_draws_no_labels_and_takes_no_determinant(monkeypatch, lieb_graph):
    pts = generic_support(lieb_graph)

    def forbidden(*args, **kwargs):
        raise AssertionError("the witness needs no labels, matrix or determinant")

    monkeypatch.setattr(FloquetMatrix, "__init__", forbidden)
    monkeypatch.setattr(laurent, "det_leibniz", forbidden)
    monkeypatch.setattr(laurent, "det_bareiss", forbidden)
    monkeypatch.setattr(sampling, "random_labeling", forbidden)
    witnesses = [facial_independence_witness(lieb_graph, face_of(pts, w), support_points=pts)
                 for w in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))]
    assert witnesses == [0, 0, 1, 1]


def _cofactor_rows(rows, v):
    """Pencil triples with row and column v deleted; later columns shift down.

    The third member of each triple (a coefficient or a label) is kept as it is.
    """
    return [[(col - (col > v), key, coeff) for col, key, coeff in row if col != v]
            for r, row in enumerate(rows) if r != v]


def _cofactor_witness(graph, w, support_points):
    """Oracle: the labeled principal-cofactor witness, one draw from a fixed rng.

    Orbit v is independent when no term of the determinant of the pencil
    without row and column v lies on the face; a draw can only cancel a
    cofactor term, never add one.
    """
    members = face_of(set(support_points), w).members
    base = random_labeling(graph, random.Random(0))
    n = graph.num_orbits
    if n == 1:
        return None if (0,) * len(w) in members else 0
    rows = floquet.PencilTemplate(graph).triples(base)
    for orbit in range(n):
        cofactor = determinant(pack_triples(graph.dimension, _cofactor_rows(rows, orbit)))
        if members.isdisjoint(cofactor.support()):
            return orbit
    return None


def _set_witness(graph, members):
    """Oracle: the first orbit whose cofactor pattern support misses the face."""
    # the unfilled rows: a labeled fill would drop every zero potential's term
    rows = floquet.PencilTemplate(graph).rows
    for orbit in range(graph.num_orbits):
        support = support_leibniz(PackedTemplate(graph.dimension, _cofactor_rows(rows, orbit)))
        if members.isdisjoint(support):
            return orbit
    return None


@given(graph=_planted_graphs(max_orbits=6, max_dimension=2))
# two classes between one pair of orbits, beside an isolated orbit
@example(graph=PeriodicGraph(1, 3, [(0, 1, (0,)), (0, 1, (1,))]))
@example(graph=PeriodicGraph(2, 4, [(0, 1, (0, 0)), (0, 1, (1, 1)), (1, 2, (1, 0)),
                                    (2, 2, (0, 1))]))
# self classes whose w'.a have opposite signs on the diagonal faces
@example(graph=PeriodicGraph(2, 3, [(0, 0, (1, 0)), (1, 1, (0, 1)), (0, 1, (0, 0)),
                                    (1, 2, (0, 0))]))
# an off-diagonal entry negative in both orientations
@example(graph=PeriodicGraph(1, 3, [(0, 1, (1,)), (0, 1, (-1,)), (1, 2, (0,))]))
@example(graph=PeriodicGraph(2, 3, LIEB_EDGES))
@settings(max_examples=200, deadline=None)
def test_minplus_witness_matches_the_cofactor_oracles(graph):
    pts = generic_support(graph)
    if is_vertical_segment(pts):
        return
    for face in vertical_faces(pts):
        w = face.normal
        got = facial_independence_witness(graph, face, support_points=pts)
        assert got == _set_witness(graph, face.members)
        assert got == _cofactor_witness(graph, w, pts)


def _brute_minplus(rows, mask):
    """Oracle: the least weight over every bijection of the rows onto the mask's columns."""
    columns = [col for col in range(mask.bit_length()) if mask >> col & 1]
    tables = [dict(row) for row in rows]
    costs = [sum(table[1 << col] for table, col in zip(tables, perm))
             for perm in itertools.permutations(columns)
             if all(1 << col in table for table, col in zip(tables, perm))]
    return min(costs, default=None)


@pytest.mark.parametrize("seed", range(40))
def test_minplus_permanent_matches_every_permutation(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [[(1 << col, rng.randint(-9, 9)) for col in range(n) if rng.random() < density]
            for _ in range(n)]
    full = (1 << n) - 1
    assert _minplus_permanent(rows, full) == _brute_minplus(rows, full)
    for v in range(n):
        cofactor = rows[:v] + rows[v + 1:]
        assert _minplus_permanent(cofactor, full ^ 1 << v) == _brute_minplus(cofactor, full ^ 1 << v)


def test_minplus_permanent_without_a_matching_is_none():
    # two rows that reach only column 0
    rows = [[(1, 4)], [(1, -2)], [(1, 0), (2, 1), (4, 1)]]
    assert _minplus_permanent(rows, 7) is None
    assert _brute_minplus(rows, 7) is None
    assert _minplus_permanent([], 0) == 0


def test_minplus_permanent_runs_a_thousand_rows_without_recursion():
    # the diagonal of an 1100-orbit edgeless graph: a recursive expansion
    # overflows the interpreter's stack long before the last row
    n = 1100
    rows = [[(1 << v, 0)] for v in range(n)]
    assert _minplus_permanent(rows, (1 << n) - 1) == 0
    assert _minplus_permanent(rows[1:], (1 << n) - 2) == 0


def test_permutation_product(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    diag = permutation_product(matrix, [0, 1, 2])
    lam = -matrix.matrix[0][0].lam(2)
    assert diag == lam * lam * lam
    with pytest.raises(ValueError):
        permutation_product(matrix, [0, 0, 1])


def test_signed_permutation_products_sum_to_the_dispersion(lieb_graph, lieb_labeling):
    # the Leibniz formula over the template's triples, -lam triple included
    cases = [(lieb_graph, lieb_labeling)]
    for t in range(150):
        rng = rng_for("leibniz-sum", t)
        graph = sampling.random_periodic_graph(rng)
        cases.append((graph, random_labeling(graph, rng)))
    for graph, labeling in cases:
        matrix = FloquetMatrix(graph, labeling)
        total = laurent.LaurentPoly.zero(graph.dimension)
        for sigma in itertools.permutations(range(graph.num_orbits)):
            term = permutation_product(matrix, sigma)
            odd = sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2
            total = total - term if odd else total + term
        assert total == matrix.dispersion()


def test_sigma_support_check_lieb(lieb_graph, lieb_labeling):
    for sigma in ([0, 1, 2], [1, 2, 0], [1, 0, 2], [2, 1, 0]):
        assert sigma_support_check(lieb_graph, lieb_labeling, sigma)


points_2d = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8
)


@given(pts=points_2d)
@settings(max_examples=50, deadline=None)
def test_extreme_points_preserve_hull(pts):
    assert hulls_equal(pts, extreme_points(pts))


@given(pts=points_2d)
@settings(max_examples=50, deadline=None)
def test_averages_stay_inside(pts):
    n = len(pts)
    centroid = tuple(Fraction(sum(p[k] for p in pts), n) for k in range(2))
    assert in_convex_hull(centroid, pts)


@given(a=points_2d, b=points_2d)
@settings(max_examples=50, deadline=None)
def test_minkowski_sum_commutes(a, b):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)


def _phase1_feasible(cols: list[tuple[Fraction, ...]], rhs: tuple[Fraction, ...]) -> bool:
    """Reference phase-1 simplex in Fractions, Bland's rule throughout.

    An independent oracle: `polytope.in_convex_hull` and
    `polytope.extreme_points` read membership off an integer hull, with no
    simplex, and the hull tests compare them with this one.
    """
    m = len(rhs)
    n = len(cols)
    table = [[cols[j][i] for j in range(n)] for i in range(m)]
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            b[i] = -b[i]
            table[i] = [-a for a in table[i]]
    for i in range(m):
        table[i].extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
    basis = list(range(n, n + m))

    while True:
        # reduced cost of column j under cost = 1 on artificials, 0 elsewhere
        entering = -1
        for j in range(n + m):
            if j in basis:
                continue
            cost = (Fraction(1) if j >= n else Fraction(0))
            for i in range(m):
                if basis[i] >= n:
                    cost -= table[i][j]
            if cost < 0:
                entering = j
                break  # Bland: first improving column
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(m):
            if table[i][entering] > 0:
                ratio = b[i] / table[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            # unbounded phase-1 cannot happen; defensive
            raise ArithmeticError("phase-1 simplex became unbounded")
        pivot = table[leaving][entering]
        table[leaving] = [a / pivot for a in table[leaving]]
        b[leaving] /= pivot
        for i in range(m):
            if i != leaving and table[i][entering]:
                factor = table[i][entering]
                table[i] = [a - factor * c for a, c in zip(table[i], table[leaving])]
                b[i] -= factor * b[leaving]
        basis[leaving] = entering

    artificial_load = sum(b[i] for i in range(m) if basis[i] >= n)
    return artificial_load == 0


def _fraction_in_hull(point, points):
    """Hull membership through the Fraction simplex `_phase1_feasible`."""
    cols = [tuple(Fraction(e) for e in q) + (Fraction(1),) for q in points]
    if not cols:
        return False
    return _phase1_feasible(cols, tuple(Fraction(e) for e in point) + (Fraction(1),))


def _extreme_points_oracle(points):
    """Each point against all the others: one Fraction LP per point, no shortcuts."""
    pts = sorted(set(points))
    return frozenset(
        p for p in pts
        if not _fraction_in_hull(p, [q for q in pts if q != p])
    )


def _hull_queries(dim):
    """A target and its members, which lie in a box or on a lower-rank flat.

    Members are ints, or each is divided by its own denominator.  Targets
    are box points, rational points, or the mean of a few members, which
    lies on the members' flat.
    """
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))

    def rational(pts):
        return st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)).map(
            lambda ks: [tuple(Fraction(x, k) for x in p) for p, k in zip(pts, ks)])

    def with_target(pts):
        mean = st.lists(st.sampled_from(pts), min_size=1, max_size=4).map(
            lambda qs: tuple(sum(axis, Fraction(0)) / len(qs) for axis in zip(*qs)))
        return st.tuples(coords | st.tuples(*[fractions] * dim) | mean, st.just(pts))

    members = st.lists(coords, min_size=1, max_size=10) | _flat_point_sets(dim, 10)
    return members.flatmap(lambda pts: st.just(pts) | rational(pts)).flatmap(with_target)


@given(query=st.integers(1, 4).flatmap(_hull_queries))
@example(query=((1, 1), [(0, 0), (1, 1), (2, 2), (3, 3)]))
@example(query=((1, 2), [(0, 0), (1, 1), (2, 2), (3, 3)]))
@example(query=((Fraction(3, 2),) * 2, [(0, 0), (1, 1), (2, 2), (3, 3)]))
@example(query=((Fraction(1, 2), Fraction(1, 3)), [(0, 0), (1, 1), (2, 2)]))
@example(query=((2, -1, 3), [(2, -1, 3)]))
@example(query=((Fraction(5, 2),), [(2,)]))
@example(query=((Fraction(1, 2),) * 3, [(1, 1, 1), (0, 0, 0), (1, 1, 1), (0, 0, 0)]))
@example(query=((0, 0, 0, 0), [(1, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0, 0)]))
# on a line in Z^3 and in a plane in Z^4, then rational members
@example(query=((Fraction(1, 2),) * 3, [(0, 0, 0), (2, 2, 2), (1, 1, 1)]))
@example(query=((Fraction(1, 2), Fraction(1, 2), 1, 0),
                [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 2, 0)]))
@example(query=((Fraction(1, 3),) * 2, [(Fraction(2, 3), Fraction(2, 3)), (0, 0)]))
@example(query=((Fraction(1, 2), 0), [(Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3))]))
@settings(max_examples=300, deadline=None)
def test_in_convex_hull_matches_fraction_simplex(query):
    point, pts = query
    assert in_convex_hull(point, pts) == _fraction_in_hull(point, pts)


def _point_sets(dim):
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    return st.lists(coords, min_size=1, max_size=14)


def _flat_point_sets(dim, max_size=14):
    """Points c + M t on a lattice flat of lower dimension than `dim`."""
    def embed(spec):
        rank, base, frame, params = spec
        return [tuple(b + sum(t * row[k] for t, row in zip(ts, frame[:rank]))
                      for k, b in enumerate(base)) for ts in params]
    vector = st.tuples(*[st.integers(-2, 2)] * dim)
    return st.tuples(
        st.integers(0, dim - 1), vector, st.lists(vector, min_size=dim, max_size=dim),
        st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=max_size),
    ).map(embed)


@given(pts=st.integers(1, 5).flatmap(lambda dim: _point_sets(dim) | _flat_point_sets(dim)))
@example(pts=[(2, 2, 2)] * 3)
# rank-deficient sets: collinear in Z^3, a slanted plane in Z^3, a 2-flat
# in Z^4, and a square with its edge midpoints
@example(pts=[(0, 0, 0), (1, 2, -1), (3, 6, -3), (-2, -4, 2), (5, 10, -5)])
@example(pts=[(0, 0, 0), (1, 0, 2), (0, 1, 3), (1, 1, 5), (2, 1, 7), (1, 2, 8), (3, 3, 15)])
@example(pts=[(0, 0, 0, 0), (1, 0, 1, 2), (0, 1, -1, 1), (1, 1, 0, 3), (2, 1, 1, 5),
              (3, 0, 3, 6), (0, 3, -3, 3)])
@example(pts=[(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (2, 1), (1, 2), (0, 1)])
# a cube with points inside an edge and inside a face, none a midpoint
@example(pts=[(x, y, z) for x in (0, 3) for y in (0, 3) for z in (0, 3)]
         + [(1, 0, 0), (0, 1, 2), (3, 2, 1)])
@example(pts=[(x, y, z, w) for x in (0, 3) for y in (0, 3) for z in (0, 3) for w in (0, 3)]
         + [(1, 0, 0, 0), (0, 1, 2, 0), (3, 3, 1, 2)])
@example(pts=[(0, 0), (1, 1), (2, 2), (3, 3)])
@example(pts=[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
@example(pts=sorted(LIEB_SUPPORT))
# reflections 2p - a that leave the bounding box on every axis: packed in
# base span + 1, (-7, 4) would read as the point (0, 3) of the first set;
# in base 2 * span, (-7, 1) would read as the point (1, 0) of the second
@example(pts=[(0, 3), (1, 0), (1, 3), (-3, 0), (-2, 2), (3, 0)])
@example(pts=[(-3, -1), (1, -3), (1, 0)])
@example(pts=[(40, -40, 0, 7), (-40, 40, 2, -5), (0, 0, 1, 1), (40, 40, 40, 40),
              (-40, -40, -40, -40), (0, 0, 0, 0), (-13, 27, -40, 40), (5, -3, 39, -38)])
@example(pts=[(7, -3, 2)])
@settings(max_examples=200, deadline=None)
def test_extreme_points_matches_oracle(pts):
    assert extreme_points(pts) == _extreme_points_oracle(pts)


@given(pts=_point_sets(2))
@settings(max_examples=100, deadline=None)
def test_extreme_points_match_the_2d_hull_cycle(pts):
    assert extreme_points(pts) == frozenset(_hull_cycle_2d(pts))


@pytest.mark.parametrize("points, vertices", [
    ([(x, y) for x in range(5) for y in range(5)], {(0, 0), (0, 4), (4, 0), (4, 4)}),
    ([(x, y, z) for x in range(7) for y in range(6) for z in range(6)],
     {(x, y, z) for x in (0, 6) for y in (0, 5) for z in (0, 5)}),
    (sorted(LIEB_SUPPORT), LIEB_SUPPORT - {(0, 0, 0), (0, 0, 1), (0, 0, 2)}),
], ids=["grid", "box", "lieb"])
def test_extreme_points_run_no_lp(monkeypatch, points, vertices):
    # in_convex_hull calls extreme_points, never the other way round
    monkeypatch.setattr(polytope, "in_convex_hull", _refuse)
    assert extreme_points(points) == vertices


def test_extreme_points_of_a_dense_3d_support():
    # four orbits in d = 3, every pair joined three times, a self class on
    # each orbit: a generic support of hundreds of points in Z^4
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
             (1, -1, 0), (0, 1, -1)]
    pairs = list(itertools.combinations(range(4), 2))
    edges = [(i, j, units[(i + 2 * j + k) % len(units)]) for i, j in pairs for k in range(2)]
    edges += [(i, j, (0, 0, 0)) for i, j in pairs]
    edges += [(i, i, units[i]) for i in range(4)]
    support = generic_support(PeriodicGraph(3, 4, edges))
    assert len(support) == 295
    vertices = extreme_points(support)
    ordered = sorted(vertices)
    # when this digest was taken, the Fraction simplex confirmed all 295
    # points against these 61 vertices (about 10 s, too slow to repeat)
    assert len(ordered) == 61
    assert hashlib.sha256(repr(ordered).encode()).hexdigest() == (
        "9e237e9323880bf658c6880af6399928fbecb8c1454fdeb2a76007f15ad9ca26")
    # and a seeded sample checked again against the Fraction simplex
    rng = random.Random(3)
    for v in rng.sample(ordered, 8):
        assert not _fraction_in_hull(v, [q for q in ordered if q != v])
    for p in rng.sample(sorted(support - vertices), 8):
        assert _fraction_in_hull(p, ordered)


def test_beneath_beyond_scrambles_sorted_input(monkeypatch):
    # sorted input is its worst order: in sorted order these points built
    # 9914 facets on the way to the hull, and about 1000 in a fixed
    # scrambled order
    built = []
    init = polytope._Facet.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(polytope._Facet, "__init__", counted)
    rng = random.Random(1)
    points = [tuple(rng.randint(-1000, 1000) for _ in range(3)) for _ in range(1500)]
    ordered = sorted(extreme_points(points))
    assert len(built) < 2500
    # the 86 vertices the sorted insertion order found
    assert len(ordered) == 86
    assert hashlib.sha256(repr(ordered).encode()).hexdigest() == (
        "8c6624a264d1244d545526530596dcb11a4ea2b4694f8b9f26c36a36fb0c26e3")
