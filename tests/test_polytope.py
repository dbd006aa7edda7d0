"""Exact hull geometry, vertical faces, and support containment checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands import polytope
from flatbands.floquet import FloquetMatrix
from flatbands.graph import PeriodicGraph
from flatbands.polytope import (
    _hull_cycle_2d,
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
from flatbands.sampling import random_labeling, rng_for

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


def test_extreme_points_square_with_interior():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
    assert extreme_points(pts) == {(0, 0), (2, 0), (0, 2), (2, 2)}


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


def test_generic_support_lieb(lieb_graph):
    estimate = generic_support(lieb_graph, trials=5, seed=0)
    assert estimate.points == LIEB_SUPPORT
    # reproducible: same seed, same estimate
    assert generic_support(lieb_graph, trials=5, seed=0).points == estimate.points
    with pytest.raises(ValueError):
        generic_support(lieb_graph, trials=0)


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
    assert face.sorted_members() == [(1, 0, 0), (1, 0, 1)]


def test_vertical_faces_lieb():
    faces = vertical_faces(LIEB_SUPPORT)
    assert len(faces) == 8
    by_normal = {f.normal.components: f for f in faces}
    # the face picked out by w = (1, 0, 0) collapses onto the z1^-1 column
    left = by_normal[(1, 0, 0)]
    assert left.min_value == -1
    assert left.members == {(-1, 0, 0), (-1, 0, 1)}
    assert all(f.min_value == -1 for f in faces)
    # output is sorted by normal
    assert [f.normal.components for f in faces] == sorted(
        f.normal.components for f in faces
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
        pts = generic_support(lieb_graph, trials=5, seed=0).points
        cases = {
            (1, 0, 0): 0,
            (-1, 0, 0): 0,
            (0, 1, 0): 1,
            (0, -1, 0): 1,
        }
        for w, expected in cases.items():
            witness = facial_independence_witness(
                lieb_graph, w, rng_for("witness", w), support_points=pts
            )
            assert witness == expected

    def test_rejects_nonzero_lam_weight(self, lieb_graph):
        with pytest.raises(ValueError):
            facial_independence_witness(lieb_graph, (1, 0, 1), random.Random(0))

    def test_rejects_whole_polytope(self, lieb_graph):
        pts = generic_support(lieb_graph, trials=5, seed=0).points
        with pytest.raises(ValueError):
            facial_independence_witness(
                lieb_graph, (0, 0, 0), random.Random(0), support_points=pts
            )

    def test_rejects_non_vertical_face(self):
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        pts = generic_support(g, trials=5, seed=0).points
        # w = (1, 0) picks the lone z^-1 corner, which has no vertical pair
        with pytest.raises(ValueError):
            facial_independence_witness(g, (1, 0), random.Random(0), support_points=pts)


def test_permutation_product(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    diag = permutation_product(matrix, [0, 1, 2])
    lam = -matrix.matrix[0][0].lam(2)
    assert diag == lam ** 3
    with pytest.raises(ValueError):
        permutation_product(matrix, [0, 0, 1])


def test_sigma_support_check_lieb(lieb_graph, lieb_labeling):
    estimate = generic_support(lieb_graph, trials=5, seed=0)
    for sigma in ([0, 1, 2], [1, 2, 0], [1, 0, 2], [2, 1, 0]):
        assert sigma_support_check(
            lieb_graph, lieb_labeling, sigma, estimate=estimate
        )


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


def _extreme_points_oracle(points):
    """Each point against all the others: one LP per point, no shortcuts."""
    pts = sorted(set(points))
    return frozenset(
        p for p in pts
        if not in_convex_hull(p, [q for q in pts if q != p])
    )


def _point_sets(dim):
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    return st.lists(coords, min_size=1, max_size=14)


@given(pts=st.integers(1, 4).flatmap(_point_sets))
@example(pts=[(2, 2, 2)] * 3)
@example(pts=[(0, 0), (1, 1), (2, 2), (3, 3)])
@example(pts=[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
@example(pts=sorted(LIEB_SUPPORT))
@settings(max_examples=200, deadline=None)
def test_extreme_points_matches_oracle(pts):
    assert extreme_points(pts) == _extreme_points_oracle(pts)


@given(pts=_point_sets(2))
@settings(max_examples=100, deadline=None)
def test_extreme_points_match_the_2d_hull_cycle(pts):
    assert extreme_points(pts) == frozenset(_hull_cycle_2d(pts))


def _count_lp_calls(monkeypatch):
    """Record (point, number of hull points) for each LP extreme_points runs."""
    calls = []
    lp = polytope.in_convex_hull

    def counting(point, points):
        points = list(points)
        calls.append((point, len(points)))
        return lp(point, points)

    monkeypatch.setattr(polytope, "in_convex_hull", counting)
    return calls


def test_grid_hull_runs_one_lp_per_corner(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    grid = [(x, y) for x in range(5) for y in range(5)]
    assert extreme_points(grid) == {(0, 0), (0, 4), (4, 0), (4, 4)}
    # every LP runs against the three other corners, not the whole grid
    assert sorted(n for _, n in calls) == [3, 3, 3, 3]


def test_box_hull_runs_one_lp_per_corner(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    box = [(x, y, z) for x in range(7) for y in range(6) for z in range(6)]
    corners = {(x, y, z) for x in (0, 6) for y in (0, 5) for z in (0, 5)}
    assert len(box) == 252
    assert extreme_points(box) == corners
    assert sorted(p for p, _ in calls) == sorted(corners)
    assert {n for _, n in calls} == {7}
