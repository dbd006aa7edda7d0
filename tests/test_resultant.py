"""Ascending-layout Sylvester resultants and the cut-edge certificate.

The sign convention is pinned by the split-polynomial product formula:
for f with rational roots a_i and leading coefficient c, the determinant
equals (-1)^(deg f * deg g) * c^(deg g) * prod g(a_i).
"""

import random
from fractions import Fraction

import pytest

from flatbands import unipoly
from flatbands.floquet import dispersion_polynomial
from flatbands.graph import Labeling, PeriodicGraph
from flatbands.laurent import LaurentPoly
from flatbands.resultant import (
    cut_edge_certificate,
    evaluate_z,
    resultant,
    sylvester_matrix,
)

F = Fraction


def test_sylvester_layout_two_linears():
    assert sylvester_matrix((-3, 1), (-5, 1)) == (
        (F(-3), F(1)),
        (F(-5), F(1)),
    )
    assert resultant((-3, 1), (-5, 1)) == 2


def test_sylvester_layout_mixed_degrees():
    # f quadratic, g linear: one f-row, two staggered g-rows
    assert sylvester_matrix((2, 0, 1), (-1, 1)) == (
        (F(2), F(0), F(1)),
        (F(-1), F(1), F(0)),
        (F(0), F(-1), F(1)),
    )


def test_sylvester_needs_positive_degrees():
    with pytest.raises(ValueError):
        sylvester_matrix((1,), (0, 1))
    with pytest.raises(ValueError):
        sylvester_matrix((), (0, 1))


def test_resultant_frozen_values():
    assert resultant((-1, 0, 1), (-2, 1)) == 3
    assert resultant((-1, 0, 1), (-1, 1)) == 0
    assert resultant((-1, 0, 1), (1, 1)) == 0


def _random_coeffs(rng, degree):
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)]
    lead = F(0)
    while lead == 0:
        lead = F(rng.randint(-4, 4))
    return unipoly.normalize(coeffs + [lead])


@pytest.mark.parametrize("trial", range(30))
def test_product_formula(trial):
    rng = random.Random(f"resprod/{trial}")
    roots = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    lead = F(rng.choice([1, 2, -3]))
    f = (lead,)
    for a in roots:
        f = unipoly.mul(f, (-a, F(1)))
    g = _random_coeffs(rng, rng.randint(1, 3))
    s, t = unipoly.degree(f), unipoly.degree(g)
    expected = F((-1) ** (s * t)) * lead ** t
    for a in roots:
        expected *= unipoly.evaluate(g, a)
    assert resultant(f, g) == expected


@pytest.mark.parametrize("trial", range(20))
def test_antisymmetry_and_multiplicativity(trial):
    rng = random.Random(f"resmul/{trial}")
    f1 = _random_coeffs(rng, rng.randint(1, 3))
    f2 = _random_coeffs(rng, rng.randint(1, 3))
    g = _random_coeffs(rng, rng.randint(1, 3))
    s = unipoly.degree(f1)
    t = unipoly.degree(g)
    assert resultant(f1, g) == F((-1) ** (s * t)) * resultant(g, f1)
    assert resultant(unipoly.mul(f1, f2), g) == resultant(f1, g) * resultant(f2, g)
    assert resultant(g, unipoly.mul(f1, f2)) == resultant(g, f1) * resultant(g, f2)


@pytest.mark.parametrize("trial", range(20))
def test_zero_exactly_on_common_factor(trial):
    rng = random.Random(f"reszero/{trial}")
    f = _random_coeffs(rng, rng.randint(1, 3))
    g = _random_coeffs(rng, rng.randint(1, 3))
    shares = unipoly.degree(unipoly.gcd(f, g)) >= 1
    assert (resultant(f, g) == 0) == shares
    common = (F(-rng.randint(1, 4)), F(1))
    assert resultant(unipoly.mul(f, common), unipoly.mul(g, common)) == 0


def test_evaluate_z():
    poly = LaurentPoly(1, {(-1, 1): 1, (0, 0): 2})
    assert evaluate_z(poly, [F(1, 2)]) == (F(2), F(2))
    assert evaluate_z(poly, [2]) == (F(2), F(1, 2))
    with pytest.raises(ValueError):
        evaluate_z(poly, [0])
    with pytest.raises(ValueError):
        evaluate_z(poly, [1, 1])


@pytest.mark.parametrize("z0", [[0.5, 1], [1, True], [F(1, 2), 2.0]],
                         ids=["float", "bool", "fraction-and-float"])
def test_evaluate_z_refuses_floats_and_bools(z0):
    poly = LaurentPoly(2, {(1, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(TypeError, match=r"^(float|bool) momentum coordinates are not allowed; "
                                        r"use Fraction or int$"):
        evaluate_z(poly, z0)


@pytest.mark.parametrize("f, g", [([0.5, 1], [1, 1]), ([1, 1], [1, 1.0]),
                                  ([False, 1], [1, 1])],
                         ids=["float-f", "float-g", "bool"])
def test_resultant_refuses_floats_and_bools(f, g):
    with pytest.raises(TypeError, match="coefficients are not allowed"):
        resultant(f, g)


PATH_EDGES = [(0, 1, (1,)), (1, 2, (0,))]


def _path_labeling(graph):
    return Labeling(
        graph,
        [F(1, 2), F(-1), F(3, 4)],
        {(0, 1, (1,)): F(2), (1, 2, (0,)): F(1, 3)},
    )


def test_cut_edge_certificate_path():
    g = PeriodicGraph(1, 3, PATH_EDGES)
    cert = cut_edge_certificate(g, [1, 2], _path_labeling(g), (F(5),))
    assert cert == F(-16, 9)
    # tree quotients have momentum-free dispersions, so z0 is immaterial
    assert cut_edge_certificate(g, [1, 2], _path_labeling(g), (F(-1, 7),)) == F(-16, 9)


def test_cut_edge_certificate_vanishes_on_shared_energy():
    # uniform zero potential makes lam = 0 a common root on a 2-star
    g = PeriodicGraph(1, 3, [(0, 1, (0,)), (0, 2, (1,))])
    lab = Labeling(g, [0, 0, 0], {(0, 1, (0,)): 1, (0, 2, (1,)): 1})
    assert cut_edge_certificate(g, [1, 2], lab, (1,)) == 0


class TestCertificateHypotheses:
    def test_subset_size(self):
        g = PeriodicGraph(1, 3, PATH_EDGES)
        with pytest.raises(ValueError):
            cut_edge_certificate(g, [1], _path_labeling(g), (1,))

    def test_subset_must_be_support_zero(self):
        g = PeriodicGraph(1, 3, PATH_EDGES)
        with pytest.raises(ValueError):
            cut_edge_certificate(g, [0, 1], _path_labeling(g), (1,))

    def test_disconnected_quotient(self):
        g = PeriodicGraph(1, 3, [(1, 2, (0,))])
        lab = Labeling(g, [0, 0, 0], {(1, 2, (0,)): 1})
        with pytest.raises(ValueError):
            cut_edge_certificate(g, [1, 2], lab, (1,))

    def test_cycle_is_rejected(self):
        g = PeriodicGraph(1, 4, [(0, 1, (1,)), (1, 2, (0,)), (2, 3, (0,)), (1, 3, (0,))])
        lab = Labeling(g, [0, 0, 0, 0], {e: 1 for e in g.sorted_edges()})
        with pytest.raises(ValueError, match="non-bridge"):
            cut_edge_certificate(g, [1, 2, 3], lab, (1,))

    def test_parallel_classes_are_rejected(self):
        g = PeriodicGraph(1, 3, [(0, 1, (1,)), (0, 1, (2,)), (1, 2, (0,))])
        lab = Labeling(g, [0, 0, 0], {e: 1 for e in g.sorted_edges()})
        with pytest.raises(ValueError, match=r"non-bridge edge .*\(0, 1, \(2,\)\)"):
            cut_edge_certificate(g, [1, 2], lab, (1,))

    def test_self_class_is_rejected(self):
        g = PeriodicGraph(1, 3, [(0, 1, (0,)), (1, 2, (0,)), (0, 0, (1,))])
        lab = Labeling(g, [0, 0, 0], {e: 1 for e in g.sorted_edges()})
        with pytest.raises(ValueError, match="non-bridge"):
            cut_edge_certificate(g, [1, 2], lab, (1,))

    def test_zero_weight_is_rejected(self):
        g = PeriodicGraph(1, 3, PATH_EDGES)
        weights = {(0, 1, (1,)): F(1), (1, 2, (0,)): F(0)}
        lab = Labeling(g, [0, 0, 0], weights, allow_zero=True)
        with pytest.raises(ValueError, match="zero weight"):
            cut_edge_certificate(g, [1, 2], lab, (1,))

    def test_z0_validation(self):
        g = PeriodicGraph(1, 3, PATH_EDGES)
        with pytest.raises(ValueError):
            cut_edge_certificate(g, [1, 2], _path_labeling(g), (0,))
