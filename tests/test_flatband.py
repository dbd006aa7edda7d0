"""Flat-band extraction, generic decisions, inheritance, face witnesses."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands import laurent, unipoly
from flatbands.flatband import (
    FlatBandReport,
    flat_bands,
    flat_bands_of,
    generic_flat_band_decision,
    inheritance_check,
    lam_slices_of,
    vertical_segment_face_witness,
)
from flatbands.floquet import FloquetMatrix, dispersion_polynomial
from flatbands.graph import Labeling, PeriodicGraph, canonicalize_edge
from flatbands.graphio import load_graph_file
from flatbands.laurent import LaurentPoly, det_bareiss, format_poly
from flatbands.sampling import random_labeling, random_periodic_graph, rng_for

from conftest import laurent_pencil

F = Fraction


def lam_polynomial_at(poly: LaurentPoly, z_part: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Ascending lam-coefficients multiplying one z-monomial (test oracle)."""
    out = [Fraction(0)] * (poly.lam_degree + 1)
    for key, coeff in poly.items():
        if key[:-1] == z_part:
            out[key[-1]] = coeff
    return unipoly.normalize(out)


def test_lam_polynomial_at(lieb_graph, lieb_labeling):
    d = dispersion_polynomial(lieb_graph, lieb_labeling)
    assert lam_polynomial_at(d, (0, 0)) == (F(0), F(4), F(0), F(-1))
    assert lam_polynomial_at(d, (1, 0)) == (F(0), F(1))
    assert lam_polynomial_at(d, (2, 2)) == ()


def test_lieb_flat_band(lieb_graph, lieb_labeling):
    report = flat_bands_of(lieb_graph, lieb_labeling)
    assert report.flatband_poly == (F(0), F(1))
    assert report.rational_roots == ((F(0), 1),)
    assert report.verified == (True,)
    assert report.irreducible_factors == ()
    assert report.flat_band_count == 1
    assert report.has_flat_band


def test_no_flat_band_for_single_chain():
    g = PeriodicGraph(1, 1, [(0, 0, (1,))])
    lab = Labeling(g, [0], {(0, 0, (1,)): 1})
    report = flat_bands_of(g, lab)
    assert report.flatband_poly == (F(1),)
    assert not report.has_flat_band
    assert report.rational_roots == ()


def test_momentum_free_graph_is_all_flat():
    # no offsets at all: every eigenvalue branch is constant in z
    g = PeriodicGraph(1, 2, [(0, 1, (0,))])
    lab = Labeling(g, [0, 1], {(0, 1, (0,)): 1})
    report = flat_bands_of(g, lab)
    # det = (0 - lam)(1 - lam) - 1 = lam^2 - lam - 1, irrational roots
    assert report.flatband_poly == (F(-1), F(-1), F(1))
    assert report.rational_roots == ()
    assert len(report.irreducible_factors) == 1
    factor = report.irreducible_factors[0]
    assert factor.coefficients == (F(-1), F(-1), F(1))
    assert factor.multiplicity == 1
    assert factor.degree == 2
    assert report.flat_band_count == 2


def test_repeated_flat_band_multiplicity():
    g = PeriodicGraph(1, 2)
    lab = Labeling(g, [3, 3], {})
    report = flat_bands_of(g, lab)
    assert report.rational_roots == ((F(3), 2),)
    assert report.verified == (True, )
    assert report.flat_band_count == 2


def test_factoring_waits_for_the_roots_and_runs_once(monkeypatch, lieb_graph,
                                                     lieb_labeling):
    calls = []
    factor = unipoly.factor_rational

    def counted(p):
        calls.append(p)
        return factor(p)

    monkeypatch.setattr(unipoly, "factor_rational", counted)
    report = flat_bands_of(lieb_graph, lieb_labeling)
    assert report.has_flat_band and report.flat_band_count == 1
    assert calls == []
    assert report.verified == (True,)
    assert report.rational_roots == ((F(0), 1),)
    assert report.irreducible_factors == ()
    assert calls == [(F(0), F(1))]


def test_divisibility_check_runs_when_roots_are_read(lieb_graph, lieb_labeling):
    # a report whose dispersion lacks the flat band fails the check
    report = flat_bands_of(lieb_graph, lieb_labeling)
    lam = LaurentPoly.lam(2)
    forged = type(report)(report.flatband_poly, lam_slices=lam_slices_of(lam - 1))
    assert forged == report
    assert forged.rational_roots == ((F(0), 1),)
    assert forged.verified == (False,)


@st.composite
def planted_root_dispersions(draw):
    """D = (lam - r)^k * q with q monic in lam up to sign, random z-terms."""
    d = draw(st.integers(1, 2))
    r = F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    lead = (0,) * d + (m,)
    terms = {lead: draw(st.sampled_from([-1, 1]))}
    if m:
        keys = st.tuples(*[st.integers(-2, 2)] * d, st.integers(0, m - 1))
        coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
        terms.update(draw(st.dictionaries(keys, coeffs, max_size=6)))
    lam = LaurentPoly.lam(d)
    poly = LaurentPoly(d, terms)
    for _ in range(k):
        poly = poly * (lam - r)
    return poly, r, k


@given(planted_root_dispersions())
@settings(max_examples=150, deadline=None)
def test_planted_root_is_verified(case):
    poly, r, k = case
    report = flat_bands(poly)
    assert report.verified and all(report.verified)
    assert dict(report.rational_roots)[r] >= k


def test_verification_divides_each_slice_by_the_full_multiplicity():
    # g claims (lam - 3)^2, but the z-slice carries (lam - 3) only once
    lam = LaurentPoly.lam(1)
    z = LaurentPoly.z_var(1, 0)
    dispersion = (lam - 3) * (lam - 3) + z * (lam - 3)
    forged = FlatBandReport((F(9), F(-6), F(1)), lam_slices=lam_slices_of(dispersion))
    assert forged.rational_roots == ((F(3), 2),)
    assert forged.verified == (False,)


def test_verification_reads_every_slice():
    # the middle z-part, in term order and in sorted order, lacks (lam - 3)
    dispersion = LaurentPoly(1, {
        (-1, 1): 1, (-1, 0): -3,
        (0, 2): 1, (0, 1): -2,
        (1, 1): 2, (1, 0): -6,
    })
    forged = FlatBandReport((F(-3), F(1)), lam_slices=lam_slices_of(dispersion))
    assert forged.rational_roots == ((F(3), 1),)
    assert forged.verified == (False,)


def test_flat_bands_rejects_non_monic():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    with pytest.raises(ValueError):
        flat_bands(z * lam - 1)  # lam-leading coefficient is z
    with pytest.raises(ValueError):
        flat_bands(LaurentPoly.constant(1, 2))


def test_flatband_poly_divides_every_slice():
    for trial in range(20):
        rng = rng_for("divides", trial)
        g = random_periodic_graph(rng)
        lab = random_labeling(g, rng)
        d = dispersion_polynomial(g, lab)
        report = flat_bands(d)
        g_poly = report.flatband_poly
        if unipoly.degree(g_poly) < 1:
            continue
        for z_part in {key[:-1] for key in d.support()}:
            _, rem = unipoly.divmod_exact(lam_polynomial_at(d, z_part), g_poly)
            assert rem == ()


@st.composite
def planted_labelings(draw):
    """n = 1..7 orbits in d = 1..3 with offsets in -2..2, self classes included.

    The last 0..3 orbits may form a planted refittable block: a component
    whose class offsets are differences s_j - s_i of orbit shifts, so
    that L(z) restricted to it is a constant matrix after a diagonal
    change of basis, and each of its eigenvalues is a flat band.  About
    half the potentials are 0; labels reach 10^20 over denominators up to
    10^12, and one labeling in five may carry zero weights.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    block = draw(st.integers(0, min(3, n)))
    free = n - block
    offset = st.tuples(*[st.integers(-2, 2)] * d)
    edges = set()
    if free:
        orbit = st.integers(0, free - 1)
        for i, j, a in draw(st.lists(st.tuples(orbit, orbit, offset), max_size=free + 2)):
            if i != j or any(a):
                edges.add(canonicalize_edge(i, j, a))
    if block:
        shifts = [draw(offset) for _ in range(block)]
        orbit = st.integers(0, block - 1)
        for i, j in draw(st.lists(st.tuples(orbit, orbit), max_size=block + 1)):
            if i != j:
                a = tuple(y - x for x, y in zip(shifts[i], shifts[j]))
                edges.add(canonicalize_edge(free + i, free + j, a))
    graph = PeriodicGraph(d, n, sorted(edges))
    label = (st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
             | st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**12)))
    allow_zero = draw(st.integers(0, 4)) == 0
    weight = label if allow_zero else label.filter(bool)
    potentials = [draw(st.just(0) | label) for _ in range(n)]
    weights = {edge: draw(weight) for edge in graph.sorted_edges()}
    return Labeling(graph, potentials, weights, allow_zero=allow_zero), block


# every orbit has the self class (m, .., m), so the determinant reaches
# z^(n*m, .., n*m) and z^-(n*m, .., n*m): packed keys b * B^d +- H, the
# ends of the range the lam digit (k + H) // B^d decodes
@example(case=(Labeling(PeriodicGraph(3, 1, [(0, 0, (2, 2, 2))]), [0],
                        {(0, 0, (2, 2, 2)): F(-7, 10**6)}), 0))
@example(case=(Labeling(PeriodicGraph(2, 3, [(0, 0, (2, 2)), (1, 1, (2, 2)), (2, 2, (2, 2)),
                                             (0, 1, (-2, 1)), (1, 2, (0, -2))]),
                        [F(10**20, 3), 0, F(-1, 10**12)],
                        {(0, 0, (2, 2)): 5, (1, 1, (2, 2)): F(-2, 7), (2, 2, (2, 2)): 10**15,
                         (0, 1, (-2, 1)): F(1, 99), (1, 2, (0, -2)): -1}), 0))
# a dispersive pair beside a planted three-orbit block with shifts
# (0, 0), (1, -1) and (2, 1)
@example(case=(Labeling(PeriodicGraph(2, 5, [(0, 1, (1, 0)), (0, 0, (0, 1)), (2, 3, (1, -1)),
                                             (3, 4, (1, 2)), (2, 4, (2, 1))]),
                        [F(3, 4), 0, F(-10**9, 7), 0, 2],
                        {(0, 1, (1, 0)): F(-5, 3), (0, 0, (0, 1)): 11, (2, 3, (1, -1)): F(1, 3),
                         (3, 4, (1, 2)): F(-10**12, 13), (2, 4, (2, 1)): 4}), 3))
@given(case=planted_labelings())
@settings(max_examples=120, deadline=None)
def test_integer_decision_matches_the_bareiss_oracle(case):
    labeling, block = case
    graph = labeling.graph
    report = flat_bands_of(graph, labeling)
    oracle = flat_bands(det_bareiss(laurent_pencil(FloquetMatrix(graph, labeling).matrix)))
    assert report.flatband_poly == oracle.flatband_poly
    assert report.flat_band_count >= block
    # each z-part's slice, decoded from the packed keys, is the oracle's
    # slice up to a constant
    assert (sorted(unipoly._int_primitive(p) for p in report.lam_slices)
            == sorted(oracle.lam_slices))
    assert report.rational_roots == oracle.rational_roots
    assert report.verified == oracle.verified
    assert all(report.verified)


@pytest.mark.parametrize("stray", ["doubled", "above the lead", "below the lead"])
def test_integer_decision_checks_the_lead_term(monkeypatch, lieb_graph, lieb_labeling, stray):
    # the lam-leading term must be (-1)^n over the pencil's denominator
    # and the only term of lam degree n
    expand = laurent.det_packed

    def broken(pencil):
        ints = dict(expand(pencil))
        lead = pencil.size * pencil.base ** pencil.dimension
        if stray == "doubled":
            return {key: 2 * value for key, value in ints.items()}
        ints[lead + 1 if stray == "above the lead" else lead - 1] = pencil.denominator
        return ints

    monkeypatch.setattr(laurent, "det_packed", broken)
    with pytest.raises(ArithmeticError, match="leading lam term"):
        flat_bands_of(lieb_graph, lieb_labeling)
    with pytest.raises(ArithmeticError, match="leading lam term"):
        generic_flat_band_decision(lieb_graph, trials=1)


def test_generic_decision_fills_one_template_per_draw():
    # one pencil template serves every trial; each report equals the one
    # from that trial's own labeling and dispersion
    for trial in range(30):
        g = random_periodic_graph(rng_for("reuse", trial), dims=(1, 2, 3),
                                  max_orbits=6, max_edges=10)
        decision = generic_flat_band_decision(g, trials=3, seed=trial)
        for t, report in enumerate(decision.reports):
            labeling = random_labeling(g, rng_for(trial, "decision", t))
            expected = flat_bands(dispersion_polynomial(g, labeling))
            assert report.flatband_poly == expected.flatband_poly


def test_generic_decision_lieb(lieb_graph):
    decision = generic_flat_band_decision(lieb_graph, trials=4, seed=11)
    assert decision.consistent
    assert decision.has_flat_band is False
    assert len(decision.reports) == 4
    assert all(not r.has_flat_band for r in decision.reports)


def test_generic_decision_flat_graph():
    g = PeriodicGraph(1, 2, [(0, 1, (0,))])
    decision = generic_flat_band_decision(g, trials=3, seed=0)
    assert decision.consistent
    assert decision.has_flat_band is True


def test_generic_decision_validates_trials(lieb_graph):
    with pytest.raises(ValueError):
        generic_flat_band_decision(lieb_graph, trials=0)


class TestInheritance:
    def test_lieb_band_is_not_inherited(self, lieb_graph, lieb_labeling):
        result = inheritance_check(lieb_graph, lieb_labeling, 0)
        assert result.deleted_orbit == 0
        assert result.shared_roots == ()
        assert result.shared_poly == (F(1),)

    def test_isolated_orbit_band_survives_deletion(self, lieb_graph):
        # Lieb plus a decoupled orbit at potential 0; deleting orbit 3
        # keeps the lam = 0 flat band of the Lieb part
        g = PeriodicGraph(2, 4, lieb_graph.sorted_edges())
        lab = Labeling(g, [0, 0, 0, 0], {e: 1 for e in g.sorted_edges()})
        result = inheritance_check(g, lab, 3)
        assert result.shared_roots == (F(0),)
        assert result.shared_poly == (F(0), F(1))

    def test_argument_validation(self, lieb_graph, lieb_labeling):
        with pytest.raises(ValueError):
            inheritance_check(lieb_graph, lieb_labeling, 5)
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        lab = Labeling(g, [0], {(0, 0, (1,)): 1})
        with pytest.raises(ValueError):
            inheritance_check(g, lab, 0)


class TestVerticalSegmentFaceWitness:
    def test_lieb_witness(self, lieb_graph, lieb_labeling):
        found = vertical_segment_face_witness(lieb_graph, lieb_labeling)
        assert found is not None
        normal, facial = found
        assert normal == (-1, 0, 0)
        assert format_poly(facial) == "z1*lam"

    def test_needs_a_flat_band(self):
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        lab = Labeling(g, [0], {(0, 0, (1,)): 1})
        with pytest.raises(ValueError):
            vertical_segment_face_witness(g, lab)

    def test_refuses_three_dimensions(self):
        # the 3-D Lieb lattice has a flat band and no support-zero domain,
        # but its faces lie past the d <= 2 enumeration
        path = Path(__file__).resolve().parent.parent / "sample_graphs" / "lieb3d.json"
        spec = load_graph_file(str(path))
        with pytest.raises(ValueError, match="supports d <= 2, got d = 3"):
            vertical_segment_face_witness(spec.graph, spec.labeling())

    def test_rejects_support_zero_domain(self):
        g = PeriodicGraph(1, 2, [(0, 1, (0,))])
        lab = Labeling(g, [0, 1], {(0, 1, (0,)): 1})
        with pytest.raises(ValueError):
            vertical_segment_face_witness(g, lab)


def test_edgeless_graph_with_a_thousand_orbits_has_a_flat_band_per_orbit():
    # a recursive minor expansion overflows the interpreter's stack here
    n = 1100
    graph = PeriodicGraph(1, n)
    report = flat_bands_of(graph, Labeling(graph, [0] * n, {}))
    assert report.flat_band_count == n
