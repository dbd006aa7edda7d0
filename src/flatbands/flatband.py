"""Exact flat-band detection and the orbit-deletion inheritance check.

A flat band of a labeled periodic graph is an energy lam0 with
(lam - lam0) dividing the dispersion polynomial.  Writing the dispersion
as a sum of z-monomials times univariate lam-polynomials, lam0 is a flat
band exactly when every one of those lam-polynomials vanishes at lam0,
so the flat-band set is the root set of their gcd.  Working with the gcd
keeps irrational and complex flat bands visible (as irreducible factors)
without ever leaving rational arithmetic.  The gcd itself runs on
primitive integer polynomials (`unipoly.gcd`); each rational root is
checked again by exact division of those integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import unipoly
from .floquet import dispersion_polynomial, induced_dispersion
from .graph import Labeling, PeriodicGraph
from .laurent import LaurentPoly, WeightVector
from .polytope import projected_face_normals, face_of
from .sampling import random_labeling, rng_for


@dataclass(frozen=True)
class IrreducibleFactor:
    """Monic factor of the flat-band polynomial with no rational root."""

    coefficients: tuple[Fraction, ...]
    multiplicity: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class FlatBandReport:
    """Flat-band polynomial g with its factorization over Q.

    ``rational_roots`` lists (energy, multiplicity) pairs sorted by
    energy; ``verified`` records, per root u/v of multiplicity m, that
    (v * lam - u)^m divides in Z[lam] every primitive integer slice p_a of
    the dispersion D = sum z^a p_a(lam), which holds exactly when it
    divides D (Gauss's lemma for the step from Q to Z).
    Irrational and complex flat bands show up in ``irreducible_factors``.
    These three are computed together on first access and cached, so a
    caller that only counts flat bands never factors g.
    """

    flatband_poly: tuple[Fraction, ...]
    dispersion: LaurentPoly = field(compare=False, repr=False)

    @property
    def flat_band_count(self) -> int:
        """Number of flat bands over C, counted with multiplicity."""
        return len(self.flatband_poly) - 1

    @property
    def has_flat_band(self) -> bool:
        return self.flat_band_count > 0

    @cached_property
    def _factored(self):
        roots, others = unipoly.factor_rational(self.flatband_poly)
        groups = _lam_groups(self.dispersion).values() if roots else ()
        slices = [_lam_polynomial_int(group) for group in groups]
        verified = []
        for root, multiplicity in roots:
            divisor = (-root.numerator, root.denominator)  # v * lam - u
            remaining = slices
            for _ in range(multiplicity):
                remaining = [unipoly._int_quotient(p, divisor) for p in remaining]
                if None in remaining:
                    break
            verified.append(None not in remaining)
        factors = tuple(
            IrreducibleFactor(coefficients=c, multiplicity=m) for c, m in others
        )
        return tuple(roots), factors, tuple(verified)

    @property
    def rational_roots(self) -> tuple[tuple[Fraction, int], ...]:
        return self._factored[0]

    @property
    def irreducible_factors(self) -> tuple[IrreducibleFactor, ...]:
        return self._factored[1]

    @property
    def verified(self) -> tuple[bool, ...]:
        return self._factored[2]


class InvariantError(ValueError):
    """A dispersion that breaks an invariant the determinant guarantees.

    A `ValueError` for library callers; the command line reports it as an
    internal error, since no input file can produce it.
    """


def _check_monic_in_lam(poly: LaurentPoly) -> int:
    terms = poly._terms
    degree = max((key[-1] for key in terms), default=-1)
    if degree < 1:
        raise InvariantError("dispersion must have positive lam degree")
    lead = (0,) * poly.dimension + (degree,)
    if abs(terms.get(lead, 0)) != 1 or any(
            key[-1] == degree for key in terms if key != lead):
        raise InvariantError("input is not monic (up to sign) in lam")
    return degree


def _lam_polynomial_int(coefficients: dict[int, Fraction]) -> tuple[int, ...]:
    """Primitive integer lam-polynomial from {lam exponent: coefficient}."""
    dense = [0] * (max(coefficients) + 1)
    for power, coeff in coefficients.items():
        dense[power] = coeff
    return unipoly.primitive_part(dense)


def _lam_groups(dispersion: LaurentPoly) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """The terms grouped by z-part: {z-part: {lam exponent: coefficient}}."""
    groups: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for key, coeff in dispersion.items():
        z_part = key[:-1]
        group = groups.get(z_part)
        if group is None:
            groups[z_part] = {key[-1]: coeff}
        else:
            group[key[-1]] = coeff
    return groups


def flat_bands(dispersion: LaurentPoly) -> FlatBandReport:
    """All energies whose linear factor divides the dispersion.

    The terms are grouped by z-part in one pass.  The gcd runs over the
    lam-polynomials of the groups in z-part order, each turned into a
    primitive integer polynomial only when the gcd reaches it, and exits
    early once the gcd collapses to 1.  The smallest z-part is a vertex of
    the support's z-projection; on random dispersions this order reached
    1 in fewer steps than lowest lam-degree first.  Factoring g, and the
    re-verification of every rational root on the integer slices, wait
    until the report's roots or factors are read.
    """
    degree = _check_monic_in_lam(dispersion)
    groups = _lam_groups(dispersion)
    g: tuple[Fraction, ...] = ()
    for z_part in sorted(groups):
        g = unipoly.gcd(g, _lam_polynomial_int(groups[z_part]))
        if len(g) == 1:
            break
    if not g:
        raise AssertionError("dispersion with no terms slipped through")
    if len(g) - 1 > degree:
        raise AssertionError("flat-band polynomial exceeds the lam degree")

    return FlatBandReport(flatband_poly=g, dispersion=dispersion)


def flat_bands_of(graph: PeriodicGraph, labeling: Labeling) -> FlatBandReport:
    return flat_bands(dispersion_polynomial(graph, labeling))


@dataclass(frozen=True)
class GenericFlatBandDecision:
    """Unanimous verdict over independent random labelings.

    ``has_flat_band`` is None when the trials disagreed, which flags an
    unlucky non-generic draw; rerun with a different seed.
    """

    has_flat_band: bool | None
    consistent: bool
    trials: int
    seed: int | str
    reports: tuple[FlatBandReport, ...]


def generic_flat_band_decision(graph: PeriodicGraph, trials: int = 5,
                               seed: int | str = 0
                               ) -> GenericFlatBandDecision:
    """Decide whether flat bands persist for random rational labelings."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    reports = []
    for t in range(trials):
        labeling = random_labeling(graph, rng_for(seed, "decision", t))
        reports.append(flat_bands_of(graph, labeling))
    answers = {report.has_flat_band for report in reports}
    consistent = len(answers) == 1
    return GenericFlatBandDecision(
        has_flat_band=answers.pop() if consistent else None,
        consistent=consistent,
        trials=trials,
        seed=seed,
        reports=tuple(reports),
    )


@dataclass(frozen=True)
class InheritanceResult:
    """Flat bands shared by the graph and one orbit-deleted subgraph."""

    deleted_orbit: int
    shared_roots: tuple[Fraction, ...]
    shared_poly: tuple[Fraction, ...]


def inheritance_check(graph: PeriodicGraph, labeling: Labeling, orbit: int
                      ) -> InheritanceResult:
    """Compare flat bands before and after deleting one orbit.

    Returns the rational flat-band energies common to both dispersions,
    plus the gcd of the two flat-band polynomials, whose nonlinear part
    captures shared irrational bands.
    """
    if graph.num_orbits < 2:
        raise ValueError("orbit deletion needs at least two orbits")
    if not 0 <= orbit < graph.num_orbits:
        raise ValueError(f"orbit {orbit} out of range")
    keep = [v for v in range(graph.num_orbits) if v != orbit]
    full = flat_bands(dispersion_polynomial(graph, labeling))
    reduced = flat_bands(induced_dispersion(graph, labeling, keep))
    reduced_roots = {root for root, _ in reduced.rational_roots}
    shared = tuple(root for root, _ in full.rational_roots if root in reduced_roots)
    return InheritanceResult(
        deleted_orbit=orbit,
        shared_roots=shared,
        shared_poly=unipoly.gcd(full.flatband_poly, reduced.flatband_poly),
    )


def vertical_segment_face_witness(graph: PeriodicGraph, labeling: Labeling
                                  ) -> tuple[WeightVector, LaurentPoly] | None:
    """Face of the dispersion support collapsing to one off-axis z-monomial.

    Preconditions: the labeling has a flat band and the graph has no
    support-zero fundamental domain (otherwise the question is empty or
    trivial).  Scans proper faces of the support through the z-projection
    and returns the first whose members all share one nonzero z-part; on
    such a face the facial polynomial reads z^a * p(lam).  p is one
    lam-slice of the dispersion, so the report's root check, which
    covers every slice, covers p too; a failed check raises.
    """
    from .graph import has_support_zero_domain

    dispersion = dispersion_polynomial(graph, labeling)
    report = flat_bands(dispersion)
    if not report.has_flat_band:
        raise ValueError("labeling has no flat band; nothing to witness")
    if has_support_zero_domain(graph):
        raise ValueError("graph has a support-zero fundamental domain")

    support = dispersion.support()
    z_parts = {p[:-1] for p in support}
    zero = (0,) * graph.dimension
    candidates = sorted(projected_face_normals(z_parts))
    for normal in candidates:
        w = normal + (0,)
        descriptor = face_of(support, w)
        member_z = {p[:-1] for p in descriptor.members}
        if len(member_z) != 1 or zero in member_z:
            continue
        if not all(report.verified):
            raise ArithmeticError("facial polynomial not divisible by every flat band")
        facial = LaurentPoly(
            dispersion.dimension,
            {key: dispersion.coefficient(key) for key in descriptor.members},
        )
        return WeightVector(w), facial
    return None
