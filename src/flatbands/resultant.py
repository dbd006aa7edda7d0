"""Sylvester resultants and the cut-edge quotient-graph certificate.

The Sylvester matrix here lists coefficients in ascending order: for
f = a_0 + .. + a_s x^s and g = b_0 + .. + b_t x^t it stacks t shifted
copies of the a-row over s shifted copies of the b-row.  Its determinant
equals the classical resultant with the arguments swapped, that is
(-1)^(s*t) * Res(f, g), so it vanishes exactly when f and g share a
factor and is still multiplicative in each slot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import unipoly
from .floquet import dispersion_polynomial, induced_dispersion
from .graph import Labeling, PeriodicGraph, _union_find, is_support_zero
from .laurent import _coerce, _evaluate
from .unipoly import Coeffs


def sylvester_matrix(f: Sequence, g: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """The (s+t) x (s+t) matrix of shifted coefficient rows, a-rows first."""
    fc = unipoly.normalize(f)
    gc = unipoly.normalize(g)
    s, t = unipoly.degree(fc), unipoly.degree(gc)
    if s < 1 or t < 1:
        raise ValueError("resultant needs two polynomials of positive degree")
    size = s + t
    rows = []
    for r in range(t):
        row = [Fraction(0)] * size
        for k, c in enumerate(fc):
            row[r + k] = c
        rows.append(tuple(row))
    for r in range(s):
        row = [Fraction(0)] * size
        for k, c in enumerate(gc):
            row[r + k] = c
        rows.append(tuple(row))
    return tuple(rows)


def _det_fraction(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with column pivoting."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        pivot = work[k][k]
        det *= pivot
        for r in range(k + 1, n):
            if work[r][k]:
                factor = work[r][k] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[k])]
    return det


def resultant(f: Sequence, g: Sequence) -> Fraction:
    """Determinant of the ascending-layout Sylvester matrix.

    Zero exactly when f and g share a nonconstant common factor.
    """
    return _det_fraction(sylvester_matrix(f, g))


# ---------------------------------------------------------------------------
# cut-edge certificate


def evaluate_z(poly, z0: Sequence) -> Coeffs:
    """Specialize the momentum variables of a Laurent polynomial.

    Returns ascending lam-coefficients; every coordinate of z0 must be a
    nonzero rational so negative exponents stay exact.
    """
    z = [_coerce(c, "momentum coordinates") for c in z0]
    if len(z) != poly.dimension:
        raise ValueError(f"z0 has {len(z)} coordinates, expected {poly.dimension}")
    if any(c == 0 for c in z):
        raise ValueError("z0 must have nonzero coordinates")
    return unipoly.normalize(_evaluate(poly, z))


def cut_edge_certificate(graph: PeriodicGraph, subset: Sequence[int],
                         labeling: Labeling, z0: Sequence) -> Fraction:
    """Resultant of the dispersion at z0 against the subset's dispersion.

    Hypotheses checked one by one: the subset omits exactly one orbit and
    carries only zero offsets, the quotient multigraph is connected with
    every edge a cut edge (so it is a tree), all weights are nonzero, and
    z0 avoids the coordinate axes.  Under those, a nonzero value
    certifies that the two spectra share no energy at z0.
    """
    members = sorted(set(subset))
    n = graph.num_orbits
    if len(members) != n - 1:
        raise ValueError(f"subset must omit exactly one orbit, got {len(members)} of {n}")
    if not is_support_zero(graph, members):
        raise ValueError("subset carries a nonzero offset; not support-zero as given")
    # A connected multigraph has only bridges exactly when no edge (a
    # self-class included) closes a cycle, so one union-find pass decides
    # both connectivity and the bridge condition.
    edges = graph.sorted_edges()
    roots, cycle_edge = _union_find(n, edges)
    if len(set(roots)) != 1:
        raise ValueError("quotient graph is not connected")
    if cycle_edge is not None:
        raise ValueError(f"non-bridge edge found in the quotient graph: {edges[cycle_edge]}")
    for edge, weight in labeling.weights.items():
        if weight == 0:
            raise ValueError(f"zero weight on {edge}")

    full = evaluate_z(dispersion_polynomial(graph, labeling), z0)
    # only offset-0 classes lie inside the subset, so its dispersion has no z
    inner = evaluate_z(induced_dispersion(graph, labeling, members), [1] * graph.dimension)
    return resultant(full, inner)
