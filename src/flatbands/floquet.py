"""Floquet matrix of a labeled periodic graph and its dispersion polynomial.

For orbits i != j the matrix entry collects ``w * z^a`` over every edge
class (i, j, a), read with the offset oriented from i to j; the symmetric
entry picks up ``z^-a``.  A class joining an orbit to its own translate
contributes ``w * (z^a + z^-a)`` on the diagonal, on top of the potential.
The construction makes ``L(1/z)`` the transpose of ``L(z)``.

A `FloquetMatrix` is built in one pass over the sorted edge classes into
per-row ``(column, exponent, coefficient)`` triples of the pencil
L(z) - lam * I.  Distinct classes give distinct exponents within an
entry, so no term is ever summed.  The triples are packed for the
integer determinant on the first `dispersion()` call, and the Laurent
matrices `matrix` and `char_matrix()` are built from them only when
something reads them.  `pattern_pencil` packs the same rows with every
label set to 1, the pencil's 0/1 pattern.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .graph import Labeling, PeriodicGraph
from .laurent import LaurentMatrix, LaurentPoly, PackedPencil, determinant, pack_rows

_MINUS_ONE = Fraction(-1)


class FloquetMatrix:
    """Matrix-valued symbol of the periodic operator, with cached dispersion."""

    __slots__ = ("graph", "labeling", "_rows", "_matrix", "_dispersion")

    def __init__(self, graph: PeriodicGraph, labeling: Labeling):
        if labeling.graph != graph:
            raise ValueError("labeling belongs to a different graph")
        rows = _pencil_rows(graph, labeling)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_dispersion", None)

    def __setattr__(self, name, value):
        raise AttributeError("FloquetMatrix is immutable")

    @property
    def size(self) -> int:
        return self.graph.num_orbits

    @property
    def matrix(self) -> LaurentMatrix:
        """L(z) as a Laurent matrix, built on first read."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", self._laurent_matrix(with_lam=False))
        return self._matrix

    def char_matrix(self) -> LaurentMatrix:
        """The pencil L(z) - lam * I as one Laurent matrix."""
        return self._laurent_matrix(with_lam=True)

    def _laurent_matrix(self, with_lam: bool) -> LaurentMatrix:
        d = self.graph.dimension
        n = self.size
        entries = []
        for row in self._rows:
            terms: list[dict] = [{} for _ in range(n)]
            for col, key, coeff in row:
                if with_lam or key[-1] == 0:
                    terms[col][key] = coeff
            entries.append([LaurentPoly._from_terms(d, t) for t in terms])
        return LaurentMatrix(entries)

    def dispersion(self) -> LaurentPoly:
        """det(L(z) - lam I); cached after the first call.

        The first call packs the triples and hands the packed pencil to
        `determinant`.  The lam-leading coefficient is (-1)^n by
        construction, which is asserted here as a cheap sanity check on
        the determinant code.
        """
        if self._dispersion is not None:
            return self._dispersion
        poly = determinant(pack_rows(self.graph.dimension, self._rows))
        n = self.size
        lead = (0,) * self.graph.dimension + (n,)
        terms = poly._terms
        if terms.get(lead) != (-1) ** n or any(
                key[-1] >= n for key in terms if key != lead):
            raise ArithmeticError("dispersion lost its leading lam term")
        object.__setattr__(self, "_dispersion", poly)
        return poly


def _pencil_rows(graph: PeriodicGraph, labeling: Labeling | None = None
                 ) -> list[list[tuple[int, tuple[int, ...], Fraction | int]]]:
    """Per-row (column, exponent, coefficient) triples of L(z) - lam * I.

    Row v lists the potential, then w * z^a or w * z^-a for each class in
    sorted order, then -lam on the diagonal; zero labels are left out.
    Without a labeling every potential and weight is 1, which gives the
    pencil's pattern: each entry lists every monomial any labeling can
    put there.
    """
    d = graph.dimension
    zero = (0,) * d
    if labeling is None:
        potentials = [1] * graph.num_orbits
        weights = dict.fromkeys(graph.edge_classes, 1)
    else:
        potentials, weights = labeling.potentials, labeling.weights
    rows = []
    for v, potential in enumerate(potentials):
        rows.append([(v, zero + (0,), potential)] if potential else [])
    for edge in graph.sorted_edges():
        w = weights[edge]
        if not w:
            continue
        i, j, a = edge
        rows[i].append((j, a + (0,), w))
        rows[j].append((i, tuple(-e for e in a) + (0,), w))
    lam = zero + (1,)
    for v, row in enumerate(rows):
        row.append((v, lam, _MINUS_ONE))
    return rows


def pattern_pencil(graph: PeriodicGraph) -> PackedPencil:
    """The packed pencil of `graph` with every potential and weight set to 1."""
    return pack_rows(graph.dimension, _pencil_rows(graph))


def build_floquet(graph: PeriodicGraph, labeling: Labeling) -> FloquetMatrix:
    return FloquetMatrix(graph, labeling)


def dispersion_polynomial(graph: PeriodicGraph, labeling: Labeling) -> LaurentPoly:
    return FloquetMatrix(graph, labeling).dispersion()


def induced_operator(graph: PeriodicGraph, labeling: Labeling,
                     subset: Iterable[int]) -> FloquetMatrix:
    """Floquet matrix of the labeled subgraph induced on an orbit subset."""
    sub, sub_labeling, _ = labeling.restrict(subset)
    return FloquetMatrix(sub, sub_labeling)


def induced_dispersion(graph: PeriodicGraph, labeling: Labeling,
                       subset: Iterable[int]) -> LaurentPoly:
    return induced_operator(graph, labeling, subset).dispersion()
