"""Floquet matrix of a labeled periodic graph and its dispersion polynomial.

For orbits i != j the matrix entry collects ``w * z^a`` over every edge
class (i, j, a), read with the offset oriented from i to j; the symmetric
entry picks up ``z^-a``.  A class joining an orbit to its own translate
contributes ``w * (z^a + z^-a)`` on the diagonal, on top of the potential.
The construction makes ``L(1/z)`` the transpose of ``L(z)``.

A `PencilTemplate` holds the pencil L(z) - lam * I of one graph with
its labels left open: per row, (column, exponent, label) triples built
in one pass over the sorted edge classes, and the same rows packed once
as a `laurent.PackedTemplate` (each term's column, packed key and
label).  Distinct classes give distinct exponents within an entry, so
no term is ever summed.  `pack` fills the template with one labeling in
integers, each row over the lcm of its label denominators, ready for
`laurent.det_packed`; the exact decisions in `flatbands.flatband` fill
one template per graph for every labeling they draw.  The packed keys
alone are the pencil's 0/1 pattern, whose permanent
`laurent.support_leibniz` expands without filling anything.  A
`FloquetMatrix` packs its template on the first `dispersion()` call;
every other runtime reader of the pencil (the band grid, permutation
products) reads the template's `triples`, and so does `matrix`, which
builds L(z) alone as rows of `LaurentPoly` on each read (the printout
of `analyze` and the pointwise reference `bands.floquet_at`); its empty
cells share one zero `LaurentPoly`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .graph import Labeling, PeriodicGraph
from .laurent import Exponent, LaurentPoly, PackedPencil, PackedTemplate, determinant

_MINUS_ONE = Fraction(-1)


class PencilTemplate:
    """The pencil L(z) - lam * I of one graph, with its labels left open.

    Labels are numbered: the potential of orbit v is label v, the weight
    of the k-th sorted edge class is label n + k, and the -1 in front of
    lam is the last label.  ``rows[v]`` lists the ``(column, exponent,
    label)`` triples of row v: the potential, then w * z^a or w * z^-a
    for each class in sorted order, then -lam on the diagonal.
    ``packed`` is the same rows as a `laurent.PackedTemplate`.
    """

    __slots__ = ("graph", "edges", "rows", "packed")

    def __init__(self, graph: PeriodicGraph):
        d = graph.dimension
        n = graph.num_orbits
        edges = graph.sorted_edges()
        zero = (0,) * d
        rows: list[list[tuple[int, Exponent, int]]] = [
            [(v, zero + (0,), v)] for v in range(n)]
        for k, (i, j, a) in enumerate(edges):
            rows[i].append((j, a + (0,), n + k))
            rows[j].append((i, tuple([-e for e in a]) + (0,), n + k))
        lam = zero + (1,)
        for v, row in enumerate(rows):
            row.append((v, lam, n + len(edges)))
        self.graph = graph
        self.edges = edges
        self.rows = rows
        self.packed = PackedTemplate(d, rows)

    def _values(self, labeling: Labeling) -> list:
        """Every label's value in label order."""
        weights = labeling.weights
        return [*labeling.potentials, *[weights[e] for e in self.edges], _MINUS_ONE]

    def pack(self, labeling: Labeling) -> PackedPencil:
        """The pencil filled with `labeling`, packed for `laurent.det_packed`.

        Each row holds integer numerators over the lcm of its nonzero
        label denominators; terms with a zero label are left out.
        """
        return self.packed.fill(self._values(labeling))

    def triples(self, labeling: Labeling
                ) -> list[list[tuple[int, Exponent, Fraction | int]]]:
        """Per-row (column, exponent, coefficient) triples; zero labels left out."""
        values = self._values(labeling)
        return [[(col, key, values[label]) for col, key, label in row if values[label]]
                for row in self.rows]


class FloquetMatrix:
    """Matrix-valued symbol of the periodic operator, with cached dispersion."""

    __slots__ = ("graph", "labeling", "_template", "_dispersion")

    def __init__(self, graph: PeriodicGraph, labeling: Labeling):
        if labeling.graph != graph:
            raise ValueError("labeling belongs to a different graph")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "_template", PencilTemplate(graph))
        object.__setattr__(self, "_dispersion", None)

    def __setattr__(self, name, value):
        raise AttributeError("FloquetMatrix is immutable")

    @property
    def size(self) -> int:
        return self.graph.num_orbits

    @property
    def matrix(self) -> list[list[LaurentPoly]]:
        """L(z) as rows of `LaurentPoly`, built from the triples on each read."""
        d = self.graph.dimension
        zero = LaurentPoly.zero(d)
        rows = []
        for row in self._template.triples(self.labeling):
            terms: dict[int, dict] = {}
            for col, key, coeff in row:
                if key[-1] == 0:
                    terms.setdefault(col, {})[key] = coeff
            rows.append([LaurentPoly._from_terms(d, terms[col]) if col in terms else zero
                         for col in range(self.size)])
        return rows

    def dispersion(self) -> LaurentPoly:
        """det(L(z) - lam I); cached after the first call.

        The first call packs the template with the labeling and hands the
        packed pencil to `determinant`.  The lam-leading coefficient is
        (-1)^n by construction, which is asserted here as a cheap sanity
        check on the determinant code.
        """
        if self._dispersion is not None:
            return self._dispersion
        poly = determinant(self._template.pack(self.labeling))
        n = self.size
        lead = (0,) * self.graph.dimension + (n,)
        terms = poly._terms
        if terms.get(lead) != (-1) ** n or any(
                key[-1] >= n for key in terms if key != lead):
            raise ArithmeticError("dispersion lost its leading lam term")
        object.__setattr__(self, "_dispersion", poly)
        return poly


def dispersion_polynomial(graph: PeriodicGraph, labeling: Labeling) -> LaurentPoly:
    return FloquetMatrix(graph, labeling).dispersion()


def induced_operator(graph: PeriodicGraph, labeling: Labeling,
                     subset: Iterable[int]) -> FloquetMatrix:
    """Floquet matrix of the labeled subgraph induced on an orbit subset."""
    if labeling.graph != graph:
        raise ValueError("labeling belongs to a different graph")
    sub, sub_labeling, _ = labeling.restrict(subset)
    return FloquetMatrix(sub, sub_labeling)


def induced_dispersion(graph: PeriodicGraph, labeling: Labeling,
                       subset: Iterable[int]) -> LaurentPoly:
    return induced_operator(graph, labeling, subset).dispersion()
