"""Periodic graphs with a finite orbit set and integer-vector edge offsets.

A graph with ``num_orbits = n`` in dimension ``d`` has orbits ``0..n-1``
(the I/O layer speaks user ids; everything here is index based).  An edge
class ``(i, j, a)`` joins orbit ``i`` in the reference copy of the
fundamental domain to orbit ``j`` in the copy displaced by ``a`` in Z^d.
The same physical edge family can be written ``(j, i, -a)``; we store one
canonical representative per class:

* ``i < j``: keep the offset as given,
* ``i == j``: flip the offset so the first nonzero entry is positive,
* ``i > j``: swap endpoints and negate the offset.

``(i, i, 0)`` would be a loop and is rejected, as are duplicate classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .laurent import _coerce, _integers

EdgeClass = tuple[int, int, tuple[int, ...]]


def canonicalize_edge(i: int, j: int, offset: Sequence[int]) -> EdgeClass:
    """Canonical representative of (i,j,a) ~ (j,i,-a); offset entries are ints, not bools."""
    a = _integers("offset", offset)
    if i < 0 or j < 0:
        raise ValueError(f"orbit indices must be nonnegative, got ({i}, {j})")
    if i == j:
        if all(e == 0 for e in a):
            raise ValueError(f"loop edge ({i}, {i}, {a}) is not allowed")
        for e in a:
            if e > 0:
                return (i, j, a)
            if e < 0:
                return (i, j, tuple(-x for x in a))
    if i > j:
        return (j, i, tuple(-e for e in a))
    return (i, j, a)


class PeriodicGraph:
    """Immutable periodic graph; edge classes are stored canonicalized."""

    __slots__ = ("dimension", "num_orbits", "edge_classes")

    def __init__(self, dimension: int, num_orbits: int,
                 edges: Iterable[tuple[int, int, Sequence[int]]] = ()):
        _integers("dimension and orbit count", (dimension, num_orbits))
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if num_orbits < 1:
            raise ValueError("a periodic graph needs at least one orbit")
        seen: set[EdgeClass] = set()
        for i, j, offset in edges:
            if len(tuple(offset)) != dimension:
                raise ValueError(
                    f"offset {tuple(offset)} has length {len(tuple(offset))}, "
                    f"expected {dimension}"
                )
            edge = canonicalize_edge(i, j, offset)
            if edge[1] >= num_orbits:
                raise ValueError(f"edge {edge} references a missing orbit")
            if edge in seen:
                raise ValueError(f"duplicate edge class {edge} after canonicalization")
            seen.add(edge)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "num_orbits", num_orbits)
        object.__setattr__(self, "edge_classes", frozenset(seen))

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, PeriodicGraph):
            return NotImplemented
        return (self.dimension, self.num_orbits, self.edge_classes) == (
            other.dimension, other.num_orbits, other.edge_classes)

    def __hash__(self):
        return hash((self.dimension, self.num_orbits, self.edge_classes))

    def __repr__(self):
        edges = sorted(self.edge_classes)
        return (f"PeriodicGraph(dimension={self.dimension}, "
                f"num_orbits={self.num_orbits}, edges={edges})")

    def sorted_edges(self) -> list[EdgeClass]:
        return sorted(self.edge_classes)


def _union_find(num_orbits: int, edges: Iterable[EdgeClass]) -> tuple[list[int], int | None]:
    """Join the ends of every edge class in one union-find with path halving.

    Returns each orbit's root, equal exactly for orbits in one component
    of the quotient graph, and the index in ``edges`` of the first class
    whose ends were already joined, that is the first to close a cycle
    (a self class always does), or None when the quotient is a forest.
    """
    parent = list(range(num_orbits))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    cycle_edge = None
    for k, (i, j, _) in enumerate(edges):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
        elif cycle_edge is None:
            cycle_edge = k
    return list(map(root, range(num_orbits))), cycle_edge


def components(graph: PeriodicGraph) -> tuple[frozenset[int], ...]:
    """Connected components of the quotient graph, sorted by least orbit.

    Orbits are read in increasing order, so each block is first met at its
    least orbit and the dict keeps the blocks in sorted order.
    """
    roots, _ = _union_find(graph.num_orbits, graph.edge_classes)
    blocks: dict[int, list[int]] = {}
    for v, r in enumerate(roots):
        if r in blocks:
            blocks[r].append(v)
        else:
            blocks[r] = [v]
    return tuple(map(frozenset, blocks.values()))


def support_of_subset(graph: PeriodicGraph, subset: Iterable[int]) -> frozenset[tuple[int, ...]]:
    """Net offsets realized by edge classes internal to the subset.

    Each internal class contributes both its offset and the negated
    offset; a subset with no internal classes has empty support.
    """
    members = set(subset)
    if not members:
        raise ValueError("subset must be nonempty")
    if not members <= set(range(graph.num_orbits)):
        raise ValueError("subset contains unknown orbits")
    out: set[tuple[int, ...]] = set()
    for i, j, a in graph.edge_classes:
        if i in members and j in members:
            out.add(a)
            out.add(tuple(-e for e in a))
    return frozenset(out)


def is_support_zero(graph: PeriodicGraph, subset: Iterable[int]) -> bool:
    zero = (0,) * graph.dimension
    return support_of_subset(graph, subset) <= {zero}


def induced_subgraph(graph: PeriodicGraph, subset: Iterable[int]
                     ) -> tuple[PeriodicGraph, dict[int, int]]:
    """Restrict to a subset of orbits, reindexing them in sorted order.

    Returns the induced graph together with the old-to-new index map.
    """
    members = sorted(set(subset))
    if not members:
        raise ValueError("subset must be nonempty")
    if members[-1] >= graph.num_orbits or members[0] < 0:
        raise ValueError("subset contains unknown orbits")
    index = {old: new for new, old in enumerate(members)}
    edges = [
        (index[i], index[j], a)
        for i, j, a in graph.sorted_edges()
        if i in index and j in index
    ]
    return PeriodicGraph(graph.dimension, len(members), edges), index


@dataclass(frozen=True)
class ShiftAssignment:
    """Per-orbit translation used when refitting the fundamental domain.

    Replacing orbit representatives by copies displaced by ``shifts[v]``
    rewrites each edge class ``(i, j, a)`` as ``(i, j, a + s_i - s_j)``.
    """

    dimension: int
    shifts: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        _integers("orbits", self.shifts)
        clean = {v: _integers("shift", s) for v, s in self.shifts.items()}
        for v, s in clean.items():
            if len(s) != self.dimension:
                raise ValueError(f"shift {s} for orbit {v} has the wrong length")
        object.__setattr__(self, "shifts", clean)

    def shift_of(self, orbit: int) -> tuple[int, ...]:
        return self.shifts.get(orbit, (0,) * self.dimension)


def reshift(graph: PeriodicGraph, assignment: ShiftAssignment | Mapping[int, Sequence[int]]
            ) -> PeriodicGraph:
    """Apply a fundamental-domain refit to every edge class."""
    if not isinstance(assignment, ShiftAssignment):
        assignment = ShiftAssignment(graph.dimension, assignment)
    if assignment.dimension != graph.dimension:
        raise ValueError("shift assignment dimension mismatch")
    edges = []
    for i, j, a in graph.sorted_edges():
        si, sj = assignment.shift_of(i), assignment.shift_of(j)
        edges.append((i, j, tuple(x + y - z for x, y, z in zip(a, si, sj))))
    return PeriodicGraph(graph.dimension, graph.num_orbits, edges)


def find_support_zero_component(graph: PeriodicGraph
                                ) -> tuple[frozenset[int], ShiftAssignment] | None:
    """Search for a component that some refit makes support-zero.

    A component qualifies exactly when walking its edge classes around any
    cycle of the quotient graph accumulates a zero net offset (and no class
    joins an orbit to a translate of itself).  The certificate is built by
    spreading shifts along a spanning tree and checking the remaining
    classes; first qualifying component (by least orbit) wins.
    """
    for block in components(graph):
        assignment = component_shift_assignment(graph, block)
        if assignment is not None:
            return block, assignment
    return None


def component_shift_assignment(graph: PeriodicGraph, block: frozenset[int]
                               ) -> ShiftAssignment | None:
    """Shift assignment zeroing every class inside one component, if any."""
    zero = (0,) * graph.dimension
    by_orbit: dict[int, list[EdgeClass]] = {v: [] for v in block}
    for edge in graph.edge_classes:
        i, j, _ = edge
        if i in block:
            by_orbit[i].append(edge)
            if j != i and j in block:
                by_orbit[j].append(edge)
    shifts: dict[int, tuple[int, ...]] = {min(block): zero}
    stack = [min(block)]
    while stack:
        v = stack.pop()
        for i, j, a in by_orbit[v]:
            if i == j:
                return None  # self-translate class can never vanish
            u, offset = (j, a) if i == v else (i, tuple(-e for e in a))
            target = tuple(x + y for x, y in zip(shifts[v], offset))
            if u not in shifts:
                shifts[u] = target
                stack.append(u)
            elif shifts[u] != target:
                return None
    return ShiftAssignment(graph.dimension, shifts)


def has_support_zero_domain(graph: PeriodicGraph) -> bool:
    """True when some refit makes every edge class carry offset zero.

    Equivalent to every quotient component passing the zero-monodromy
    test; the graph is then a disjoint union of translated finite graphs.
    """
    return all(
        component_shift_assignment(graph, block) is not None
        for block in components(graph)
    )


# ---------------------------------------------------------------------------
# labelings


class Labeling:
    """Rational vertex potentials and edge weights for a periodic graph.

    Weights are stored per canonical edge class; looking one up through
    either orientation returns the same value.  Zero weights amount to
    deleting the edge and are rejected unless ``allow_zero`` is set;
    float labels raise TypeError, as in `flatbands.laurent`.
    """

    __slots__ = ("graph", "potentials", "weights")

    def __init__(self, graph: PeriodicGraph, potentials: Sequence,
                 weights: Mapping[EdgeClass, object], allow_zero: bool = False):
        pots = tuple(_coerce(p) for p in potentials)
        if len(pots) != graph.num_orbits:
            raise ValueError(
                f"{len(pots)} potentials for {graph.num_orbits} orbits"
            )
        table: dict[EdgeClass, Fraction] = {}
        for key, value in weights.items():
            edge = canonicalize_edge(key[0], key[1], key[2])
            if edge not in graph.edge_classes:
                raise ValueError(f"weight given for missing edge class {edge}")
            if edge in table:
                raise ValueError(f"weight given twice for edge class {edge}")
            table[edge] = _coerce(value)
        missing = graph.edge_classes - set(table)
        if missing:
            raise ValueError(f"no weight for edge classes {sorted(missing)}")
        if not allow_zero:
            for edge, w in table.items():
                if w == 0:
                    raise ValueError(f"zero weight on {edge} (pass allow_zero to permit)")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "potentials", pots)
        object.__setattr__(self, "weights", table)

    def __setattr__(self, name, value):
        raise AttributeError("Labeling is immutable")

    def weight(self, i: int, j: int, offset: Sequence[int]) -> Fraction:
        return self.weights[canonicalize_edge(i, j, offset)]

    def __eq__(self, other):
        if not isinstance(other, Labeling):
            return NotImplemented
        return (self.graph, self.potentials, self.weights) == (
            other.graph, other.potentials, other.weights)

    def restrict(self, subset: Iterable[int]) -> tuple[PeriodicGraph, "Labeling", dict[int, int]]:
        """Labeling induced on a subset of orbits; see induced_subgraph."""
        sub, index = induced_subgraph(self.graph, subset)
        pots = [self.potentials[old] for old in sorted(index)]
        weights = {}
        for i, j, a in self.graph.edge_classes:
            if i in index and j in index:
                weights[(index[i], index[j], a)] = self.weights[(i, j, a)]
        return sub, Labeling(sub, pots, weights), index
