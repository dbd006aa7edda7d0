"""Periodic graph structure, support-zero searches, and labelings."""

import random
import time
from collections import deque
from fractions import Fraction

import pytest

from flatbands.graph import (
    Labeling,
    PeriodicGraph,
    ShiftAssignment,
    canonicalize_edge,
    component_shift_assignment,
    components,
    find_support_zero_component,
    has_support_zero_domain,
    induced_subgraph,
    is_support_zero,
    reshift,
    support_of_subset,
)
from flatbands.sampling import random_periodic_graph


class TestCanonicalization:
    def test_sorted_endpoints_kept(self):
        assert canonicalize_edge(0, 2, (1, -1)) == (0, 2, (1, -1))

    def test_reversed_endpoints_swap_and_negate(self):
        assert canonicalize_edge(2, 0, (1, -1)) == (0, 2, (-1, 1))

    def test_self_class_first_nonzero_positive(self):
        assert canonicalize_edge(1, 1, (0, -1)) == (1, 1, (0, 1))
        assert canonicalize_edge(1, 1, (1, -1)) == (1, 1, (1, -1))
        assert canonicalize_edge(1, 1, (-1, 1)) == (1, 1, (1, -1))

    @pytest.mark.parametrize("offset", [(0.5,), (1.7,), (True,), (1, 2.0), (1, False)])
    def test_non_integer_offsets_are_rejected(self, offset):
        with pytest.raises(ValueError, match=r"offset \(.*\) has an entry that is not an integer"):
            canonicalize_edge(0, 0, offset)
        with pytest.raises(ValueError, match="not an integer"):
            PeriodicGraph(len(offset), 2, [(0, 1, offset)])
        g = PeriodicGraph(len(offset), 2, [(0, 1, (0,) * len(offset))])
        with pytest.raises(ValueError, match="not an integer"):
            Labeling(g, [0, 0], {(0, 1, offset): 1})

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_edge(3, 3, (0, 0))

    def test_negative_orbit_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_edge(-1, 0, (0,))


def test_graph_validation():
    with pytest.raises(ValueError):
        PeriodicGraph(0, 1)
    with pytest.raises(ValueError):
        PeriodicGraph(1, 0)
    with pytest.raises(ValueError):
        PeriodicGraph(1, 2, [(0, 1, (0, 0))])  # offset length mismatch
    with pytest.raises(ValueError):
        PeriodicGraph(1, 2, [(0, 5, (0,))])  # missing orbit
    with pytest.raises(ValueError):
        # same class written through both orientations
        PeriodicGraph(1, 2, [(0, 1, (1,)), (1, 0, (-1,))])


def test_graph_equality_ignores_edge_order(lieb_graph):
    reordered = PeriodicGraph(2, 3, list(reversed(lieb_graph.sorted_edges())))
    assert reordered == lieb_graph
    assert hash(reordered) == hash(lieb_graph)


def test_components_split_and_sort():
    g = PeriodicGraph(1, 5, [(0, 3, (0,)), (1, 4, (1,))])
    assert components(g) == (
        frozenset({0, 3}),
        frozenset({1, 4}),
        frozenset({2}),
    )


def _bfs_components(graph):
    """Plain breadth-first search from each unseen orbit in turn: the reference."""
    adjacency = {v: set() for v in range(graph.num_orbits)}
    for i, j, _ in graph.edge_classes:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = set()
    blocks = []
    for start in range(graph.num_orbits):
        if start in seen:
            continue
        block = {start}
        queue = deque([start])
        while queue:
            for w in adjacency[queue.popleft()]:
                if w not in block:
                    block.add(w)
                    queue.append(w)
        seen |= block
        blocks.append(frozenset(block))
    return tuple(blocks)


def test_components_match_a_breadth_first_search():
    rng = random.Random(24)
    for _ in range(5000):
        graph = random_periodic_graph(rng, max_orbits=7, max_edges=8)
        assert components(graph) == _bfs_components(graph)
    for n in (1, 2, 5, 12):
        edgeless = PeriodicGraph(1, n)
        assert components(edgeless) == tuple(frozenset({v}) for v in range(n))
        complete = PeriodicGraph(2, n, [(i, j, (0, 1)) for i in range(n) for j in range(i, n)])
        assert components(complete) == (frozenset(range(n)),) == _bfs_components(complete)


def test_components_of_many_edgeless_orbits_are_fast():
    # a search restarted from the least unseen orbit per block is quadratic
    # in the block count and takes seconds on 20000 blocks; one union-find
    # pass takes milliseconds
    graph = PeriodicGraph(1, 20000)
    start = time.perf_counter()
    blocks = components(graph)
    assert time.perf_counter() - start < 1.0
    assert blocks == tuple(frozenset({v}) for v in range(20000))


def test_support_of_subset_is_symmetric(lieb_graph):
    support = support_of_subset(lieb_graph, {0, 1, 2})
    assert support == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert support_of_subset(lieb_graph, {0, 2}) == frozenset()
    with pytest.raises(ValueError):
        support_of_subset(lieb_graph, set())
    with pytest.raises(ValueError):
        support_of_subset(lieb_graph, {7})


def test_is_support_zero(lieb_graph):
    assert not is_support_zero(lieb_graph, {0, 1, 2})
    g = PeriodicGraph(1, 3, [(0, 1, (0,)), (1, 2, (1,))])
    assert is_support_zero(g, {0, 1})
    assert not is_support_zero(g, {1, 2})


def test_induced_subgraph(lieb_graph):
    sub, index = induced_subgraph(lieb_graph, {1, 2})
    assert index == {1: 0, 2: 1}
    assert sub.num_orbits == 2
    assert sub.edge_classes == {(0, 1, (0, 0)), (0, 1, (0, -1))}


def test_reshift_moves_offsets():
    g = PeriodicGraph(1, 2, [(0, 1, (1,))])
    shifted = reshift(g, ShiftAssignment(1, {1: (1,)}))
    assert shifted.edge_classes == {(0, 1, (0,))}
    # shifting both endpoints by the same amount is a no-op
    assert reshift(g, {0: (2,), 1: (2,)}) == g


@pytest.mark.parametrize("shifts", [{0: (0.7,)}, {0: (True,)}, {1.9: (1,)}, {True: (1,)}])
def test_shift_assignment_refuses_non_integers(shifts):
    # int() would turn the shift (0.7,) into (0,) and the orbit 1.9 into 1
    with pytest.raises(ValueError, match="not an integer"):
        ShiftAssignment(1, shifts)


@pytest.mark.parametrize("dimension, num_orbits", [(2.7, 3.5), (True, True), (1, 2.0)])
def test_periodic_graph_refuses_non_integer_sizes(dimension, num_orbits):
    # int() would make (2.7, 3.5) a 2-D, 3-orbit graph and (True, True) a 1-D, 1-orbit one
    with pytest.raises(ValueError, match="not an integer"):
        PeriodicGraph(dimension, num_orbits)


def test_reshift_dimension_mismatch():
    g = PeriodicGraph(2, 2, [(0, 1, (1, 0))])
    with pytest.raises(ValueError):
        reshift(g, ShiftAssignment(1, {0: (1,)}))


class TestSupportZeroSearch:
    def test_lieb_has_none(self, lieb_graph):
        assert find_support_zero_component(lieb_graph) is None
        assert not has_support_zero_domain(lieb_graph)

    def test_tree_component_is_found(self):
        # a path with offsets is refittable; the certificate zeroes it
        g = PeriodicGraph(1, 3, [(0, 1, (1,)), (1, 2, (-1,))])
        found = find_support_zero_component(g)
        assert found is not None
        block, assignment = found
        assert block == {0, 1, 2}
        assert is_support_zero(reshift(g, assignment), block)
        assert has_support_zero_domain(g)

    def test_cycle_with_monodromy_fails(self):
        g = PeriodicGraph(1, 3, [(0, 1, (0,)), (1, 2, (0,)), (0, 2, (1,))])
        assert component_shift_assignment(g, frozenset({0, 1, 2})) is None
        assert find_support_zero_component(g) is None

    def test_balanced_cycle_passes(self):
        g = PeriodicGraph(1, 3, [(0, 1, (1,)), (1, 2, (1,)), (0, 2, (2,))])
        assignment = component_shift_assignment(g, frozenset({0, 1, 2}))
        assert assignment is not None
        assert is_support_zero(reshift(g, assignment), {0, 1, 2})

    def test_self_class_blocks_component(self):
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        assert find_support_zero_component(g) is None

    def test_isolated_orbit_qualifies(self):
        g = PeriodicGraph(1, 2, [(0, 0, (1,))])
        found = find_support_zero_component(g)
        assert found is not None
        assert found[0] == {1}
        assert not has_support_zero_domain(g)

    def test_edge_free_graph_is_support_zero_everywhere(self):
        g = PeriodicGraph(2, 3)
        assert find_support_zero_component(g) is not None
        assert has_support_zero_domain(g)

    def test_first_qualifying_component_wins(self):
        g = PeriodicGraph(1, 4, [(0, 1, (0,)), (2, 3, (0,))])
        block, _ = find_support_zero_component(g)
        assert block == {0, 1}


def test_shift_assignments_zero_their_components_on_random_graphs():
    # the oracle for the refit that find_support_zero_component trusts
    zeroed = 0
    for seed in range(200):
        graph = random_periodic_graph(random.Random(seed))
        first = None
        for block in components(graph):
            assignment = component_shift_assignment(graph, block)
            if assignment is not None:
                assert is_support_zero(reshift(graph, assignment), block)
                first = first or (block, assignment)
                zeroed += 1
        assert find_support_zero_component(graph) == first
    assert zeroed >= 100


class TestLabeling:
    def test_lookup_through_either_orientation(self, lieb_graph):
        weights = {e: Fraction(k + 1) for k, e in enumerate(lieb_graph.sorted_edges())}
        lab = Labeling(lieb_graph, [1, 2, 3], weights)
        assert lab.weight(1, 2, (0, -1)) == lab.weight(2, 1, (0, 1))
        assert lab.potentials == (1, 2, 3)

    def test_wrong_potential_count(self, lieb_graph):
        with pytest.raises(ValueError):
            Labeling(lieb_graph, [0, 0], {e: 1 for e in lieb_graph.sorted_edges()})

    def test_missing_weight(self, lieb_graph):
        weights = {e: 1 for e in lieb_graph.sorted_edges()[:-1]}
        with pytest.raises(ValueError):
            Labeling(lieb_graph, [0, 0, 0], weights)

    def test_unknown_edge_weight(self, lieb_graph):
        weights = {e: 1 for e in lieb_graph.sorted_edges()}
        weights[(0, 2, (0, 0))] = 1
        with pytest.raises(ValueError):
            Labeling(lieb_graph, [0, 0, 0], weights)

    def test_zero_weight_needs_flag(self, lieb_graph):
        weights = {e: 1 for e in lieb_graph.sorted_edges()}
        weights[(0, 1, (0, 0))] = 0
        with pytest.raises(ValueError):
            Labeling(lieb_graph, [0, 0, 0], weights)
        lab = Labeling(lieb_graph, [0, 0, 0], weights, allow_zero=True)
        assert lab.weight(0, 1, (0, 0)) == 0

    @pytest.mark.parametrize("potential, weight", [(0.1, 1), (0, 0.5), (True, 1), (0, True)])
    def test_floats_are_rejected(self, potential, weight):
        g = PeriodicGraph(1, 1, [(0, 0, (1,))])
        bad = weight if type(potential) is int else potential
        with pytest.raises(TypeError, match=type(bad).__name__):
            Labeling(g, [potential], {(0, 0, (1,)): weight})

    def test_restrict(self, lieb_labeling):
        sub, sublab, index = lieb_labeling.restrict({1, 2})
        assert index == {1: 0, 2: 1}
        assert sublab.graph is sub
        assert sublab.potentials == (0, 0)
        assert sublab.weight(0, 1, (0, 0)) == 1
