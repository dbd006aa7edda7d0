"""Seeded graph corpus for the flatbands benchmark.

Every graph comes from ``(seed, workload, index)`` alone, through a
string-seeded ``random.Random``, so a seed names one corpus on any
machine and Python version.  Graphs are written in the JSON layout the
flatbands CLI reads; nothing here imports flatbands.

A graph is a dispersive part plus optional planted blocks:

- the dispersive part is a random spanning tree with offsets in
  {-1, 0, 1}^d, plus extra classes.  The first extra class breaks the
  tree's potential (its offset differs from the tree's shift difference),
  so the part has a cycle with nonzero net offset and is not refittable;
- a planted block is a separate quotient component whose offsets are
  differences ``s_j - s_i`` of per-orbit shifts.  It refits to offset
  zero, so every labeling has the block's eigenvalues as flat bands
  (the paper's support-zero component);
- a Lieb block is bipartite with more orbits on side A than on side B
  and one potential ``c`` on all of A, so ``c`` is a rational flat band
  of multiplicity at least ``|A| - |B|`` for every weight choice.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Graph:
    """One generated graph: orbit count, dimension, classes and labels.

    ``edges`` holds ``(i, j, offset)`` triples over orbits ``0..n-1``.
    ``potentials``/``weights`` are None for unlabeled graphs (the CLI then
    draws labels from its seed).  ``flat_orbits`` is a lower bound on the
    flat-band count of every labeling: the orbits in planted blocks, or
    |A| - |B| for a Lieb graph.
    """

    name: str
    dimension: int
    n: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    potentials: tuple[Fraction, ...] | None = None
    weights: tuple[Fraction, ...] | None = None
    flat_orbits: int = 0

    def document(self) -> dict:
        def out(q: Fraction):
            return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        orbits = []
        for v in range(self.n):
            entry: dict = {"id": f"v{v}"}
            if self.potentials is not None:
                entry["potential"] = out(self.potentials[v])
            orbits.append(entry)
        edges = []
        for k, (i, j, a) in enumerate(self.edges):
            entry = {"from": f"v{i}", "to": f"v{j}", "offset": list(a)}
            if self.weights is not None:
                entry["weight"] = out(self.weights[k])
            edges.append(entry)
        return {"dimension": self.dimension, "orbits": orbits, "edges": edges}

    def text(self) -> str:
        return json.dumps(self.document(), sort_keys=True, separators=(",", ":")) + "\n"


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"flatbands-bench/{seed}/{workload}/{index}")


def _canonical(i: int, j: int, a: tuple[int, ...]):
    """Class key up to the orientation identification (i, j, a) = (j, i, -a)."""
    neg = tuple(-e for e in a)
    return min((i, j, a), (j, i, neg))


class _Builder:
    def __init__(self, rng: random.Random, d: int):
        self.rng = rng
        self.d = d
        self.n = 0
        self.edges: list[tuple[int, int, tuple[int, ...]]] = []
        self.keys: set = set()
        self.offsets = [tuple(p) for p in product((-1, 0, 1), repeat=d)]

    def add(self, i: int, j: int, a: tuple[int, ...]) -> bool:
        if i == j and not any(a):
            return False
        key = _canonical(i, j, a)
        if key in self.keys:
            return False
        self.keys.add(key)
        self.edges.append((i, j, a))
        return True

    def dispersive(self, size: int, classes: int) -> None:
        """Connected, non-refittable component with ``classes`` edge classes."""
        rng = self.rng
        orbits = list(range(self.n, self.n + size))
        self.n += size
        rng.shuffle(orbits)
        shifts = {orbits[0]: (0,) * self.d}
        for k in range(1, size):
            i, j = orbits[rng.randrange(k)], orbits[k]
            a = rng.choice(self.offsets)
            self.add(i, j, a)
            shifts[j] = tuple(x + y for x, y in zip(shifts[i], a))
        # one class whose offset breaks the tree potential: nonzero monodromy
        while True:
            i, j = rng.choice(orbits), rng.choice(orbits)
            a = rng.choice(self.offsets)
            if a != tuple(y - x for x, y in zip(shifts[i], shifts[j])) and self.add(i, j, a):
                break
        budget = max(0, classes - size)
        attempts = 0
        while budget and attempts < 200:
            attempts += 1
            if self.add(rng.choice(orbits), rng.choice(orbits), rng.choice(self.offsets)):
                budget -= 1

    def planted(self, size: int, extra: int = 1) -> None:
        """Refittable component: offsets are shift differences s_j - s_i."""
        rng = self.rng
        orbits = list(range(self.n, self.n + size))
        self.n += size
        shifts = {v: rng.choice(self.offsets) for v in orbits}
        for k in range(1, size):  # random spanning tree
            i, j = orbits[rng.randrange(k)], orbits[k]
            self.add(i, j, tuple(b - a for a, b in zip(shifts[i], shifts[j])))
        for _ in range(extra):
            i, j = rng.sample(orbits, 2)
            self.add(i, j, tuple(b - a for a, b in zip(shifts[i], shifts[j])))

    def finish(self, name: str, flat_orbits: int, labels=None) -> Graph:
        """Shuffle orbit order so planted blocks sit anywhere in the matrix."""
        perm = list(range(self.n))
        self.rng.shuffle(perm)
        edges = tuple((perm[i], perm[j], a) for i, j, a in self.edges)
        potentials = weights = None
        if labels is not None:
            pots, weights = labels
            potentials = [Fraction(0)] * self.n
            for v, p in enumerate(pots):
                potentials[perm[v]] = p
            potentials, weights = tuple(potentials), tuple(weights)
        return Graph(name, self.d, self.n, edges, potentials, weights, flat_orbits)


def _potentials(rng: random.Random, count: int, avoid=()) -> list[Fraction]:
    """``count`` distinct potentials in sixteenths of [-2, 2], none in ``avoid``.

    Two orbits with equal potentials whose only neighbour is one common
    orbit carry a compact localized state, an accidental flat band beyond
    the planted ones; distinct potentials rule that out.
    """
    pool = [Fraction(k, 16) for k in range(-32, 33)]
    return rng.sample([p for p in pool if p not in avoid], count)


def _tame(rng: random.Random) -> Fraction:
    """Weight of magnitude in [1/2, 2], sixteenths, random sign."""
    mag = Fraction(rng.randint(8, 32), 16)
    return mag if rng.random() < 0.5 else -mag


# ---------------------------------------------------------------------------
# per-workload shapes

# (n, d, classes per orbit, planted block size) strata of the dispersion
# workload.  Each seed gets the same strata in the same proportions; only
# the random structure inside a stratum changes.  The last two (n = 7..8)
# reach the Bareiss branch of determinant(method="auto"); they are a fifth
# of the ops, so op_p90_s is the median of the Bareiss ops.  They are
# kept sparse because the cost spread of a dense n = 8 determinant (0.1 to
# 10 s) would swamp the run-to-run spread.
DISPERSION_STRATA = (
    (4, 1, 1.5, 0), (5, 2, 1.5, 0), (6, 1, 2.0, 0), (5, 1, 2.0, 3),
    (4, 2, 2.0, 0), (6, 2, 1.5, 0), (5, 2, 1.5, 3), (6, 1, 1.5, 4),
    (8, 1, 1.0, 0), (7, 1, 1.2, 3),
)

# (n, d, classes per dispersive orbit, planted block size); block == n
# makes the whole graph refittable, so its support is a vertical segment.
# Four of ten graphs (n = 5, d = 1, dense) have the costliest hulls; their
# hull ops are the top fifth of the ops, so op_p90_s falls inside that
# group, and op_p50_s falls among the mid-cost ops (ranks 8 to 15 of 20).
# n = 6 shapes are left out: their hull cost spreads too widely (CV 0.7).
NEWTON_STRATA = (
    (4, 1, 2.0, 0), (4, 2, 0.0, 4), (3, 2, 1.5, 0), (4, 2, 1.5, 2),
    (4, 1, 2.5, 0), (5, 2, 1.0, 0), (5, 1, 2.0, 0), (5, 1, 2.0, 0),
    (5, 1, 2.0, 0), (5, 1, 2.0, 0),
)

# (n, d, resolution, kind) with kind in dispersive / planted / lieb.  The
# strata form three cost groups of four ops each: cheap (about 0.05 s at
# the seed code), the n = 3, d = 2 Lieb shape four times (about 0.11 s),
# and the costly rest.  op_p50_s then falls in the middle of the Lieb
# group (ranks 5 to 8 of 12 by cost) and op_p90_s inside the pair of
# n = 6, d = 2 graphs (ranks 11 and 12), not on the edge between two
# groups of different cost.
BANDS_STRATA = (
    (4, 2, 12, "planted"), (3, 2, 16, "lieb"), (3, 1, 96, "lieb"),
    (3, 2, 16, "lieb"), (5, 1, 80, "planted"), (6, 1, 64, "dispersive"),
    (3, 2, 16, "lieb"), (4, 1, 64, "dispersive"), (5, 2, 12, "lieb"),
    (3, 2, 16, "lieb"), (6, 2, 12, "dispersive"), (6, 2, 12, "dispersive"),
)


def dispersion_graph(seed: int, index: int) -> Graph:
    rng = rng_for(seed, "dispersion", index)
    n, d, density, block = DISPERSION_STRATA[index % len(DISPERSION_STRATA)]
    b = _Builder(rng, d)
    core = n - block
    b.dispersive(core, round(density * core))
    if block:
        b.planted(block)
    return b.finish(f"dispersion-{index:04d}", block)


def newton_graph(seed: int, index: int) -> Graph:
    rng = rng_for(seed, "newton", index)
    n, d, density, block = NEWTON_STRATA[index % len(NEWTON_STRATA)]
    b = _Builder(rng, d)
    if block < n:
        b.dispersive(n - block, round(density * (n - block)))
    if block:
        b.planted(block)
    return b.finish(f"newton-{index:04d}", block)


def bands_graph(seed: int, index: int) -> tuple[Graph, int]:
    """Labeled graph plus its grid resolution."""
    rng = rng_for(seed, "bands", index)
    n, d, resolution, kind = BANDS_STRATA[index % len(BANDS_STRATA)]
    b = _Builder(rng, d)
    pots: list[Fraction] = []
    flat = 0
    if kind == "lieb":
        # side A joined only to side B, one potential on A; |A| - |B| <= 2
        # keeps the flat-band polynomial below degree 3 (no sympy)
        size_b = (n - 1) // 2
        size_a = n - size_b
        side_a = list(range(size_a))
        side_b = list(range(size_a, n))
        b.n = n
        first = {}
        for k, v in enumerate(side_a):
            first[v] = rng.choice(b.offsets)
            b.add(v, side_b[k % size_b], first[v])
        # a second class from each B orbit to its first A neighbour, with
        # another offset: every component gets a cycle of nonzero net offset,
        # so c is the only flat band (no component is refittable)
        for k, u in enumerate(side_b):
            v = side_a[k]
            b.add(v, u, rng.choice([a for a in b.offsets if a != first[v]]))
        for _ in range(size_a):
            b.add(rng.choice(side_a), rng.choice(side_b), rng.choice(b.offsets))
        c = Fraction(rng.randint(-16, 16), 8)
        pots = [c] * size_a + _potentials(rng, size_b, avoid=(c,))
        flat = size_a - size_b
    elif kind == "planted":
        b.dispersive(n - 2, round(1.5 * (n - 2)))
        b.planted(2, extra=0)
        p = Fraction(rng.randint(-16, 16), 8)
        pots = _potentials(rng, n - 2, avoid=(p,)) + [p, p]  # dimer: flat bands p +- w
        flat = 2
    else:
        b.dispersive(n, round(1.5 * n))
        pots = _potentials(rng, n)
    weights = [_tame(rng) for _ in b.edges]
    return b.finish(f"bands-{index:04d}", flat, (pots, weights)), resolution


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]
