"""Newton polytopes of dispersion polynomials: supports, faces, witnesses.

Points live in Z^(d+1): the first d coordinates are momentum exponents
(the z-part) and the last is the lam exponent.  Hull computations are
exact and run in integers, with no Fraction, no float and no tolerance.

`extreme_points` finds the vertices of conv(S) in three steps.  A point
that is the midpoint of two other points is never a vertex, and one
pass over the points packed into single integers drops all of those.
Fraction-free elimination then finds the affine rank r of the rest and
r pivot coordinates; projecting onto them is injective on the rest's
affine hull, and an injective affine map keeps which points are
vertices.  Rank 0 or 1 leaves the two end points, rank 2 the monotone
chain `_hull_cycle_2d`, and rank 3 and up an integer beneath-beyond:
simplicial facets with primitive integer outward normals, to which the
points are added one at a time.  A point that strictly sees no facet
lies in the hull of the points before it, so it is no vertex.  A point
that sees some replaces them by the cone over the horizon.  At the end a
facet vertex is a hull vertex exactly when the normals of its facets
have rank r, which drops points inside a face or an edge.  Membership
is read off the same hull: `in_convex_hull` asks whether the point is a
vertex of the hull with the point added.

The generic support, the support of the dispersion D(z, lam) when every
potential and weight is its own indeterminate, is computed exactly from
the graph and needs no labels.  Expand D = det(L(z) - lam I) over
permutations and each entry into its monomials.  A term is a cycle
cover of the orbits: each fixed orbit picks its potential, -lam or a
self-class term w z^(+-a), and each longer cycle picks one class per
step between two orbits.  The label monomial of a term names the
classes it used, with multiplicity.  Those between two orbits form a
multigraph in which every covered orbit has degree two, so its
components are the cover's cycles; the potentials and self classes name
the other diagonal picks, and the orbits left over pick -lam.  The sign
of the term, (-1)^(number of lam picks) times the permutation's sign
(-1)^(sum of cycle length - 1), is therefore fixed by its label
monomial.  Terms with one label monomial, one z-power and one lam power
share a sign and cannot cancel, so the coefficient of z^a lam^b is a
nonzero polynomial in the labels exactly when some cover reaches
(a, b).  The generic support is thus the support of the permanent of
the pencil's 0/1 pattern.  `flatbands.laurent.support_leibniz` reads it
off the packed keys of the graph's `floquet.PencilTemplate`, running the
determinant expander on unit, sign-free rows; no label is filled in.

Facial independence witnesses are exact too and need no labels.  Let S
be the generic support, w = (w', 0) the normal of a vertical face, and
m the least w.p over S, so the face is F = {p in S : w.p = m}.  The
potential p_v enters the pencil only at entry (v, v), so the terms of D
that contain p_v are exactly p_v times the terms of the principal
cofactor C_v, the determinant without row and column v.  Their label
monomials contain p_v, so by the argument above they survive for
generic labels: supp(C_v) lies in S, and every q in it has w.q >= m.
The facial polynomial therefore depends on p_v exactly when the least
w.q over supp(C_v) equals m.  That support is the permanent support of
the pattern without row and column v, so its least w.q is the min-plus
permanent of the matrix W whose entry (i, j) is the least w.key over
the pattern keys of pencil entry (i, j), with row and column v deleted:
min(0, -|w'.a| over the self classes a of orbit i) on the diagonal, where
the potential and -lam sit at weight 0, and w'.a on (i, j) and -w'.a on
(j, i) for a class (i, j, a).  The diagonal is never empty, so every
such permanent is finite.  `_minplus_permanent` expands it row by row
over the column masks that `det_packed` walks, with no recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import AbstractSet, Iterable, Sequence

from .floquet import FloquetMatrix, PencilTemplate
from .graph import Labeling, PeriodicGraph
from .laurent import LaurentPoly, _coerce, _row_masks, support_leibniz

Point = tuple[int, ...]


@dataclass(frozen=True)
class FaceDescriptor:
    """Proper face of a support hull: w·p = min_value on members."""

    normal: tuple[int, ...]
    min_value: int
    members: frozenset[Point]


@dataclass(frozen=True)
class NewtonPolytopeData:
    """Support points with hull extremes and (d <= 2) vertical faces."""

    dimension: int
    support_points: frozenset[Point]
    hull_vertices: frozenset[Point]
    face_descriptors: tuple[FaceDescriptor, ...] | None


def generic_support(graph: PeriodicGraph | PencilTemplate) -> frozenset[Point]:
    """Exact support of the dispersion for generic labels.

    Every potential and weight is taken as its own indeterminate.  The
    terms of det(L(z) - lam I) that share a label monomial, a z-power and
    a lam power come from cycle covers with one cycle structure and one
    number of lam picks, so they share a sign and never cancel (see the
    module docstring).  The generic support is therefore the support of
    the permanent of the pencil's 0/1 pattern: the constant and lam on
    the diagonal, z^(+-a) for each self class, and z^a / z^-a off the
    diagonal.  It contains the support of every labeled dispersion, and
    equals it for labels off a proper algebraic subset.  A caller that
    already holds the graph's `PencilTemplate` may pass it instead of the
    graph, so that one template serves its labelings and the support.
    That second input mode exists only because the benchmark tracer's
    `polytope.support` span wraps this name; once the tracer wraps
    another, such a caller can call `support_leibniz(template.packed)`
    and this function can take the graph alone again.
    """
    template = graph if isinstance(graph, PencilTemplate) else PencilTemplate(graph)
    return support_leibniz(template.packed)


def _common_length(points: Iterable[Sequence]) -> int:
    """The length shared by every point of a nonempty set.

    Points of mixed lengths raise ValueError naming the lengths, before
    any hull or face computation reads a coordinate.
    """
    lengths = {len(p) for p in points}
    if len(lengths) != 1:
        raise ValueError(f"points have mixed lengths {sorted(lengths)}")
    return lengths.pop()


def is_vertical_segment(points: Iterable[Point]) -> bool:
    """True when every support point sits on the lam axis (zero z-part)."""
    pts = list(points)
    if not pts:
        raise ValueError("empty support has no polytope")
    return all(all(e == 0 for e in p[:-1]) for p in pts)


# ---------------------------------------------------------------------------
# hull vertices: midpoint pass, affine rank, integer beneath-beyond


def extreme_points(points: Iterable[Point]) -> frozenset[Point]:
    """Points not expressible as convex combinations of the others.

    Rational points are first scaled by the lcm of their denominators,
    which keeps which points are vertices.  Then three exact steps:

    - Midpoints go first.  If p = (a + b)/2 for support points a != b,
      then p is in conv(S without p) and is not a vertex.  In integers,
      p is such a midpoint exactly when the reflection 2p - a of some
      other point a is in the support.  The pass runs on one int per
      point: shifted by its per-axis minimum, every coordinate lies in
      [0, span], and the point packs to sum(x_k * B**k) with
      B = 3 * span + 1.  The packing is linear, so 2p - a packs to
      2 key(p) - key(a), and every coordinate of 2p - a lies in
      [-span, 2 span], a window of B values, on which the packing is
      injective.  So 2p - a is in S exactly when 2 key(p) - key(a) is
      one of the keys.  The vertices V of conv(S) all survive, and the
      survivors' hull is conv(V) = conv(S), so its vertices are V.
    - The affine rank r of the survivors and r pivot coordinates come
      from `_independent_rows` on their differences to the first
      survivor.  The projection onto the pivot coordinates is an affine
      map, injective on the survivors' affine hull, so it maps their hull
      onto the hull of the images and vertices onto vertices.
    - For r <= 1 the vertices are the lexicographic least and greatest
      survivors, the two ends of their segment.  For r = 2 they are the
      points of `_hull_cycle_2d`, which drops collinear points, and for
      r >= 3 those `_beneath_beyond` returns.
    """
    pts = sorted(set(points))
    if not pts:
        return frozenset()
    _common_length(pts)
    if not all(type(x) is int for p in pts for x in p):
        # the packing below is injective on ints only; one common scale
        # makes every point integral and keeps which points are vertices
        exact = [[_coerce(x, "point coordinates") for x in p] for p in pts]
        scale = math.lcm(*(x.denominator for p in exact for x in p))
        scaled = {tuple(x.numerator * (scale // x.denominator) for x in q): p
                  for q, p in zip(exact, pts)}
        return frozenset(scaled[v] for v in extreme_points(scaled))
    lows = [min(axis) for axis in zip(*pts)]
    span = max(max(axis) - low for axis, low in zip(zip(*pts), lows))
    powers = [(3 * span + 1) ** k for k in range(len(lows))]
    keys = [sum([(x - low) * power for x, low, power in zip(p, lows, powers)])
            for p in pts]
    present = set(keys)
    candidates = [
        p for p, key in zip(pts, keys)
        if not any(2 * key - other in present for other in keys if other != key)
    ]
    base = candidates[0]
    independent, pivots = _independent_rows(
        ([x - b for x, b in zip(p, base)] for p in candidates[1:]), len(base))
    rank = len(pivots)
    if rank <= 1:
        # on a line the lexicographic order is the order along it
        return frozenset((candidates[0], candidates[-1]))
    projected = (candidates if rank == len(base)
                 else [tuple(p[c] for c in pivots) for p in candidates])
    if rank == 2:
        back = dict(zip(projected, candidates))
        return frozenset(back[v] for v in _hull_cycle_2d(projected))
    simplex = [0] + [k + 1 for k in independent]
    return frozenset(candidates[k] for k in _beneath_beyond(projected, simplex))


def _independent_rows(rows: Iterable[Sequence[int]], limit: int) -> tuple[list[int], list[int]]:
    """Indices of the rows that raise the rank, and the pivot column of each.

    Fraction-free elimination, one row at a time.  A row is reduced by
    the pivot rows found so far, in the order found: for pivot column c
    and p = pivot[c], the row becomes p * row - row[c] * pivot, which
    zeroes column c and leaves the earlier pivot columns at zero.  A row
    left nonzero is independent of the rows before it.  Its first nonzero
    column becomes its pivot, and it is divided by its content to keep
    the integers small.  Stops once `limit` rows are found.

    On the span of the rows, the projection onto the pivot columns is
    injective: the pivot rows restricted to those columns form a
    triangular matrix with a nonzero diagonal.
    """
    basis: list[tuple[int, list[int]]] = []
    found = []
    for k, row in enumerate(rows):
        for col, pivot in basis:
            f = row[col]
            if f:
                p = pivot[col]
                row = [p * x - f * y for x, y in zip(row, pivot)]
        col = next((c for c, x in enumerate(row) if x), -1)
        if col < 0:
            continue
        g = math.gcd(*row)
        basis.append((col, [x // g for x in row]))
        found.append(k)
        if len(basis) == limit:
            break
    return found, [col for col, _ in basis]


def _simplex_normals(pts: list[Point], simplex: list[int]) -> list[tuple[Point, int]]:
    """Primitive outward normal and offset of each facet of a full simplex.

    Facet j is the one opposite vertex simplex[j].  With v0 = pts[simplex[0]]
    and M the r x r matrix of edge rows v_j - v0 (j = 1..r), a point x has
    barycentric coordinates lam_j = col_j(M^-1).(x - v0) for j >= 1 and
    lam_0 = 1 - sum lam_j, positive inside.  So the outward normal of facet
    j >= 1 is -col_j(M^-1) and that of facet 0 is the sum of the columns:
    up to a positive factor, the signed cofactors of the facet's r - 1
    edge vectors (for r = 3, their cross product).  One fraction-free
    Gauss-Jordan pass on [M | I] gives [diag(D) | diag(D) M^-1], and
    scaling row i by lcm(D) / D_i makes M^-1 integral with a positive
    factor.
    """
    r = len(pts[0])
    v0 = pts[simplex[0]]
    rows = [[x - b for x, b in zip(pts[j], v0)] + [int(i == k) for k in range(r)]
            for i, j in enumerate(simplex[1:])]
    for c in range(r):
        p = next(i for i in range(c, r) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and f:
                row = [pivot[c] * x - f * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row]
    scale = math.lcm(*(row[i] for i, row in enumerate(rows)))
    inverse = [[x * (scale // row[i]) for x in row[r:]] for i, row in enumerate(rows)]
    normals = [tuple(map(sum, inverse))]
    normals += [tuple(-row[j] for row in inverse) for j in range(r)]
    out = []
    for j, normal in enumerate(normals):
        normal = _primitive(normal)
        # facet 0 holds simplex[1], and every other facet holds simplex[0]
        out.append((normal, sum(map(mul, normal, pts[simplex[j == 0]]))))
    return out


class _Facet:
    """A simplicial facet: `neighbours[i]` shares every vertex but `verts[i]`."""

    __slots__ = ("verts", "normal", "offset", "neighbours")

    def __init__(self, verts: tuple[int, ...], normal: Point, offset: int,
                 neighbours: list):
        self.verts = verts
        self.normal = normal
        self.offset = offset
        self.neighbours = neighbours


def _beneath_beyond(pts: list[Point], simplex: list[int]) -> list[int]:
    """Indices of the vertices of conv(pts), for points spanning Z^r, r >= 3.

    `simplex` holds r + 1 affinely independent indices.  The hull is kept
    as simplicial facets, each with a primitive integer outward normal n
    and offset c = n.v on its vertices, and each knows its neighbour
    across every ridge.  Point q sees facet F when h_F(q) = n.q - c > 0.
    A point that sees no facet lies in the current hull, so it is no
    vertex and is passed over.  Otherwise the facets it sees go, and each
    horizon ridge R, between a seen facet F and an unseen neighbour G,
    gets the new facet R + q.  Its hyperplane is G's rotated about R:
    h = h_F(q) h_G - h_G(q) h_F vanishes on R and at q.  Inside the hull
    h_F and h_G are negative, and h_F(q) > 0 >= h_G(q), so h is negative
    there too: the normal comes out outward, with no determinant.  Two new
    facets meet across R' + q, where R' is a horizon ridge without one of
    its vertices.

    Facets in one hyperplane stay separate, so a point inside a face or
    an edge of the final hull can stay a facet vertex.  A facet vertex is
    a hull vertex exactly when the normals of its facets have rank r:
    they span a space of dimension r minus that of the smallest face that
    holds the point.  For r = 3 a point inside an edge or a 2-face has at
    most two distinct normals, so three distinct ones suffice.
    """
    r = len(pts[0])
    hull = [_Facet(tuple(u for u in simplex if u != v), normal, offset, [])
            for v, (normal, offset) in zip(simplex, _simplex_normals(pts, simplex))]
    opposite = dict(zip(simplex, hull))
    for facet in hull:
        facet.neighbours = [opposite[u] for u in facet.verts]
    start = set(simplex)
    for k, q in enumerate(pts):
        if k in start:
            continue
        seen = {f: h for f in hull if (h := sum(map(mul, f.normal, q)) - f.offset) > 0}
        if not seen:
            continue
        links: dict[frozenset, tuple[_Facet, int]] = {}
        for f, h_f in seen.items():
            for i, g in enumerate(f.neighbours):
                if g in seen:
                    continue
                ridge = f.verts[:i] + f.verts[i + 1:]
                h_g = sum(map(mul, g.normal, q)) - g.offset
                normal = _primitive(tuple([h_f * a - h_g * b
                                           for a, b in zip(g.normal, f.normal)]))
                new = _Facet(ridge + (k,), normal, sum(map(mul, normal, q)),
                             [None] * (r - 1) + [g])
                g.neighbours[g.neighbours.index(f)] = new
                for j in range(r - 1):
                    key = frozenset(ridge[:j] + ridge[j + 1:])
                    mate = links.pop(key, None)
                    if mate is None:
                        links[key] = (new, j)
                    else:
                        mate[0].neighbours[mate[1]] = new
                        new.neighbours[j] = mate[0]
                hull.append(new)
        # facets link each other in cycles: unlink each one that goes, so
        # that reference counting frees it without the cycle collector
        for f in seen:
            f.neighbours = None
        hull = [f for f in hull if f not in seen]
    incident: dict[int, set[Point]] = {}
    for f in hull:
        f.neighbours = None
        for v in f.verts:
            incident.setdefault(v, set()).add(f.normal)
    return [v for v, normals in incident.items()
            if len(normals) >= r and (r == 3 or len(_independent_rows(normals, r)[0]) == r)]


def minkowski_sum(a: Iterable[Point], b: Iterable[Point]) -> frozenset[Point]:
    return frozenset(tuple(x + y for x, y in zip(p, q)) for p in a for q in b)


def hulls_equal(a: Iterable[Point], b: Iterable[Point]) -> bool:
    """Whether two point sets span the same convex hull."""
    return extreme_points(a) == extreme_points(b)


def in_convex_hull(point: Sequence[int], points: Iterable[Point]) -> bool:
    """Exact test for membership of `point` in conv(points).

    A point q outside conv(P) is a vertex of conv(P and q), and a point
    inside conv(P) but not in P is not, so q is in conv(P) exactly when
    it is in P or is no vertex of `extreme_points` of P and q.
    """
    pts = list(points)
    if not pts:
        return False
    _common_length([point, *pts])
    # floats and bools go before any set is formed: 0.0 and True equal
    # the ints 0 and 1, and a set would merge them into an int point
    q, *pts = [tuple(x if type(x) is int else _coerce(x, "point coordinates") for x in p)
               for p in (point, *pts)]
    return q in pts or q not in extreme_points([q, *pts])


# ---------------------------------------------------------------------------
# face enumeration through the z-projection (d <= 2)


def _primitive(vector: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vector)
    return tuple([e // g for e in vector]) if g else vector


def _hull_cycle_2d(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Counterclockwise hull cycle (monotone chain, collinear points dropped)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def projected_face_normals(z_parts: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Inward normals identifying every proper face of conv(z_parts).

    For an interval these are the two axis directions; for a polygon the
    edge normals plus, for each vertex, the sum of its two edge normals
    (a vector in the open normal cone of that vertex).  Dimensions above
    2 raise ValueError.
    """
    dim = len(next(iter(z_parts)))
    if dim > 2:
        raise ValueError(f"face enumeration supports d <= 2, got d = {dim}")
    if dim == 1:
        values = {z[0] for z in z_parts}
        if len(values) == 1:
            return []
        return [(1,), (-1,)]
    cycle = _hull_cycle_2d([(z[0], z[1]) for z in z_parts])
    if len(cycle) == 1:
        return []
    if len(cycle) == 2:
        (ax, ay), (bx, by) = cycle
        direction = _primitive((bx - ax, by - ay))
        return [direction, tuple(-e for e in direction)]
    normals: list[tuple[int, ...]] = []
    edge_normals = []
    for k in range(len(cycle)):
        ax, ay = cycle[k]
        bx, by = cycle[(k + 1) % len(cycle)]
        edge_normals.append(_primitive((-(by - ay), bx - ax)))
    normals.extend(edge_normals)
    for k in range(len(cycle)):
        prev = edge_normals[k - 1]
        nxt = edge_normals[k]
        normals.append(_primitive((prev[0] + nxt[0], prev[1] + nxt[1])))
    return normals


def face_of(points: Iterable[Point], weights: Sequence[int]) -> FaceDescriptor:
    """The (possibly improper) face of conv(points) minimizing the weight."""
    pts = list(points)
    w = tuple(weights)
    values = [sum(map(mul, w, p)) for p in pts]
    m = min(values)
    members = frozenset(p for p, v in zip(pts, values) if v == m)
    return FaceDescriptor(normal=w, min_value=m, members=members)


def _has_vertical_pair(members: Iterable[Point]) -> bool:
    seen: set[tuple[int, ...]] = set()
    for p in members:
        if p[:-1] in seen:
            return True
        seen.add(p[:-1])
    return False


def _lifted_faces(points: list[Point]) -> list[FaceDescriptor]:
    """The face of conv(points) at (w', 0) for each projected normal w', in order.

    The one scan of the z-projection's faces (d <= 2), read by both
    `vertical_faces` and `flatband.vertical_segment_face_witness`.
    """
    z_parts = {p[:-1] for p in points}
    return [face_of(points, w + (0,)) for w in sorted(projected_face_normals(z_parts))]


def vertical_faces(points: Iterable[Point]) -> list[FaceDescriptor]:
    """Proper hull faces with momentum-only normals and a vertical pair.

    Faces are found by projecting out the lam coordinate, enumerating the
    proper faces of the projected hull, and lifting each normal w' to
    (w', 0); they come out in ascending normal order.  A face qualifies
    when two of its support points share the z-part but differ in lam.
    Qualifying faces must satisfy m < 0; a violation means the input was
    not a dispersion support.
    """
    pts = list(set(points))
    if not pts:
        raise ValueError("empty support has no faces")
    d = _common_length(pts) - 1
    if d > 2:
        raise ValueError(f"face enumeration supports d <= 2, got d = {d}")
    if is_vertical_segment(pts):
        raise ValueError("vertical-segment support has no proper vertical faces")
    faces = [face for face in _lifted_faces(pts) if _has_vertical_pair(face.members)]
    for face in faces:
        if face.min_value >= 0:
            raise ValueError(
                f"vertical face at {face.normal} has minimum "
                f"{face.min_value} >= 0; not a dispersion support"
            )
    return faces


def newton_polytope_data(points: Iterable[Point]) -> NewtonPolytopeData:
    """Bundle support, hull vertices, and (d <= 2) vertical faces."""
    pts = frozenset(tuple(p) for p in points)
    if not pts:
        raise ValueError("empty support")
    dimension = _common_length(pts)
    descriptors: tuple[FaceDescriptor, ...] | None
    if dimension - 1 > 2:
        descriptors = None
    elif is_vertical_segment(pts):
        descriptors = ()
    else:
        descriptors = tuple(vertical_faces(pts))
    return NewtonPolytopeData(
        dimension=dimension,
        support_points=pts,
        hull_vertices=extreme_points(pts),
        face_descriptors=descriptors,
    )


# ---------------------------------------------------------------------------
# facial independence in the potentials


def facial_independence_witness(graph: PeriodicGraph, face: FaceDescriptor,
                                support_points: AbstractSet[Point]) -> int | None:
    """Orbit whose potential the facial polynomial provably ignores.

    Potential p_v enters the pencil only at entry (v, v), so the terms of
    D that contain p_v are p_v times the terms of the principal cofactor
    C_v, and the facial polynomial ignores p_v exactly when no term of
    C_v lies on the face.  For generic labels that holds exactly when the
    min-plus permanent of the face weights W without row and column v
    exceeds the face minimum m (see the module docstring), so the test
    draws no labels and takes no determinant.  Returns the first such
    orbit index (0-based), or None when every potential reaches the face.

    `face` is the caller's `face_of` descriptor on `support_points`, the
    graph's `generic_support`, and must be a proper vertical face of it.
    With two or more orbits the min-plus permanent of the whole of W is
    the least w.p over that support, and a face whose minimum differs
    raises ValueError.  A one-orbit graph has no vertical face in its
    generic support; there the cofactor is the empty determinant 1,
    tested against the given face directly.
    """
    w = face.normal
    if len(w) != graph.dimension + 1 or w[-1] != 0:
        raise ValueError("weight vector must have a zero lam component")
    members = face.members
    if len(members) == len(support_points):
        raise ValueError("weight vector identifies the whole polytope, not a proper face")
    if not _has_vertical_pair(members):
        raise ValueError("face has no vertical pair; not a vertical face")

    n = graph.num_orbits
    if n == 1:
        # the cofactor of a 1 x 1 pencil is the empty determinant, 1
        return None if (0,) * len(w) in members else 0
    rows = _face_weights(graph, w[:-1])
    full = (1 << n) - 1
    m = face.min_value
    if _minplus_permanent(rows, full) != m:
        raise ValueError("support_points is not the generic support of the graph")
    for orbit in range(n):
        if _minplus_permanent(rows[:orbit] + rows[orbit + 1:], full ^ (1 << orbit)) > m:
            return orbit
    return None


def _face_weights(graph: PeriodicGraph, normal: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Rows of W as (column bit, weight) pairs: the least w'.key per pencil entry.

    The potential and -lam put weight 0 on every diagonal entry.  A class
    (i, j, a) puts w'.a on entry (i, j) and -w'.a on entry (j, i), the
    orientation of the Floquet matrix; a self class puts both on (i, i).
    """
    least = [{v: 0} for v in range(graph.num_orbits)]
    for i, j, a in graph.edge_classes:
        value = sum(map(mul, normal, a))
        for row, col, weight in ((i, j, value), (j, i, -value)):
            if weight < least[row].get(col, weight + 1):
                least[row][col] = weight
    return [[(1 << col, weight) for col, weight in row.items()] for row in least]


def _minplus_permanent(rows: list[list[tuple[int, int]]], mask: int) -> int | None:
    """Least total weight of a matching of `rows` onto the columns in `mask`.

    The row-by-row expansion of `flatbands.laurent.det_packed` over the
    column masks of `flatbands.laurent._row_masks`, with no recursion,
    min and + on ints in place of the sums and products of coefficients,
    and only the minors of the row below kept.  None marks no matching.
    """
    below = {0: 0}
    for row, masks in zip(reversed(rows), reversed(_row_masks(rows, mask))):
        minors = {}
        for left in masks:
            best = None
            for bit, weight in row:
                # a column outside left gives a mask no minor below has
                sub = below.get(left ^ bit)
                if sub is not None and (best is None or weight + sub < best):
                    best = weight + sub
            if best is not None:
                minors[left] = best
        below = minors
    return below.get(mask)


# ---------------------------------------------------------------------------
# permutation products


def permutation_product(matrix: FloquetMatrix, sigma: Sequence[int]) -> LaurentPoly:
    """Product of pencil entries (i, sigma(i)): one determinant summand."""
    n = matrix.size
    perm = list(sigma)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    d = matrix.graph.dimension
    acc = LaurentPoly.constant(d, 1)
    for row, col in zip(matrix._template.triples(matrix.labeling), perm):
        acc = acc * LaurentPoly._from_terms(d, {key: coeff for j, key, coeff in row if j == col})
    return acc


def sigma_support_check(graph: PeriodicGraph, labeling: Labeling,
                        sigma: Sequence[int]) -> bool:
    """Whether the permutation product's support sits inside the generic one."""
    product = permutation_product(FloquetMatrix(graph, labeling), sigma)
    return product.support() <= generic_support(graph)
