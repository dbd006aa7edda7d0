"""Floating-point band functions on the momentum torus.

This is the numeric cross-check against exact flat-band detection.  The
Floquet matrix is evaluated at z = (exp(i th_1), .., exp(i th_d)) on a
uniform grid of R^d points.  Each upper-triangle entry is compiled once,
from the pencil template's triples, into (complex coefficient, offset)
terms, and the phase of z^a at grid index k is exp(2 pi i (k . a) / R),
read from one table of R-th roots of unity; the lower triangle is the
conjugate.  The eigenvalues come from Householder reduction to
tridiagonal form and implicit QL with Wilkinson shifts, without
eigenvectors.  Labels are real, so L at -th is the entrywise conjugate
of L at th and has the same spectrum: each pair of opposite grid points
is solved once.  The solved points go through in chunks, in grid order:
each cell of the chunk's matrices is one list over its points, and the
Householder reduction runs once per chunk, as maps over those lists,
while QL runs per point.  Every point sees the same float operations
as it would alone (``hermitian_eigvalsh`` is the chunk of one), so the
eigenvalues do not depend on the chunking.  The complex Jacobi solver
(``hermitian_eigh``) and the pointwise ``floquet_at`` stay as the
reference the tests hold the grid path against.  No external numeric
library is used; plain lists of complex numbers are plenty at this
matrix size.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import product, repeat
from operator import add, mul, sub, truediv
from typing import Sequence, TextIO

from .floquet import FloquetMatrix
from .laurent import LaurentPoly, _evaluate

_JACOBI_SWEEPS = 50
_JACOBI_EPS = 1e-30  # squared off-diagonal mass per element, ~machine precision
_QL_ITERATIONS = 30  # per eigenvalue; Wilkinson shifts converge in two or three

# Largest resolution^d that sample_bands accepts.  At the limit, `bands`
# on the Lieb lattice (d = 2, R = 1024) with CSV output took 15-16 s and
# 186 MB ru_maxrss on a 2-vCPU host.
MAX_GRID_POINTS = 1 << 20

# Matrix entries that sample_bands reduces together: a chunk holds
# _CHUNK_ENTRIES // n^2 grid points (at least one), so its memory does not
# grow with n.  Measured on the sample graphs and 120 benchmark graphs,
# sampling time is flat from 2^12 entries up and up to 1.9x at 2^8.
_CHUNK_ENTRIES = 1 << 13


def evaluate_entry(poly: LaurentPoly, z_values: Sequence[complex]) -> complex:
    """Numeric value of a lam-free Laurent polynomial at a torus point."""
    if poly.lam_degree > 0:
        raise ValueError("matrix entries must not contain the spectral variable")
    return complex(sum(_evaluate(poly, z_values)))  # [] for the zero polynomial


def floquet_at(matrix: FloquetMatrix, z_values: Sequence[complex]) -> list[list[complex]]:
    return [
        [evaluate_entry(entry, z_values) for entry in row]
        for row in matrix.matrix
    ]


def hermitian_defect(matrix: list[list[complex]]) -> float:
    """Largest entrywise deviation from the conjugate transpose."""
    n = len(matrix)
    return max(
        abs(matrix[i][j] - matrix[j][i].conjugate())
        for i in range(n)
        for j in range(n)
    )


def symmetric_jacobi(matrix: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors of a real symmetric matrix.

    Cyclic Jacobi rotations until the off-diagonal mass is negligible.
    Returns eigenvalues ascending with the matching eigenvectors as
    columns (vectors[k] is the k-th eigenvector).  Applied to the real
    embedding [[A, -B], [B, A]] it is the reference that tests hold
    hermitian_eigh against.
    """
    n = len(matrix)
    a = [row[:] for row in matrix]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = sum(abs(a[i][j]) for i in range(n) for j in range(n)) or 1.0
    threshold = _JACOBI_EPS * scale * scale
    for _ in range(_JACOBI_SWEEPS):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) ** 2 <= threshold / (n * n):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    akp, akq = a[p][k], a[q][k]
                    a[p][k] = c * akp - s * akq
                    a[q][k] = s * akp + c * akq
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    order = sorted(range(n), key=lambda k: a[k][k])
    values = [a[k][k] for k in order]
    vectors = [[v[i][k] for i in range(n)] for k in order]
    return values, vectors


def hermitian_eigh(matrix: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Cyclic complex Jacobi.  For each pivot a_pq = |a_pq| e, the unitary
    diag(1, conj(e)) makes it real and a real (c, s) rotation then zeroes
    it; the 2 x 2 block is set in closed form and the rest of rows p, q
    are the conjugates of the updated columns.  Returns eigenvalues
    ascending with the matching eigenvectors (vectors[k] is the k-th).
    """
    n = len(matrix)
    a = [[complex(x) for x in row] for row in matrix]
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    scale = sum(abs(x) for row in a for x in row) or 1.0
    threshold = _JACOBI_EPS * scale * scale
    negligible = threshold / max(n * n, 1)
    for _ in range(_JACOBI_SWEEPS):
        off = sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(i + 1, n))
        if off <= threshold:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq = a[q]
                mag = abs(ap[q])
                if mag * mag <= negligible:
                    continue
                e = ap[q] / mag
                theta = (aq[q].real - ap[p].real) / (2.0 * mag)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                s_ce = s * e.conjugate()
                c_ce = c * e.conjugate()
                for k in range(n):
                    if k == p or k == q:
                        continue
                    ak = a[k]
                    akp, akq = ak[p], ak[q]
                    ak[p] = x = c * akp - s_ce * akq
                    ak[q] = y = s * akp + c_ce * akq
                    ap[k] = x.conjugate()
                    aq[k] = y.conjugate()
                ap[p] = complex(ap[p].real - t * mag)
                aq[q] = complex(aq[q].real + t * mag)
                ap[q] = aq[p] = 0j
                for vk in v:
                    vkp, vkq = vk[p], vk[q]
                    vk[p] = c * vkp - s_ce * vkq
                    vk[q] = s * vkp + c_ce * vkq
    order = sorted(range(n), key=lambda k: a[k][k].real)
    values = [a[k][k].real for k in order]
    vectors = [[v[i][k] for i in range(n)] for k in order]
    return values, vectors


def hermitian_eigvalsh(matrix: list[list[complex]]) -> list[float]:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    The batched kernel on a chunk of one matrix; see _eigvalsh_points.
    Raises ArithmeticError if QL does not converge.
    """
    if not matrix:
        return []
    return _eigvalsh_points([[[x] for x in row] for row in matrix])[0]


def _eigvalsh_points(a: list[list[list[complex]]]) -> list[list[float]]:
    """Ascending eigenvalues of each matrix in a chunk of Hermitian matrices.

    a[i][j][k] is entry (i, j) of the k-th matrix, n >= 1.  Each matrix is
    first scaled by 2^-e, with 2^e just above its largest |entry| (or
    2^-1021 for a subnormal one).  A power of two scales exactly, so the
    eigenvalues come back exactly, and no norm below over- or underflows
    at any float range.
    A complex Householder step per column then reduces it to Hermitian
    tridiagonal form (Martin, Reinsch and Wilkinson, 1968), reading only
    the diagonal and the norms of the subdiagonal; a diagonal phase makes
    that real symmetric with off-diagonals |e_k|, and implicit QL with
    Wilkinson shifts solves it (tql1: Bowdler, Martin, Reinsch and
    Wilkinson, 1968).  Raises ArithmeticError if QL does not converge.

    The reduction runs once per chunk: every step is one map over the
    chunk per matrix cell, with the per-matrix scale, reflector and norms
    held as lists.  Each matrix sees the float operations, in the order
    and on the operand types, that it would see alone, so its eigenvalues
    do not depend on the chunk around it.  QL stays per matrix, since its
    iteration count depends on the data.
    """
    n = len(a)
    largest = [max(x) for x in zip(*[map(abs, cell) for row in a for cell in row])]
    spectra = [[0.0] * n if not x else None for x in largest]
    live = [k for k, x in enumerate(largest) if x]
    if len(live) < len(largest):
        a = [[[cell[k] for k in live] for cell in row] for row in a]
    # 2^1021 is the largest power of two that scales a subnormal up
    exponents = [max(math.frexp(largest[k])[1], -1021) for k in live]
    scales = [math.ldexp(1.0, -e) for e in exponents]
    a = [[list(map(mul, cell, scales)) for cell in row] for row in a]
    diagonal: list[list[float]] = []
    off: list[list[float]] = []
    while len(a) > 1:
        # column 0 below the diagonal, reflected onto -phase * alpha * e_1
        x = [row[0] for row in a[1:]]
        diagonal.append([w.real for w in a[0][0]])
        a = [row[1:] for row in a[1:]]
        alpha = list(map(math.hypot, *[map(abs, column) for column in x]))
        off.append(alpha)
        if len(x) == 1:
            continue
        # a matrix whose column is zero takes no reflection: it runs the
        # step with alpha = 1, and its entries are put back afterwards
        idle = [k for k, norm in enumerate(alpha) if not norm]
        if idle:
            kept = a
            alpha = [norm or 1.0 for norm in alpha]
        # v = x / alpha + phase * e_1 stays near 1 however small alpha is
        v = [list(map(truediv, column, alpha)) for column in x]
        r0 = list(map(abs, v[0]))
        v[0] = [w + (w / r if r else 1.0) for w, r in zip(v[0], r0)]
        h = [1.0 + r for r in r0]
        # H A H with H = I - v v^H / h is A - q v^H - v q^H
        p = [list(map(truediv, _dot(row, v), h)) for row in a]
        cv = [[w.conjugate() for w in column] for column in v]
        half = [s.real / (2.0 * hk) for s, hk in zip(_dot(cv, p), h)]
        q = [list(map(sub, pi, map(mul, half, vi))) for pi, vi in zip(p, v)]
        cq = [[w.conjugate() for w in column] for column in q]
        a = [
            [list(map(sub, map(sub, y, map(mul, qi, cvj)), map(mul, vi, cqj)))
             for y, cvj, cqj in zip(row, cv, cq)]
            for row, qi, vi in zip(a, q, v)
        ]
        if idle:
            for row, old_row in zip(a, kept):
                for cell, old in zip(row, old_row):
                    for k in idle:
                        cell[k] = old[k]
    diagonal.append([w.real for w in a[0][0]])
    solved = zip(zip(*diagonal), zip(*off) if off else repeat(()), exponents)
    for k, (d, e, exponent) in zip(live, solved):
        values = sorted(_tridiagonal_ql(list(d), list(e)))
        spectra[k] = [math.ldexp(value, exponent) for value in values]
    return spectra


def _dot(rows: list[list], columns: list[list]) -> list:
    """Per matrix, sum(rows[j] * columns[j]) added from 0 in the order of j,
    as the builtin sum adds complex numbers."""
    total = [0] * len(columns[0])
    for row, column in zip(rows, columns):
        total = list(map(add, total, map(mul, row, column)))
    return total


def _tridiagonal_ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by implicit QL.

    e[i] couples d[i] and d[i + 1]; both lists are overwritten.  This is
    tql1 with the Wilkinson-type shift from the leading 2 x 2 block; an
    off-diagonal counts as zero once it is below machine epsilon times
    the sum of its two diagonal neighbours.
    """
    n = len(d)
    e.append(0.0)
    hypot, eps = math.hypot, sys.float_info.epsilon
    for l in range(n):
        for iteration in range(_QL_ITERATIONS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iteration == _QL_ITERATIONS:
                raise ArithmeticError("tridiagonal QL did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if not r:
                    # the rotation split the block: deflate and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


@dataclass(frozen=True)
class BandSample:
    """Sorted band functions on a uniform torus grid.

    ``grid`` holds the angle tuples, ``bands[k]`` the ascending
    eigenvalues at grid point k, and ``flatness[j]`` the spread
    max - min of band j across the grid.
    """

    resolution: int
    grid: tuple[tuple[float, ...], ...]
    bands: tuple[tuple[float, ...], ...]
    flatness: tuple[float, ...]


def _compile_upper(matrix: FloquetMatrix):
    """The upper triangle as terms (complex coefficient, offset slot).

    Reads the template's lam-free triples with column >= row.  Returns the
    distinct z-offsets and the nonzero cells (i, j, terms) with i <= j.
    Raises ValueError when a row's sum of |coefficients|, a bound on every
    entry and eigenvalue on the torus, is beyond the float range.
    """
    rows = matrix._template.triples(matrix.labeling)
    n = len(rows)
    slots: dict[tuple[int, ...], int] = {}
    cells = []
    reach = [0.0] * n
    for i, row in enumerate(rows):
        upper: dict[int, list[tuple[complex, int]]] = {}
        for j, key, coeff in row:
            if j >= i and not key[-1]:
                term = (complex(coeff), slots.setdefault(key[:-1], len(slots)))
                upper.setdefault(j, []).append(term)
        for j, terms in sorted(upper.items()):
            cells.append((i, j, terms))
            size = sum(abs(coeff) for coeff, _ in terms)
            reach[i] += size
            if j != i:
                reach[j] += size
    if not all(map(math.isfinite, reach)):
        raise ValueError("Floquet matrix entries reach beyond the float range on the torus")
    return list(slots), cells


def check_grid(resolution: int, dimension: int) -> None:
    """Refuse a grid that sample_bands does not sample, before any work.

    Raises ValueError for a resolution below 2 and for more than
    MAX_GRID_POINTS points.  Since resolution >= 2, a dimension of
    MAX_GRID_POINTS.bit_length() or more is refused without raising the
    resolution to that power.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    if (dimension >= MAX_GRID_POINTS.bit_length()
            or resolution ** dimension > MAX_GRID_POINTS):
        raise ValueError(
            f"a grid of {resolution}^{dimension} points exceeds the limit of "
            f"{MAX_GRID_POINTS} grid points"
        )


def _chunk_entries(n: int, cells, offsets, roots: list[complex],
                   indices: list[tuple[int, ...]]) -> list[list[list[complex]]]:
    """L at each grid index of a chunk: entry (i, j) as a list over the chunk.

    The diagonal is real, the lower triangle is the conjugate of the upper,
    and cells with no term hold 0j.
    """
    count, resolution = len(indices), len(roots)
    phases = [
        [roots[sum(map(mul, index, a)) % resolution] for index in indices]
        for a in offsets
    ]
    zero = [0j] * count
    entries = [[zero] * n for _ in range(n)]
    for i, j, terms in cells:
        value = zero
        for coeff, slot in terms:
            value = list(map(add, value, map(coeff.__mul__, phases[slot])))
        if i == j:
            entries[i][i] = [w.real for w in value]
        else:
            entries[i][j] = value
            entries[j][i] = [w.conjugate() for w in value]
    return entries


def sample_bands(matrix: FloquetMatrix, resolution: int = 16) -> BandSample:
    """Band functions of a real labeling sampled at resolution^d points.

    Takes the Floquet matrix rather than the graph and labeling, so a
    caller that also wants the exact dispersion builds the matrix once.
    Refuses grids of more than MAX_GRID_POINTS points before any work.
    """
    graph = matrix.graph
    n, d = graph.num_orbits, graph.dimension
    check_grid(resolution, d)
    offsets, cells = _compile_upper(matrix)
    angles = [2.0 * math.pi * k / resolution for k in range(resolution)]
    half = resolution // 2
    roots = [cmath.exp(1j * th) for th in angles[: half + 1]]
    roots += [roots[resolution - m].conjugate() for m in range(half + 1, resolution)]
    place = [resolution ** (d - 1 - t) for t in range(d)]
    chunk_points = max(1, _CHUNK_ENTRIES // (n * n))
    bands: list[tuple[float, ...] | None] = []
    chunk: list[tuple[int, tuple[int, ...]]] = []  # (flat, index) still to solve
    copies: list[tuple[int, int]] = []  # (flat, mirror) whose mirror is in chunk

    def solve() -> None:
        entries = _chunk_entries(n, cells, offsets, roots, [index for _, index in chunk])
        for (flat, _), values in zip(chunk, _eigvalsh_points(entries)):
            bands[flat] = tuple(values)
        for flat, mirror in copies:
            bands[flat] = bands[mirror]
        chunk.clear()
        copies.clear()

    for flat, index in enumerate(product(range(resolution), repeat=d)):
        # real labels: L at the opposite point is the conjugate, same spectrum
        mirror = sum((-k % resolution) * w for k, w in zip(index, place))
        if mirror < flat:
            if bands[mirror] is None:
                copies.append((flat, mirror))
            bands.append(bands[mirror])
            continue
        bands.append(None)
        chunk.append((flat, index))
        if len(chunk) == chunk_points:
            solve()
    if chunk:
        solve()
    flatness = tuple(max(column) - min(column) for column in zip(*bands))
    return BandSample(
        resolution=resolution,
        grid=tuple(product(angles, repeat=d)),
        bands=tuple(bands),
        flatness=flatness,
    )


def numeric_flat_flags(sample: BandSample, tol: float) -> list[int]:
    """1-based indices of bands whose spread stays below the tolerance."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return [j + 1 for j, spread in enumerate(sample.flatness) if spread < tol]


def flat_energy_presence(sample: BandSample, energy: float,
                         multiplicity: int = 1, tol: float = 1e-8) -> bool:
    """Whether the energy stays in the sampled spectrum at every grid point.

    Sorted band functions swap branches where bands cross, so a constant
    eigenvalue does not always show up as a single flat row of the
    sample.  This checks the per-point spectrum instead: at least
    ``multiplicity`` eigenvalues within ``tol`` of ``energy`` everywhere.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    return all(
        sum(1 for value in row if abs(value - energy) < tol) >= multiplicity
        for row in sample.bands
    )


def write_csv(sample: BandSample, stream: TextIO) -> None:
    """Dump the grid and band values, one grid point per row."""
    d = len(sample.grid[0]) if sample.grid else 0
    n = len(sample.bands[0]) if sample.bands else 0
    header = [f"theta_{k + 1}" for k in range(d)] + [f"band_{j + 1}" for j in range(n)]
    stream.write(",".join(header) + "\n")
    for point, values in zip(sample.grid, sample.bands):
        row = [repr(x) for x in point] + [repr(x) for x in values]
        stream.write(",".join(row) + "\n")
