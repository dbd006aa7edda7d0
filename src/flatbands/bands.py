"""Floating-point band functions on the momentum torus.

This is the numeric cross-check against exact flat-band detection.  The
Floquet matrix is evaluated at z = (exp(i th_1), .., exp(i th_d)) on a
uniform grid, symmetrized, and diagonalized by cyclic complex Jacobi
rotations applied directly to the n x n Hermitian matrix.  Labels are
real, so L at -th is the entrywise conjugate of L at th and has the same
spectrum: each pair of opposite grid points is diagonalized once.  No
external numeric library is used; plain lists of complex numbers are
plenty at this matrix size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence, TextIO

from .floquet import FloquetMatrix
from .laurent import LaurentPoly

_JACOBI_SWEEPS = 50
_JACOBI_EPS = 1e-30  # squared off-diagonal mass per element, ~machine precision


def evaluate_entry(poly: LaurentPoly, z_values: Sequence[complex]) -> complex:
    """Numeric value of a lam-free Laurent polynomial at a torus point."""
    total = 0j
    for key, coeff in poly.items():
        if key[-1] != 0:
            raise ValueError("matrix entries must not contain the spectral variable")
        value = complex(coeff)
        for z, e in zip(z_values, key[:-1]):
            value *= z ** e
        total += value
    return total


def floquet_at(matrix: FloquetMatrix, z_values: Sequence[complex]) -> list[list[complex]]:
    return [
        [evaluate_entry(entry, z_values) for entry in row]
        for row in matrix.matrix.entries
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


def sample_bands(matrix: FloquetMatrix, resolution: int = 16) -> BandSample:
    """Band functions of a real labeling sampled at resolution^d points.

    Takes the Floquet matrix rather than the graph and labeling, so a
    caller that also wants the exact dispersion builds the matrix once.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    graph = matrix.graph
    n = graph.num_orbits
    angles = [2.0 * math.pi * k / resolution for k in range(resolution)]
    grid = []
    bands = []
    solved: dict[tuple[int, ...], tuple[float, ...]] = {}
    for index in product(range(resolution), repeat=graph.dimension):
        point = tuple(angles[k] for k in index)
        # real labels: L at the opposite point is the conjugate, same spectrum
        values = solved.get(tuple(-k % resolution for k in index))
        if values is None:
            z_values = [cmath.exp(1j * th) for th in point]
            numeric = floquet_at(matrix, z_values)
            for i in range(n):
                for j in range(i, n):
                    mean = 0.5 * (numeric[i][j] + numeric[j][i].conjugate())
                    numeric[i][j] = mean
                    numeric[j][i] = mean.conjugate()
            values = tuple(hermitian_eigh(numeric)[0])
            solved[index] = values
        grid.append(point)
        bands.append(values)
    flatness = tuple(
        max(row[j] for row in bands) - min(row[j] for row in bands)
        for j in range(n)
    )
    return BandSample(
        resolution=resolution,
        grid=tuple(grid),
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
