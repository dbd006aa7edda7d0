"""Numeric band sampling: eigensolvers and torus grids."""

import cmath
import io
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from flatbands import bands
from flatbands.bands import (
    MAX_GRID_POINTS,
    evaluate_entry,
    flat_energy_presence,
    floquet_at,
    hermitian_defect,
    hermitian_eigh,
    hermitian_eigvalsh,
    numeric_flat_flags,
    sample_bands,
    symmetric_jacobi,
    write_csv,
)
from flatbands.floquet import FloquetMatrix
from flatbands.graph import Labeling, PeriodicGraph
from flatbands.laurent import LaurentPoly

from conftest import LIEB_EDGES


def test_evaluate_entry():
    p = LaurentPoly(1, {(1, 0): 1, (-1, 0): 1})
    value = evaluate_entry(p, [1j])
    assert abs(value - (1j + 1 / 1j)) < 1e-15
    with pytest.raises(ValueError):
        evaluate_entry(LaurentPoly.lam(1), [1.0])


def test_symmetric_jacobi_2x2():
    values, vectors = symmetric_jacobi([[2.0, 1.0], [1.0, 2.0]])
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(values[1] - 3.0) < 1e-12
    for lam, vec in zip(values, vectors):
        assert abs(2.0 * vec[0] + 1.0 * vec[1] - lam * vec[0]) < 1e-10
        assert abs(1.0 * vec[0] + 2.0 * vec[1] - lam * vec[1]) < 1e-10


def test_symmetric_jacobi_diagonal_passthrough():
    values, _ = symmetric_jacobi([[5.0, 0.0], [0.0, -1.0]])
    assert values == [-1.0, 5.0]


@pytest.mark.parametrize("trial", range(10))
def test_symmetric_jacobi_random(trial):
    rng = random.Random(f"jacobi/{trial}")
    n = rng.randint(2, 6)
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.uniform(-3, 3)
    values, vectors = symmetric_jacobi(a)
    assert values == sorted(values)
    trace = sum(a[i][i] for i in range(n))
    assert abs(sum(values) - trace) < 1e-9
    for lam, vec in zip(values, vectors):
        norm = math.sqrt(sum(x * x for x in vec))
        assert abs(norm - 1.0) < 1e-9
        for i in range(n):
            residual = sum(a[i][j] * vec[j] for j in range(n)) - lam * vec[i]
            assert abs(residual) < 1e-8


def test_hermitian_eigh_pauli_y():
    values, vectors = hermitian_eigh([[0.0, -1j], [1j, 0.0]])
    assert abs(values[0] + 1.0) < 1e-12
    assert abs(values[1] - 1.0) < 1e-12
    m = [[0.0, -1j], [1j, 0.0]]
    for lam, vec in zip(values, vectors):
        for i in range(2):
            residual = sum(m[i][j] * vec[j] for j in range(2)) - lam * vec[i]
            assert abs(residual) < 1e-10


def embedding_eigh(matrix):
    """Oracle: real Jacobi on [[A, -B], [B, A]], every second eigenvalue kept."""
    n = len(matrix)
    embed = [
        [matrix[i][j].real if j < n else -matrix[i][j - n].imag for j in range(2 * n)]
        if i < n
        else [matrix[i - n][j].imag if j < n else matrix[i - n][j - n].real
              for j in range(2 * n)]
        for i in range(2 * n)
    ]
    values, _ = symmetric_jacobi(embed)
    return values[::2]


def random_hermitian(rng, n):
    m = [[0j] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = complex(rng.uniform(-3, 3))
        for j in range(i + 1, n):
            m[i][j] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            m[j][i] = m[i][j].conjugate()
    return m


def lieb_at(*thetas):
    graph = PeriodicGraph(2, 3, LIEB_EDGES)
    labeling = Labeling(graph, [0, 0, 0], {e: 1 for e in graph.sorted_edges()})
    return floquet_at(FloquetMatrix(graph, labeling), [cmath.exp(1j * th) for th in thetas])


HERMITIAN_CASES = {
    **{f"random{n}": random_hermitian(random.Random(f"hermitian/{n}"), n)
       for n in range(1, 9)},
    "diagonal": [[2.5 + 0j, 0j, 0j], [0j, -1 + 0j, 0j], [0j, 0j, 0.25 + 0j]],
    "zero": [[0j] * 4 for _ in range(4)],
    # 2 I + v v^H with v = (1, i, 1): eigenvalue 2 twice, then 5
    "repeated": [[3 + 0j, -1j, 1 + 0j], [1j, 3 + 0j, 1j], [1 + 0j, -1j, 3 + 0j]],
    "lieb_gamma": lieb_at(0.0, 0.0),
    # all three Lieb bands touch at (pi, pi)
    "lieb_m": lieb_at(math.pi, math.pi),
}


@pytest.mark.parametrize("case", HERMITIAN_CASES)
def test_hermitian_eigh_matches_embedding_oracle(case):
    matrix = HERMITIAN_CASES[case]
    n = len(matrix)
    norm = math.sqrt(sum(abs(x) ** 2 for row in matrix for x in row))
    values, vectors = hermitian_eigh(matrix)
    assert values == sorted(values)
    for got, want in zip(values, embedding_eigh(matrix), strict=True):
        assert abs(got - want) <= 1e-12 * norm
    for lam, vec in zip(values, vectors):
        for i in range(n):
            residual = sum(matrix[i][j] * vec[j] for j in range(n)) - lam * vec[i]
            assert abs(residual) < 1e-9
    for k in range(n):
        for m in range(n):
            inner = sum(x.conjugate() * y for x, y in zip(vectors[k], vectors[m]))
            assert abs(inner - (1.0 if k == m else 0.0)) < 1e-9


def test_hermitian_eigh_repeated_eigenvalue():
    values, _ = hermitian_eigh(HERMITIAN_CASES["repeated"])
    assert all(abs(got - want) < 1e-12 for got, want in zip(values, [2.0, 2.0, 5.0]))


# two 2 x 2 blocks: the Householder reduction leaves a zero off-diagonal
BLOCK_DIAGONAL = [
    [1 + 0j, 2 + 0j, 0j, 0j],
    [2 + 0j, 1 + 0j, 0j, 0j],
    [0j, 0j, 3 + 0j, 1j],
    [0j, 0j, -1j, 3 + 0j],
]


@st.composite
def hermitian_matrices(draw):
    """Hermitian n x n, n = 1..8, rich in zeros and repeated entries.

    Nonzero parts stay above 2^-300, so that scaling by 2^-500 keeps
    every entry a normal float.
    """
    n = draw(st.integers(1, 8))
    part = st.one_of(
        st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
        st.floats(-4, 4).map(lambda x: x if abs(x) >= 2.0 ** -300 else 0.0),
    )
    matrix = [[0j] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = complex(draw(part))
        for j in range(i + 1, n):
            matrix[i][j] = complex(draw(part), draw(part))
            matrix[j][i] = matrix[i][j].conjugate()
    return matrix


def jacobi_oracles(matrix):
    """hermitian_eigh and the real embedding, run at max |entry| near 1.

    Both square entries, so they are given the matrix scaled by a power
    of two, which moves no eigenvalue but its exponent.
    """
    largest = max(abs(x) for row in matrix for x in row)
    k = math.frexp(largest)[1] if largest else 0
    unit = [[x * math.ldexp(1.0, -k) for x in row] for row in matrix]
    return [
        [math.ldexp(value, k) for value in values]
        for values in (hermitian_eigh(unit)[0], embedding_eigh(unit))
    ]


@settings(max_examples=300, deadline=None)
@given(hermitian_matrices(), st.sampled_from([0, 500, -500]))
@example(HERMITIAN_CASES["zero"], 0)
@example(HERMITIAN_CASES["diagonal"], 0)
@example(HERMITIAN_CASES["repeated"], 0)
@example(BLOCK_DIAGONAL, 0)
@example(HERMITIAN_CASES["lieb_gamma"], 0)
@example(HERMITIAN_CASES["lieb_m"], 0)
@example(HERMITIAN_CASES["lieb_gamma"], 500)
@example(HERMITIAN_CASES["lieb_m"], -500)
@example(HERMITIAN_CASES["random8"], 500)
@example(HERMITIAN_CASES["random8"], -500)
def test_hermitian_eigvalsh_matches_jacobi_oracles(matrix, exponent):
    """The QL kernel on 2^exponent * matrix against both Jacobi solvers."""
    scaled = [[x * math.ldexp(1.0, exponent) for x in row] for row in matrix]
    norm = math.hypot(*(abs(x) for row in matrix for x in row))
    values = hermitian_eigvalsh(scaled)
    assert values == sorted(values)
    for reference in jacobi_oracles(matrix):
        for got, want in zip(values, reference, strict=True):
            assert abs(math.ldexp(got, -exponent) - want) <= 1e-12 * norm


@st.composite
def hermitian_chunks(draw):
    """One to nine Hermitian n x n matrices, n in {1, 2, 3, 6}, of mixed kinds.

    Besides plain draws, a matrix may have a zero first column (no
    reflection at the first step), be zero, or be scaled into the
    subnormal range or up to 1e300, so that one chunk mixes scales.
    """
    n = draw(st.sampled_from([1, 2, 3, 6]))
    part = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-4, 4))
    chunk = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["plain", "zero column", "zero", "subnormal", "huge"]))
        matrix = [[0j] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = complex(draw(part))
            for j in range(i + 1, n):
                if not (kind == "zero column" and i == 0) and kind != "zero":
                    matrix[i][j] = complex(draw(part), draw(part))
                    matrix[j][i] = matrix[i][j].conjugate()
        factor = {"subnormal": math.ldexp(1.0, -1070), "huge": 1e300}.get(kind, 1.0)
        chunk.append([[x * factor for x in row] for row in matrix])
    return chunk


@settings(max_examples=300, deadline=None)
@given(hermitian_chunks())
@example([HERMITIAN_CASES["lieb_gamma"], [[0j] * 3 for _ in range(3)],
          [[x * 1e300 for x in row] for row in HERMITIAN_CASES["lieb_m"]],
          [[0j, 0j, 0j], [0j, 1 + 0j, 1j], [0j, -1j, 2 + 0j]],
          [[x * math.ldexp(1.0, -1070) for x in row] for row in HERMITIAN_CASES["lieb_m"]]])
def test_chunk_kernel_equals_each_matrix_alone(chunk):
    """A chunk gives each matrix the eigenvalues it has alone, bit for bit."""
    n = len(chunk[0])
    cells = [[[matrix[i][j] for matrix in chunk] for j in range(n)] for i in range(n)]
    got = bands._eigvalsh_points(cells)
    assert len(got) == len(chunk)
    for values, matrix in zip(got, chunk, strict=True):
        assert list(map(repr, values)) == list(map(repr, hermitian_eigvalsh(matrix)))


def test_hermitian_eigvalsh_edge_sizes_and_float_range():
    assert hermitian_eigvalsh([]) == []
    assert hermitian_eigvalsh([[-2.5 + 0j]]) == [-2.5]
    # subnormal and near-overflow entries scale by a power of two both ways
    tiny = math.ldexp(1.0, -1074)
    assert hermitian_eigvalsh([[0j, complex(tiny)], [complex(tiny), 0j]]) == [-tiny, tiny]
    huge = math.ldexp(1.0, 1022)
    values = hermitian_eigvalsh([[0j, huge * 1j], [-huge * 1j, 0j]])
    assert [value / huge for value in values] == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_hermitian_defect():
    assert hermitian_defect([[1.0, 2j], [-2j, 1.0]]) < 1e-15
    assert hermitian_defect([[1.0, 2j], [2j, 1.0]]) == pytest.approx(4.0)


def test_lieb_gamma_point_spectrum(lieb_graph, lieb_labeling):
    matrix = FloquetMatrix(lieb_graph, lieb_labeling)
    numeric = floquet_at(matrix, [1.0, 1.0])
    assert hermitian_defect(numeric) < 1e-15
    values, _ = hermitian_eigh(numeric)
    expected = [-2.0 * math.sqrt(2.0), 0.0, 2.0 * math.sqrt(2.0)]
    for got, want in zip(values, expected):
        assert abs(got - want) < 1e-10


def test_sample_bands_lieb(lieb_graph, lieb_labeling):
    sample = sample_bands(FloquetMatrix(lieb_graph, lieb_labeling), resolution=4)
    assert len(sample.grid) == 16
    assert all(row == tuple(sorted(row)) for row in sample.bands)
    assert sample.flatness[1] < 1e-12  # the middle band is exactly flat
    assert sample.flatness[0] > 1.0
    assert numeric_flat_flags(sample, 1e-8) == [2]


def test_sample_bands_validates_resolution(lieb_graph, lieb_labeling):
    with pytest.raises(ValueError):
        sample_bands(FloquetMatrix(lieb_graph, lieb_labeling), resolution=1)


def test_numeric_flat_flags_tolerance_validation(lieb_graph, lieb_labeling):
    sample = sample_bands(FloquetMatrix(lieb_graph, lieb_labeling), resolution=2)
    with pytest.raises(ValueError):
        numeric_flat_flags(sample, 0.0)


def test_flat_energy_presence(lieb_graph, lieb_labeling):
    sample = sample_bands(FloquetMatrix(lieb_graph, lieb_labeling), resolution=4)
    assert flat_energy_presence(sample, 0.0)
    assert not flat_energy_presence(sample, 0.5)
    assert not flat_energy_presence(sample, 0.0, multiplicity=2)
    with pytest.raises(ValueError):
        flat_energy_presence(sample, 0.0, tol=0.0)
    with pytest.raises(ValueError):
        flat_energy_presence(sample, 0.0, multiplicity=0)


def test_flat_energy_survives_band_crossing():
    """A flat eigenvalue crossed by a dispersive band flips sorted indices.

    The isolated orbit pins an eigenvalue at -1/16 while the other
    component's bands sweep through it, so no single sorted band is flat
    even though the energy sits in the spectrum everywhere.
    """
    g = PeriodicGraph(1, 3, [(0, 2, (0,)), (2, 2, (1,))])
    lab = Labeling(
        g,
        [Fraction(9, 16), Fraction(-1, 16), Fraction(27, 16)],
        {(0, 2, (0,)): Fraction(15, 16), (2, 2, (1,)): Fraction(19, 16)},
    )
    sample = sample_bands(FloquetMatrix(g, lab), resolution=16)
    assert numeric_flat_flags(sample, 1e-8) == []
    assert flat_energy_presence(sample, -1.0 / 16.0)
    assert not flat_energy_presence(sample, -1.0 / 16.0, multiplicity=2)


def test_one_band_cosine_chain():
    g = PeriodicGraph(1, 1, [(0, 0, (1,))])
    lab = Labeling(g, [0], {(0, 0, (1,)): 1})
    sample = sample_bands(FloquetMatrix(g, lab), resolution=8)
    # band is 2 cos(theta): spread 4, extremes hit on the grid
    assert sample.flatness[0] == pytest.approx(4.0, abs=1e-12)
    for point, row in zip(sample.grid, sample.bands):
        assert row[0] == pytest.approx(2.0 * math.cos(point[0]), abs=1e-12)


def test_write_csv(lieb_graph, lieb_labeling):
    sample = sample_bands(FloquetMatrix(lieb_graph, lieb_labeling), resolution=2)
    out = io.StringIO()
    write_csv(sample, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "theta_1,theta_2,band_1,band_2,band_3"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def chain_with_hopping():
    """Two orbits in d = 1 with complex off-diagonal entries on the torus."""
    g = PeriodicGraph(1, 2, [(0, 1, (0,)), (0, 1, (1,)), (0, 0, (1,)), (1, 1, (2,))])
    lab = Labeling(
        g,
        [Fraction(1, 3), Fraction(-2, 5)],
        {(0, 1, (0,)): Fraction(3, 2), (0, 1, (1,)): Fraction(-1, 4),
         (0, 0, (1,)): Fraction(2, 7), (1, 1, (2,)): Fraction(5, 6)},
    )
    return g, lab


def pointwise_bands(graph, labeling, resolution):
    """Reference: evaluate and diagonalize at every grid point."""
    matrix = FloquetMatrix(graph, labeling)
    n = graph.num_orbits
    angles = [2.0 * math.pi * k / resolution for k in range(resolution)]
    rows = []
    for point in product(angles, repeat=graph.dimension):
        numeric = floquet_at(matrix, [cmath.exp(1j * th) for th in point])
        for i in range(n):
            for j in range(i, n):
                mean = 0.5 * (numeric[i][j] + numeric[j][i].conjugate())
                numeric[i][j] = mean
                numeric[j][i] = mean.conjugate()
        rows.append(hermitian_eigh(numeric)[0])
    return rows


def lieb_cube():
    """The three-dimensional Lieb lattice with rational labels: n = 4, d = 3."""
    edges = [(0, 1 + t, tuple(int(s == t) * k for s in range(3)))
             for t in range(3) for k in (0, 1)]
    g = PeriodicGraph(3, 4, edges)
    lab = Labeling(
        g,
        [Fraction(1, 4), Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 5)],
        {e: Fraction(3 + k, 4) for k, e in enumerate(g.sorted_edges())},
    )
    return g, lab


@pytest.mark.parametrize("resolution", [2, 3, 5, 6])
@pytest.mark.parametrize("case", ["chain", "lieb", "cube"])
def test_sample_bands_matches_pointwise_solve(case, resolution, lieb_graph, lieb_labeling):
    """The compiled grid and the QL kernel against floquet_at and Jacobi."""
    graph, labeling = {
        "chain": chain_with_hopping,
        "lieb": lambda: (lieb_graph, lieb_labeling),
        "cube": lieb_cube,
    }[case]()
    sample = sample_bands(FloquetMatrix(graph, labeling), resolution=resolution)
    reference = pointwise_bands(graph, labeling, resolution)
    assert len(sample.bands) == len(reference) == resolution ** graph.dimension
    angles = [2.0 * math.pi * k / resolution for k in range(resolution)]
    assert sample.grid == tuple(product(angles, repeat=graph.dimension))
    for got, want in zip(sample.bands, reference):
        for x, y in zip(got, want, strict=True):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))
    # rows k and -k mod R are the same band tuple
    d = graph.dimension
    for flat, index in enumerate(product(range(resolution), repeat=d)):
        mirror = 0
        for k in index:
            mirror = mirror * resolution + (-k % resolution)
        assert sample.bands[flat] == sample.bands[mirror]


def counting_seams(monkeypatch):
    """Count oracle calls and the grid points handed to the chunk kernel."""
    calls = {"eval": 0, "eigh": 0, "points": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    def kernel(cells):
        calls["points"] += len(cells[0][0])
        return solve(cells)

    solve = bands._eigvalsh_points
    monkeypatch.setattr(bands, "floquet_at", counted("eval", bands.floquet_at))
    monkeypatch.setattr(bands, "hermitian_eigh", counted("eigh", bands.hermitian_eigh))
    monkeypatch.setattr(bands, "_eigvalsh_points", kernel)
    return calls


@pytest.mark.parametrize("dimension, resolution, solves", [(1, 64, 33), (2, 16, 130), (1, 7, 4)])
def test_sample_bands_solves_each_opposite_pair_once(monkeypatch, dimension, resolution, solves):
    if dimension == 1:
        graph, labeling = chain_with_hopping()
    else:
        graph = PeriodicGraph(2, 3, LIEB_EDGES)
        labeling = Labeling(graph, [0, 0, 0], {e: 1 for e in graph.sorted_edges()})
    calls = counting_seams(monkeypatch)
    sample = sample_bands(FloquetMatrix(graph, labeling), resolution=resolution)
    assert len(sample.grid) == resolution ** dimension
    # one point through the kernel per pair; the pointwise oracles never run
    assert calls == {"eval": 0, "eigh": 0, "points": solves}


@pytest.mark.parametrize("dimension, resolution", [(1, MAX_GRID_POINTS + 1), (2, 1025), (3, 102)])
def test_sample_bands_refuses_grids_past_the_budget(monkeypatch, dimension, resolution):
    graph = PeriodicGraph(dimension, 1, [(0, 0, (1,) + (0,) * (dimension - 1))])
    labeling = Labeling(graph, [0], {e: 1 for e in graph.sorted_edges()})
    calls = counting_seams(monkeypatch)
    with pytest.raises(ValueError, match=f"limit of {MAX_GRID_POINTS} grid points"):
        sample_bands(FloquetMatrix(graph, labeling), resolution=resolution)
    assert calls == {"eval": 0, "eigh": 0, "points": 0}


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_sample_bands_across_a_chunk_boundary(monkeypatch, extra):
    """Solved points one short of, equal to and one past a chunk: each point
    gets the spectrum it has when it is solved alone."""
    graph, labeling = chain_with_hopping()
    chunk = bands._CHUNK_ENTRIES // graph.num_orbits ** 2
    resolution = 2 * (chunk + extra - 1)  # R // 2 + 1 solved points
    matrix = FloquetMatrix(graph, labeling)
    calls = counting_seams(monkeypatch)
    sample = sample_bands(matrix, resolution=resolution)
    assert calls["points"] == chunk + extra
    monkeypatch.setattr(bands, "_CHUNK_ENTRIES", 1)
    alone = sample_bands(matrix, resolution=resolution)
    assert [list(map(repr, row)) for row in sample.bands] == \
        [list(map(repr, row)) for row in alone.bands]
