"""Laurent polynomial ring, facial restriction, and symbolic determinants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatbands import laurent
from flatbands.laurent import (
    LaurentPoly,
    PackedTemplate,
    det_bareiss,
    det_leibniz,
    determinant,
    facial_polynomial,
    format_poly,
    support_leibniz,
)

from conftest import pack_matrix, pack_triples


def test_zero_coefficients_are_dropped():
    p = LaurentPoly(1, {(0, 0): 0, (1, 0): 2})
    assert p.support() == {(1, 0)}
    assert LaurentPoly(1, {(0, 0): 0}).is_zero


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(0, 0): 0.5})
    with pytest.raises(TypeError, match="bool"):
        LaurentPoly(1, {(0, 0): True})


def test_exact_fractions_are_kept_as_they_are():
    value = Fraction(-3, 7)
    assert laurent._coerce(value) is value
    assert laurent._coerce(2) == Fraction(2)


def test_key_length_is_checked():
    with pytest.raises(ValueError):
        LaurentPoly(2, {(0, 0): 1})


@pytest.mark.parametrize("key", [(0.5, 0), (1, True), (0, 1.0), (Fraction(1), 0)])
def test_exponents_that_are_not_ints_are_rejected(key):
    # int() would turn (0.5, 0) into the constant term and (1, True) into z1*lam
    with pytest.raises(ValueError, match="not an integer"):
        LaurentPoly(1, {key: 1})


def test_negative_lam_exponent_is_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(1, {(0, -1): 1})


def test_constructors():
    z = LaurentPoly.z_var(2, 0)
    assert z.support() == {(1, 0, 0)}
    lam = LaurentPoly.lam(2)
    assert lam.support() == {(0, 0, 1)}
    assert LaurentPoly.constant(1, Fraction(3, 2)).coefficient((0, 0)) == Fraction(3, 2)
    mono = LaurentPoly.monomial(1, [-2], 1, coeff=5)
    assert mono.terms == {(-2, 1): Fraction(5)}


def test_basic_arithmetic():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    p = (z + 1) * (lam - 1)
    assert p.terms == {
        (1, 1): Fraction(1),
        (0, 1): Fraction(1),
        (1, 0): Fraction(-1),
        (0, 0): Fraction(-1),
    }
    assert p - p == LaurentPoly.zero(1)
    assert (2 * z).coefficient((1, 0)) == 2
    assert (z * z * z).support() == {(3, 0)}
    assert z * LaurentPoly.constant(1, 1) == z


def test_shift_and_negate_z():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    p = z * lam + 2
    assert p.shift([-1]).terms == {(0, 1): Fraction(1), (-1, 0): Fraction(2)}
    assert p.negate_z().terms == {(-1, 1): Fraction(1), (0, 0): Fraction(2)}


def test_lam_coefficient_and_degree():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    p = (z + 1).scale(3) * lam * lam + z
    assert p.lam_degree == 2
    assert LaurentPoly.zero(1).lam_degree == -1


def test_facial_polynomial_selects_minimizers():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    p = z * z + z * lam + lam * lam * lam
    assert facial_polynomial(p, (1, 0)) == lam * lam * lam
    assert facial_polynomial(p, (0, 1)) == z * z
    assert facial_polynomial(p, (0, 0)) == p
    assert facial_polynomial(p, (-1, 0)) == z * z


def test_facial_polynomial_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        facial_polynomial(LaurentPoly.zero(1), (1, 0))


def test_format_poly():
    z2 = LaurentPoly.z_var(2, 1)
    lam = LaurentPoly.lam(2)
    p = LaurentPoly.z_var(2, 0, -1) * lam - lam * lam * lam + z2.scale(Fraction(1, 2))
    assert format_poly(p) == "1/2*z2 + z1^-1*lam - lam^3"
    assert format_poly(LaurentPoly.zero(2)) == "0"
    assert format_poly(LaurentPoly.constant(2, -3)) == "-3"


def test_two_by_two_determinant():
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    one = LaurentPoly.constant(1, 1)
    m = [[z, one], [lam, LaurentPoly.z_var(1, 0, -1)]]
    expected = one - lam
    assert det_leibniz(pack_matrix(m)) == expected
    assert det_bareiss(m) == expected
    assert determinant(pack_matrix(m)) == expected


def test_determinant_with_zero_pivot_column():
    # first column identically zero: determinant vanishes
    zero = LaurentPoly.zero(1)
    one = LaurentPoly.constant(1, 1)
    m = [[zero, one], [zero, one]]
    assert det_bareiss(m).is_zero
    assert det_leibniz(pack_matrix(m)).is_zero


def _random_poly(rng: random.Random, dimension: int, max_terms: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(-2, 2) for _ in range(dimension)) + (rng.randint(0, 2),)
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return LaurentPoly(dimension, terms)


@pytest.mark.parametrize("trial", range(25))
def test_leibniz_matches_bareiss(trial):
    rng = random.Random(f"detcmp/{trial}")
    dimension = rng.randint(1, 2)
    n = rng.randint(1, 4)
    m = [[_random_poly(rng, dimension) for _ in range(n)] for _ in range(n)]
    assert det_leibniz(pack_matrix(m)) == det_bareiss(m)


@st.composite
def sparse_matrices(draw) -> list[list[LaurentPoly]]:
    """Up to 7x7 in d = 1..3 with zero entries, denominators up to 10^6
    and z-exponents up to +-40, which stretch the packing base.

    Every row has a nonzero entry on one drawn permutation, so most
    determinants are nonzero, and about one matrix in four gets a zero
    row.  Rows hold at most three nonzero entries, two from n = 5, so
    the Bareiss oracle stays within a second.
    """
    n = draw(st.integers(1, 7))
    dimension = draw(st.integers(1, 3))
    key = st.tuples(*([st.integers(-40, 40)] * dimension), st.integers(0, 2))
    coeff = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6).filter(bool)
    entry = st.dictionaries(key, coeff, min_size=1, max_size=2).map(
        lambda terms: LaurentPoly(dimension, terms)
    )
    diagonal = draw(st.permutations(range(n)))
    zero_row = draw(st.sampled_from([None] * (3 * n) + list(range(n))))
    rows = []
    for i in range(n):
        extra = draw(st.lists(st.integers(0, n - 1), unique=True,
                              max_size=2 if n <= 4 else 1))
        row = [LaurentPoly.zero(dimension)] * n
        if i != zero_row:
            for col in {diagonal[i], *extra}:
                row[col] = draw(entry)
        rows.append(row)
    return rows


@given(m=sparse_matrices())
@settings(max_examples=80, deadline=None)
def test_integer_leibniz_matches_bareiss(m):
    assert det_leibniz(pack_matrix(m)) == det_bareiss(m)


@st.composite
def triple_rows(draw) -> tuple[int, list]:
    """(d, rows) for `pack_triples`: n <= 5, d <= 2, 0-3 terms per entry, coefficients +-1..3."""
    n = draw(st.integers(1, 5))
    dimension = draw(st.integers(1, 2))
    key = st.tuples(*([st.integers(-2, 2)] * dimension), st.integers(0, 2))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    rows = []
    for _ in range(n):
        row = []
        for col in range(n):
            for exponent in draw(st.lists(key, unique=True, max_size=3)):
                row.append((col, exponent, draw(coeff)))
        rows.append(row)
    return dimension, rows


def _permanent_support(rows):
    """Brute force: the key sums over every permutation and every term choice per entry."""
    n = len(rows)
    keys = [[[key for c, key, _ in row if c == col] for col in range(n)] for row in rows]
    support = set()
    for sigma in itertools.permutations(range(n)):
        for picks in itertools.product(*[keys[i][sigma[i]] for i in range(n)]):
            support.add(tuple(map(sum, zip(*picks))))
    return support


def _pattern(dimension, rows):
    """The triples' keys as a `PackedTemplate`, one label per triple."""
    labels = itertools.count()
    return PackedTemplate(dimension, [[(col, key, next(labels)) for col, key, _ in row]
                                      for row in rows])


@given(case=triple_rows())
@settings(max_examples=150, deadline=None)
def test_support_leibniz_is_the_permanent_support(case):
    dimension, rows = case
    support = support_leibniz(_pattern(dimension, rows))
    assert support == _permanent_support(rows)
    assert determinant(pack_triples(dimension, rows)).support() <= support


def test_permanent_support_survives_a_vanishing_determinant():
    # every entry 1: the determinant cancels to 0, the permanent does not
    rows = [[(0, (0, 0), 1), (1, (0, 0), 1)], [(0, (0, 0), 1), (1, (0, 0), 1)]]
    assert determinant(pack_triples(1, rows)).is_zero
    assert support_leibniz(_pattern(1, rows)) == {(0, 0)}


@pytest.mark.parametrize("n", [7, 8])
def test_auto_determinant_runs_leibniz_only(monkeypatch, n):
    z = LaurentPoly.z_var(1, 0)
    lam = LaurentPoly.lam(1)
    rows = [[LaurentPoly.zero(1)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = LaurentPoly.constant(1, Fraction(i, 3)) - lam
        rows[i][(i + 1) % n] = z
        rows[(i + 1) % n][i] = LaurentPoly.z_var(1, 0, -1)
    calls = []

    def counted(name, kernel):
        def wrapper(matrix):
            calls.append(name)
            return kernel(matrix)
        return wrapper

    monkeypatch.setattr(laurent, "det_leibniz", counted("leibniz", det_leibniz))
    monkeypatch.setattr(laurent, "det_bareiss", counted("bareiss", det_bareiss))
    result = determinant(pack_matrix(rows))
    assert calls == ["leibniz"]
    assert result == det_bareiss(rows)


def test_determinant_row_swap_flips_sign():
    rng = random.Random("rowswap")
    rows = [[_random_poly(rng, 1) for _ in range(3)] for _ in range(3)]
    d = determinant(pack_matrix(rows))
    rows[0], rows[1] = rows[1], rows[0]
    assert determinant(pack_matrix(rows)) == -d


def test_determinant_repeated_row_vanishes():
    rng = random.Random("repeat")
    row = [_random_poly(rng, 2) for _ in range(3)]
    other = [_random_poly(rng, 2) for _ in range(3)]
    assert determinant(pack_matrix([row, other, row])).is_zero


# ---------------------------------------------------------------------------
# algebraic laws


def polys(dimension: int = 2) -> st.SearchStrategy[LaurentPoly]:
    key = st.tuples(
        *([st.integers(-2, 2)] * dimension), st.integers(0, 2)
    )
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.tuples(key, coeff), max_size=4).map(
        lambda items: LaurentPoly(dimension, dict(items))
    )


@given(p=polys(), q=polys(), r=polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(p=polys(), q=polys())
@settings(max_examples=60, deadline=None)
def test_facial_is_multiplicative(p, q):
    w = (1, -2, 1)
    if p.is_zero or q.is_zero:
        return
    assert facial_polynomial(p * q, w) == facial_polynomial(p, w) * facial_polynomial(q, w)


@given(p=polys())
@settings(max_examples=40, deadline=None)
def test_negate_z_is_involutive(p):
    assert p.negate_z().negate_z() == p
