"""Ascending-coefficient univariate polynomial helpers."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from flatbands import unipoly

F = Fraction


def test_normalize_trims_leading_zeros():
    assert unipoly.normalize([1, 2, 0, 0]) == (F(1), F(2))
    assert unipoly.normalize([0, 0]) == ()
    assert unipoly.degree(()) == -1
    assert unipoly.degree((F(1), F(1))) == 1


def test_arithmetic():
    p = unipoly.normalize([1, 1])       # 1 + x
    q = unipoly.normalize([-1, 1])      # -1 + x
    assert unipoly.add(p, q) == (F(0), F(2))
    assert unipoly.mul(p, q) == (F(-1), F(0), F(1))
    assert unipoly.mul(p, ()) == ()
    assert unipoly.evaluate((F(-1), F(0), F(1)), 3) == 8
    assert unipoly.scale(p, F(1, 2)) == (F(1, 2), F(1, 2))


def test_monic():
    assert unipoly.monic((F(2), F(4))) == (F(1, 2), F(1))
    with pytest.raises(ValueError):
        unipoly.monic(())


def test_divmod_exact():
    # x^3 - 1 = (x - 1)(x^2 + x + 1)
    p = unipoly.normalize([-1, 0, 0, 1])
    q = unipoly.normalize([-1, 1])
    quot, rem = unipoly.divmod_exact(p, q)
    assert quot == (F(1), F(1), F(1))
    assert rem == ()
    quot, rem = unipoly.divmod_exact((F(1), F(1)), (F(0), F(0), F(1)))
    assert quot == ()
    assert rem == (F(1), F(1))
    with pytest.raises(ZeroDivisionError):
        unipoly.divmod_exact(p, ())


def test_gcd_frozen_cases():
    # gcd(x^2 - 1, x^3 - 1) = x - 1
    assert unipoly.gcd((-1, 0, 1), (-1, 0, 0, 1)) == (F(-1), F(1))
    # coprime pair
    assert unipoly.gcd((-1, 1), (1, 1)) == (F(1),)
    assert unipoly.gcd((), ()) == ()
    assert unipoly.gcd((), (2, 2)) == (F(1), F(1))
    assert unipoly.gcd((F(5),), (1, 1)) == (F(1),)


def test_sqrt_rational():
    assert unipoly.sqrt_rational(F(9, 4)) == F(3, 2)
    assert unipoly.sqrt_rational(F(2)) is None
    assert unipoly.sqrt_rational(F(-4)) is None
    assert unipoly.sqrt_rational(F(0)) == 0


def test_factor_linear_and_quadratic():
    roots, others = unipoly.factor_rational((F(-3), F(1)))
    assert roots == [(F(3), 1)] and others == []
    # x^2 - 5x + 6
    roots, others = unipoly.factor_rational((6, -5, 1))
    assert roots == [(F(2), 1), (F(3), 1)] and others == []
    # double root: (x - 1/2)^2 scaled
    roots, others = unipoly.factor_rational((F(1), F(-4), F(4)))
    assert roots == [(F(1, 2), 2)] and others == []
    # x^2 - 2 is irreducible over Q
    roots, others = unipoly.factor_rational((-2, 0, 1))
    assert roots == []
    assert others == [((F(-2), F(0), F(1)), 1)]
    # x^2 + 1 has no rational (or real) roots
    roots, others = unipoly.factor_rational((1, 0, 1))
    assert roots == []
    assert others == [((F(1), F(0), F(1)), 1)]


def test_factor_cubic_uses_exact_backend():
    # (x - 1)(x^2 - 2)
    p = unipoly.mul((-1, 1), (-2, 0, 1))
    roots, others = unipoly.factor_rational(p)
    assert roots == [(F(1), 1)]
    assert others == [((F(-2), F(0), F(1)), 1)]


def test_factor_quartic_with_multiplicity():
    # x^2 (x - 2)^2
    p = unipoly.mul(unipoly.mul((0, 1), (0, 1)), unipoly.mul((-2, 1), (-2, 1)))
    roots, others = unipoly.factor_rational(p)
    assert roots == [(F(0), 2), (F(2), 2)]
    assert others == []


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        unipoly.factor_rational(())


@pytest.mark.parametrize("p", [(0.5, 1.0), (1, 2, 0.5), (1, 1, 1, 1, True)],
                         ids=["linear-float", "quadratic-float", "quartic-bool"])
def test_factor_rational_refuses_floats_and_bools(p):
    with pytest.raises(TypeError, match="coefficients are not allowed"):
        unipoly.factor_rational(p)


@pytest.mark.parametrize("p, q", [([0.1, 1.0], [0.1, 1]), ([1, 1], [1, 0.5]),
                                  ([True, 1], [1, 1])],
                         ids=["floats", "one-float", "bool"])
def test_gcd_refuses_floats_and_bools(p, q):
    with pytest.raises(TypeError, match="coefficients are not allowed"):
        unipoly.gcd(p, q)


@pytest.mark.parametrize("call", [
    lambda: unipoly.normalize([1, 0.5]),
    lambda: unipoly.evaluate((F(1), F(1)), 0.5),
    lambda: unipoly.evaluate((F(1), F(1)), True),
    lambda: unipoly.scale((F(1),), 2.0),
], ids=["normalize", "evaluate-float", "evaluate-bool", "scale"])
def test_conversions_refuse_floats_and_bools(call):
    with pytest.raises(TypeError, match="coefficients are not allowed"):
        call()


coeff = st.fractions(min_value=-8, max_value=8, max_denominator=6)
poly = st.lists(coeff, max_size=5).map(unipoly.normalize)


@given(p=poly, q=poly)
@settings(max_examples=80, deadline=None)
def test_divmod_identity(p, q):
    if not q:
        return
    quot, rem = unipoly.divmod_exact(p, q)
    assert unipoly.add(unipoly.mul(quot, q), rem) == p
    assert unipoly.degree(rem) < unipoly.degree(q)


@given(p=poly, q=poly, common=poly)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both_and_sees_common_factor(p, q, common):
    g = unipoly.gcd(p, q)
    for side in (p, q):
        if side and g:
            _, rem = unipoly.divmod_exact(side, g)
            assert rem == ()
    if unipoly.degree(common) >= 1 and p and q:
        lifted = unipoly.gcd(unipoly.mul(p, common), unipoly.mul(q, common))
        _, rem = unipoly.divmod_exact(lifted, unipoly.monic(common))
        assert rem == ()


def _euclid_gcd(p, q):
    """Monic gcd by Fraction Euclid, a primitive reduction after each step."""
    a, b = unipoly.normalize(p), unipoly.normalize(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (F(1),)
        _, rem = unipoly.divmod_exact(a, b)
        a, b = b, rem
        if b:
            b = tuple(F(c) for c in unipoly.primitive_part(b))
    return unipoly.monic(a) if a else ()


wide_coeff = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
wide_poly = st.lists(wide_coeff, max_size=6).map(unipoly.normalize)


@given(p=wide_poly, q=wide_poly, common=poly)
@example(p=(), q=(), common=())
@example(p=(), q=(F(-6), F(2)), common=())
@example(p=(F(7, 3),), q=(F(1), F(1)), common=(F(-1), F(1)))
@example(p=(F(2), F(1)), q=(F(-3), F(1)), common=(F(1), F(-2), F(1)))
@example(p=(F(1),), q=(F(1),), common=(F(-1, 2), F(0), F(0), F(1)))
@settings(max_examples=150, deadline=None)
def test_integer_gcd_matches_fraction_euclid(p, q, common):
    left, right = unipoly.mul(p, common), unipoly.mul(q, common)
    expected = _euclid_gcd(left, right)
    got = unipoly.gcd(left, right)
    assert got == expected
    assert all(type(c) is F for c in got)
    assert unipoly.gcd(right, left) == expected
    as_ints = unipoly.primitive_part(left), unipoly.primitive_part(right)
    assert unipoly.gcd(*as_ints) == expected


def test_primitive_part():
    assert unipoly.primitive_part((F(1, 2), F(-3, 4), 0, 0)) == (-2, 3)
    assert unipoly.primitive_part([4, 6]) == (2, 3)
    assert unipoly.primitive_part((0, 0)) == ()


@pytest.mark.parametrize("p", [[True, 2], [1, False], [1, 2.0], [0.5]],
                         ids=["true", "false", "float", "lone-float"])
def test_primitive_part_refuses_floats_and_bools(p):
    with pytest.raises(TypeError, match="coefficients are not allowed"):
        unipoly.primitive_part(p)


def _sympy_factor(p):
    """factor_rational's contract computed by sympy.factor_list over QQ."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    roots, others = [], []
    for factor, mult in factors:
        coeffs = unipoly.normalize([F(str(c)) for c in reversed(factor.all_coeffs())])
        if len(coeffs) == 2:
            roots.append((-coeffs[0] / coeffs[1], int(mult)))
        else:
            others.append((unipoly.monic(coeffs), int(mult)))
    return sorted(roots), sorted(others)


def _product(factors):
    out = (F(1),)
    for factor, mult in factors:
        for _ in range(mult):
            out = unipoly.mul(out, unipoly.normalize(factor))
    return out


huge_coeff = st.one_of(
    st.integers(-3, 3),
    st.integers(-2**160, 2**160),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def factored_poly(draw):
    """A product of random factors, some repeated, of total degree 3..14."""
    factors, total = [], 0
    for _ in range(draw(st.integers(1, 5))):
        room = 14 - total
        if room < 1:
            break
        degree = draw(st.integers(1, min(4, room)))
        mult = draw(st.integers(1, max(1, min(3, room // degree))))
        coeffs = draw(st.lists(huge_coeff, min_size=degree, max_size=degree))
        lead = draw(st.one_of(st.integers(1, 6), huge_coeff.filter(bool)))
        factors.append((coeffs + [lead], mult))
        total += degree * mult
    p = _product(factors)
    if unipoly.degree(p) < 3:
        p = unipoly.mul(p, (F(1), F(0), F(0), F(1)))
    return p


@given(p=factored_poly())
# Swinnerton-Dyer quartic: splits modulo every prime, so the modular
# factors must be recombined
@example(p=unipoly.normalize([1, 0, -10, 0, 1]))
@example(p=_product([([-2, 0, 1], 1), ([-3, 0, 1], 1), ([F(-1, 3), 1], 2)]))
# an irreducible flat-band quartic of the benchmark's dispersion corpus
@example(p=unipoly.normalize([F(20847348761825984, 104135625), F(7112028062516, 378675),
                              F(-633566841739, 617100), F(2014264, 765), 1]))
# the leading coefficient is divisible by the first eight odd primes
@example(p=_product([([1, 2, 3, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23], 1),
                     ([5, 0, 3 * 5 * 7 * 11 * 13, 1], 2)]))
@settings(max_examples=60, deadline=None)
def test_factor_rational_matches_sympy(p):
    expected = _sympy_factor(p)
    assert unipoly.factor_rational(p) == expected
    assert unipoly.factor_rational(unipoly.scale(p, F(-7, 3))) == expected
