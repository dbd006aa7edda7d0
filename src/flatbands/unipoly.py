"""Univariate polynomials over Q as ascending coefficient tuples.

The empty tuple is the zero polynomial.  Everything here is exact; the
only nontrivial dependency is sympy, imported lazily for factoring above
degree two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Coeffs = tuple[Fraction, ...]


def normalize(coefficients: Sequence) -> Coeffs:
    coeffs = [Fraction(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(poly: Coeffs) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(poly) - 1


def is_zero(poly: Coeffs) -> bool:
    return not poly


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return normalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def scale(p: Coeffs, factor) -> Coeffs:
    return normalize([c * Fraction(factor) for c in p])


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, scale(q, -1))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def evaluate(p: Coeffs, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monic(p: Coeffs) -> Coeffs:
    if not p:
        raise ValueError("cannot make the zero polynomial monic")
    lead = p[-1]
    return tuple(c / lead for c in p)


def divmod_exact(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Euclidean division over Q: p = quot*q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for shift in range(len(rem) - len(q), -1, -1):
        factor = rem[shift + len(q) - 1] / lead
        if factor:
            quot[shift] = factor
            for i, c in enumerate(q):
                rem[shift + i] -= factor * c
    return normalize(quot), normalize(rem[: len(q) - 1])


def synthetic_divide(p: Coeffs, root) -> tuple[Coeffs, Fraction]:
    """Divide by (x - root); returns (quotient, remainder value)."""
    root = Fraction(root)
    if not p:
        return (), Fraction(0)
    out: list[Fraction] = []
    carry = Fraction(0)
    for c in reversed(p):
        carry = carry * root + c
        out.append(carry)
    remainder = out.pop()
    out.reverse()
    return normalize(out), remainder


def primitive_part(p: Sequence) -> tuple[int, ...]:
    """Integer primitive part (positive leading coefficient) of ints or rationals.

    Trailing zeros are dropped first; the zero polynomial gives ().
    """
    end = len(p)
    while end and not p[end - 1]:
        end -= 1
    if not end:
        return ()
    p = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in p[:end]]
    denom = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (denom // c.denominator) for c in p]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return tuple(c // g for c in ints)


def _prem_primitive(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive part of the pseudo-remainder of a by b (deg a >= deg b >= 1).

    The division runs in ints: each step with a nonzero leading term
    scales the remainder by lc(b) and cancels that term, so the result is
    a constant multiple of the remainder over Q.
    """
    rem = list(a)
    lead = b[-1]
    top = len(b) - 1
    for shift in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            rem = [lead * x for x in rem]
            for i in range(top):
                rem[shift + i] -= c * b[i]
    return primitive_part(rem)


def gcd(p: Sequence, q: Sequence) -> Coeffs:
    """Monic gcd over Q; gcd(0, 0) is the zero polynomial.

    Takes ascending coefficients, ints or rationals.  Both inputs are
    reduced to primitive integer polynomials, and a primitive remainder
    sequence (Collins 1967, Brown 1971) runs in ints: each pseudo-remainder
    is divided by its content, which keeps the coefficients small.  The
    last nonzero remainder is the gcd up to a constant; a constant
    remainder ends the sequence with 1.
    """
    a, b = primitive_part(p), primitive_part(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (Fraction(1),)
        a, b = b, _prem_primitive(a, b)
    if not a:
        return ()
    lead = a[-1]
    return tuple(Fraction(c, lead) for c in a)


def sqrt_rational(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def factor_rational(p: Coeffs) -> tuple[list[tuple[Fraction, int]], list[tuple[Coeffs, int]]]:
    """Split p into rational roots and monic irreducible nonlinear factors.

    Returns ``(roots, others)`` where roots is a list of (root,
    multiplicity) pairs sorted by root and others lists the remaining
    irreducible factors as monic ascending coefficient tuples.  Degrees
    one and two are handled directly; higher degrees go through sympy.
    """
    p = normalize(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if len(p) == 1:
        return [], []
    if len(p) == 2:
        return [(-p[0] / p[1], 1)], []
    if len(p) == 3:
        c0, c1, c2 = p
        disc = c1 * c1 - 4 * c2 * c0
        root_disc = sqrt_rational(disc)
        if root_disc is None:
            return [], [(monic(p), 1)]
        if root_disc == 0:
            return [(-c1 / (2 * c2), 2)], []
        r1 = (-c1 - root_disc) / (2 * c2)
        r2 = (-c1 + root_disc) / (2 * c2)
        return sorted([(r1, 1), (r2, 1)]), []

    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    roots: list[tuple[Fraction, int]] = []
    others: list[tuple[Coeffs, int]] = []
    for factor, mult in factors:
        fcoeffs = normalize(
            [Fraction(str(c)) for c in reversed(factor.all_coeffs())]
        )
        if len(fcoeffs) == 2:
            roots.append((-fcoeffs[0] / fcoeffs[1], int(mult)))
        else:
            others.append((monic(fcoeffs), int(mult)))
    for root, _ in roots:
        if evaluate(p, root) != 0:
            raise ArithmeticError(f"factorization produced a bogus root {root}")
    return sorted(roots), sorted(others)
