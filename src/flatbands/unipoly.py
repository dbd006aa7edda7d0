"""Univariate polynomials over Q as ascending coefficient tuples.

The empty tuple is the zero polynomial.  Everything here is exact and
runs on the standard library alone.  The gcd and the factorization over
Q work on primitive integer polynomials in plain ints: the factorization
takes a square-free decomposition, factors each part modulo a prime,
lifts the modular factors p-adically and recombines them over Z
(Zassenhaus 1969; von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14-15).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .laurent import _coerce

Coeffs = tuple[Fraction, ...]


def normalize(coefficients: Sequence) -> Coeffs:
    coeffs = [_coerce(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(poly: Coeffs) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(poly) - 1


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return normalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def scale(p: Coeffs, factor) -> Coeffs:
    return normalize([c * _coerce(factor) for c in p])


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def evaluate(p: Coeffs, x) -> Fraction:
    x = _coerce(x)
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


def primitive_part(p: Sequence) -> tuple[int, ...]:
    """Integer primitive part (positive leading coefficient) of ints or rationals.

    Trailing zeros are dropped first; the zero polynomial gives ().
    """
    p = [c if type(c) is int else _coerce(c) for c in p]
    denom = math.lcm(*[c.denominator for c in p])
    return _int_primitive([c.numerator * (denom // c.denominator) for c in p])


def _int_primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """`primitive_part` of a polynomial whose coefficients are already ints."""
    end = len(ints)
    while end and not ints[end - 1]:
        end -= 1
    if not end:
        return ()
    g = math.gcd(*ints)
    if ints[end - 1] < 0:
        g = -g
    return tuple([c // g for c in ints[:end]])


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
    return _int_primitive(rem)


def _primitive_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd of two primitive integer polynomials, (1,) if constant."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _prem_primitive(a, b)
    return a


def gcd(p: Sequence, q: Sequence) -> Coeffs:
    """Monic gcd over Q; gcd(0, 0) is the zero polynomial.

    Takes ascending coefficients, ints or rationals.  Both inputs are
    reduced to primitive integer polynomials, and a primitive remainder
    sequence (Collins 1967, Brown 1971) runs in ints: each pseudo-remainder
    is divided by its content, which keeps the coefficients small.  The
    last nonzero remainder is the gcd up to a constant; a constant
    remainder ends the sequence with 1.
    """
    g = _primitive_gcd(primitive_part(p), primitive_part(q))
    if not g:
        return ()
    lead = g[-1]
    return tuple(Fraction(c, lead) for c in g)


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
    irreducible factors as monic ascending coefficient tuples, sorted.
    Degrees one and two are handled directly.  Higher degrees go through
    `_factor_squarefree` on each part of the square-free decomposition of
    the primitive integer polynomial; the monic irreducible factors over
    Q are unique, so the result does not depend on the method.
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

    roots: list[tuple[Fraction, int]] = []
    others: list[tuple[Coeffs, int]] = []
    for part, mult in _squarefree_parts(primitive_part(p)):
        for factor in _factor_squarefree(part):
            if len(factor) == 2:
                roots.append((Fraction(-factor[0], factor[1]), mult))
            else:
                lead = factor[-1]
                others.append((tuple(Fraction(c, lead) for c in factor), mult))
    for root, _ in roots:
        if evaluate(p, root) != 0:
            raise ArithmeticError(f"factorization produced a bogus root {root}")
    return sorted(roots), sorted(others)


# ---------------------------------------------------------------------------
# factoring over Z: square-free parts, then modular factors lifted and
# recombined.  Integer polynomials are ascending int tuples or lists.


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _int_quotient(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...] | None:
    """a / b in Z[x] when b divides a there, else None."""
    top = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quot = [0] * max(0, len(a) - top)
    for shift in range(len(a) - len(b), -1, -1):
        c, r = divmod(rem[shift + top], lead)
        if r:
            return None
        if c:
            quot[shift] = c
            for i in range(top):
                rem[shift + i] -= c * b[i]
    if any(rem[:top]):
        return None
    return tuple(quot)


def _squarefree_parts(f: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Yun's square-free decomposition of a primitive f of degree >= 1.

    Returns (part, i) pairs with f = prod(part ** i) up to sign; the parts
    are primitive, square-free and pairwise coprime.  Every division is
    by a primitive divisor, so by Gauss's lemma it is exact in Z[x].
    """
    df = _derivative(f)
    c = _primitive_gcd(f, primitive_part(df))
    w, y = _int_quotient(f, c), _int_quotient(df, c)
    z = _int_sub(y, _derivative(w))
    parts = []
    i = 1
    while len(w) > 1:
        g = _primitive_gcd(w, primitive_part(z))
        if len(g) > 1:
            parts.append((g, i))
        w, y = _int_quotient(w, g), _int_quotient(z, g)
        z = _int_sub(y, _derivative(w))
        i += 1
    return parts


def _primes():
    """Odd primes in increasing order (p = 2 does not suit Cantor-Zassenhaus)."""
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


# Good primes examined for the degree test before the factorization
# commits to the one with the fewest modular factors.
_PRIME_TRIALS = 8


def _factor_squarefree(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Irreducible factors over Z of a primitive square-free f.

    A prime is good when it does not divide lc(f) and f stays square-free
    modulo it.  Distinct-degree factorization modulo a good prime gives
    the degrees of the modular factors; a factor of f over Q has a degree
    that is a sum of some of them, for every good prime.  When only 0 and
    deg f are left, f is irreducible (always so when f is irreducible
    modulo one prime).  Otherwise the prime with the fewest modular
    factors is used: Cantor-Zassenhaus splits them, Hensel lifting takes
    them past twice the coefficient bound, and Zassenhaus recombination
    tries products of subsets by trial division in Z.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    lead = f[-1]
    allowed = set(range(n + 1))
    best = None
    trials = 0
    for p in _primes():
        if lead % p == 0:
            continue
        fp = _monic_mod(_reduce(f, p), p)
        if len(_gcd_mod(fp, _reduce(_derivative(fp), p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        sums = {0}
        count = 0
        for g, k in ddf:
            for _ in range((len(g) - 1) // k):
                sums |= {s + k for s in sums}
                count += 1
        allowed &= sums
        if len(allowed) == 2:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
        trials += 1
        if trials == _PRIME_TRIALS:
            break
    _, p, ddf = best
    rng = random.Random(p)
    modular = [h for g, k in ddf for h in _equal_degree(g, k, p, rng)]
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * abs(lead) * (norm << n)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel_lift(_reduce(f, modulus), modular, p, modulus),
                      modulus, allowed)


def _recombine(f: tuple[int, ...], lifted: list[list[int]], modulus: int,
               allowed: set[int]) -> list[tuple[int, ...]]:
    """Zassenhaus recombination of monic factors lifted mod ``modulus``.

    Subsets are tried in increasing size; a subset's product, times the
    leading coefficient of what is left of f, taken with symmetric
    residues, is the factor itself (up to its content) when the subset is
    the image of a factor over Z, because the modulus exceeds twice the
    coefficient bound.  Degrees outside ``allowed`` cannot be factors.
    """
    factors = []
    half = modulus // 2
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if sum(len(lifted[i]) - 1 for i in subset) not in allowed:
                continue
            candidate = [f[-1] % modulus]
            for i in subset:
                candidate = _mul_mod(candidate, lifted[i], modulus)
            candidate = primitive_part([c - modulus if c > half else c for c in candidate])
            quotient = _int_quotient(f, candidate)
            if quotient is not None:
                factors.append(candidate)
                f = primitive_part(quotient)
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return factors


def _hensel_lift(f: list[int], modular: list[list[int]], p: int, modulus: int
                 ) -> list[list[int]]:
    """Lift f = lc(f) * prod(modular) mod p to monic factors mod ``modulus``.

    ``modulus`` is p ** (2 ** k).  The factors are split in two halves,
    the pair is lifted by quadratic Hensel steps (von zur Gathen and
    Gerhard, Algorithm 15.10), and each half is lifted the same way.
    """
    if len(modular) == 1:
        inverse = pow(f[-1], -1, modulus)
        return [[c * inverse % modulus for c in f]]
    half = len(modular) // 2
    g = [f[-1] % p]
    for h in modular[:half]:
        g = _mul_mod(g, h, p)
    h = [1]
    for k in modular[half:]:
        h = _mul_mod(h, k, p)
    s, t = _bezout_mod(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = _sub_mod(f, _mul_mod(g, h, m), m)
        q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
        g = _add_mod(g, _add_mod(_mul_mod(t, e, m), _mul_mod(q, g, m), m), m)
        h = _add_mod(h, r, m)
        if m < modulus:
            b = _sub_mod(_add_mod(_mul_mod(s, g, m), _mul_mod(t, h, m), m), [1], m)
            c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
            s = _sub_mod(s, d, m)
            t = _sub_mod(t, _add_mod(_mul_mod(t, b, m), _mul_mod(c, g, m), m), m)
    return (_hensel_lift(g, modular[:half], p, modulus)
            + _hensel_lift(h, modular[half:], p, modulus))


# ---------------------------------------------------------------------------
# polynomials modulo m as ascending int lists of residues in [0, m), with
# no trailing zeros.  Divisors must have a leading coefficient prime to m.


def _reduce(a: Sequence[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _reduce([c + b[i] if i < len(b) else c for i, c in enumerate(a)], m)


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-c for c in b], m)


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    top = len(b) - 1
    inverse = pow(b[-1], -1, m)
    rem = list(a)
    quot = [0] * max(0, len(a) - top)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + top] * inverse % m
        if c:
            quot[shift] = c
            for i in range(top):
                rem[shift + i] -= c * b[i]
    return _reduce(quot, m), _reduce(rem[:top], m)


def _monic_mod(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo a prime; gcd(a, 0) is monic a."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _bezout_mod(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*g + t*h = 1 mod p, deg s < deg h and deg t < deg g."""
    r0, r1 = g, h
    s0, s1 = [1], []
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
    inverse = pow(r0[0], -1, p)
    s = [c * inverse % p for c in s0]
    s = _divmod_mod(s, h, p)[1]
    t, _ = _divmod_mod(_sub_mod([1], _mul_mod(s, g, p), p), h, p)
    return s, t


def _pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a ** e modulo f and p."""
    result = [1]
    a = _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return result


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, k) pairs: g is the product of the degree-k factors of monic
    square-free f modulo p, for each k that has any."""
    out = []
    x = [0, 1]
    h = x
    k = 0
    while 2 * (k + 1) <= len(f) - 1:
        k += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, x, p), p)
        if len(g) > 1:
            out.append((g, k))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list[int], k: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: split monic f, a product of degree-k factors mod p."""
    n = len(f) - 1
    if n == k:
        return [f]
    exponent = (p ** k - 1) // 2
    while True:
        a = _reduce([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        g = _gcd_mod(f, _sub_mod(_pow_mod(a, exponent, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            break
    return (_equal_degree(g, k, p, rng)
            + _equal_degree(_divmod_mod(f, g, p)[0], k, p, rng))
