"""Exact sparse Laurent polynomial arithmetic over the rationals.

Polynomials live in Q[z1^±1, .., zd^±1, lam] where ``lam`` is an ordinary
nonnegative-exponent variable reserved for the spectral parameter.  A term
is keyed by the exponent tuple ``(a_1, .., a_d, b)`` with the lam exponent
``b`` last.  Coefficients are `fractions.Fraction`; floats are rejected so
that divisibility questions stay decidable.

Determinants run in integers.  One packer, `PackedTemplate`, takes
per-row ``(column, exponent tuple, label)`` triples once and `fill`s
them with each set of label values into a `PackedPencil`: each row's
numerators over the lcm of its denominators, every exponent tuple packed
into one int by Kronecker substitution, and the product of the row
denominators.  `pack_rows` packs coefficient triples through it.  One
expander, `det_packed`, expands minors of such a pencil row by row with
no recursion: `_row_masks` lists the column bitmasks each row expands
on (the min-plus permanent in `flatbands.polytope` walks the same
lists), and a loop from the last row up keeps only the minors of the
row below.  It returns the determinant as {packed key: integer
numerator} over the pencil's denominator; the exact decisions in
`flatbands.flatband` read it as it is.  `det_leibniz` takes a pencil
(or a `LaurentMatrix`, which it packs first), runs `det_packed`, and
decodes the result to a `LaurentPoly`, dividing the denominator back
out once per term; `determinant` always runs it.  `det_bareiss`
(fraction-free elimination over the Laurent ring) is the independent
test oracle.  `support_leibniz` runs `det_packed` too, straight on a
template's keys with every coefficient 1 and no sign flip, so it reads
no label: that expands the permanent of the template's 0/1 pattern,
whose keys are its support.  Both decode packed keys through `_unpack`.
`format_poly` and `format_unipoly` share one term joiner.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


def _coerce(value, what: str = "coefficients") -> Fraction:
    """``value`` as an exact `Fraction`; an exact `Fraction` is returned as it is.

    A float or bool is a TypeError that names `what` was refused.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(
            f"{type(value).__name__} {what} are not allowed; use Fraction or int")
    return Fraction(value)


def _integers(what: str, values: Iterable) -> tuple[int, ...]:
    """``values`` as a tuple of ints; any other entry, a bool included, is a ValueError."""
    values = tuple(values)
    for e in values:
        if type(e) is not int:
            raise ValueError(f"{what} {values!r} has an entry that is not an integer")
    return values


class LaurentPoly:
    """Immutable sparse Laurent polynomial in z1..zd and lam."""

    __slots__ = ("dimension", "_terms")

    def __init__(self, dimension: int, terms: Mapping[Exponent, object] | None = None):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for key, value in (terms or {}).items():
            key = _integers("exponent", key)
            if len(key) != dimension + 1:
                raise ValueError(
                    f"exponent {key!r} has length {len(key)}, expected {dimension + 1}"
                )
            if key[-1] < 0:
                raise ValueError(f"negative lam exponent in {key!r}")
            coeff = _coerce(value)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def _from_terms(cls, dimension: int, terms: dict[Exponent, Fraction]) -> "LaurentPoly":
        """Wrap a term dict without copying or checking it.

        For data the package has already produced or checked: exponent
        tuples of length dimension + 1 with a nonnegative lam exponent, and
        nonzero `Fraction` coefficients.  The dict is owned by the result.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dimension", dimension)
        object.__setattr__(poly, "_terms", terms)
        return poly

    @classmethod
    def zero(cls, dimension: int) -> "LaurentPoly":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value) -> "LaurentPoly":
        return cls(dimension, {(0,) * (dimension + 1): value})

    @classmethod
    def monomial(cls, dimension: int, z_exponents: Sequence[int], lam_exponent: int = 0,
                 coeff=1) -> "LaurentPoly":
        key = tuple(z_exponents) + (lam_exponent,)
        return cls(dimension, {key: coeff})

    @classmethod
    def z_var(cls, dimension: int, axis: int, power: int = 1) -> "LaurentPoly":
        exps = [0] * dimension
        exps[axis] = power
        return cls.monomial(dimension, exps)

    @classmethod
    def lam(cls, dimension: int) -> "LaurentPoly":
        return cls.monomial(dimension, (0,) * dimension, 1)

    # -- queries ---------------------------------------------------------
    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[Exponent]:
        return frozenset(self._terms)

    def coefficient(self, key: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(key), Fraction(0))

    @property
    def lam_degree(self) -> int:
        """Degree in lam; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(key[-1] for key in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dimension == other.dimension and self._terms == other._terms

    def __hash__(self):
        return hash((self.dimension, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -------------------------------------------------
    def _check_dim(self, other: "LaurentPoly") -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.dimension, other)
        self._check_dim(other)
        terms = dict(self._terms)
        for key, value in other._terms.items():
            acc = terms.get(key, Fraction(0)) + value
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return LaurentPoly(self.dimension, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.dimension, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.dimension, other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check_dim(other)
        terms: dict[Exponent, Fraction] = {}
        for ka, va in self._terms.items():
            for kb, vb in other._terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                acc = terms.get(key, Fraction(0)) + va * vb
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return LaurentPoly(self.dimension, terms)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.scale(other)

    def scale(self, scalar) -> "LaurentPoly":
        scalar = _coerce(scalar)
        if not scalar:
            return LaurentPoly.zero(self.dimension)
        return LaurentPoly(self.dimension, {k: v * scalar for k, v in self._terms.items()})

    def shift(self, z_offsets: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial z^z_offsets."""
        off = tuple(z_offsets) + (0,)
        return LaurentPoly(
            self.dimension,
            {tuple(a + b for a, b in zip(k, off)): v for k, v in self._terms.items()},
        )

    def negate_z(self) -> "LaurentPoly":
        """Replace every z-exponent vector a by -a (lam untouched)."""
        return LaurentPoly(
            self.dimension,
            {tuple(-e for e in k[:-1]) + (k[-1],): v for k, v in self._terms.items()},
        )

    # -- formatting ------------------------------------------------------
    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly(d={self.dimension}, {format_poly(self)})"


def _evaluate(poly: LaurentPoly, z: Sequence) -> list:
    """Ascending lam-coefficients of ``poly`` at ``z``, in the number type of ``z``."""
    out = [0] * (poly.lam_degree + 1)
    for key, coeff in poly._terms.items():
        value = coeff
        for c, e in zip(z, key[:-1]):
            value *= c ** e
        out[key[-1]] += value
    return out


def facial_polynomial(poly: LaurentPoly, weights: Sequence[int]) -> LaurentPoly:
    """Sub-sum of ``poly`` over the support points minimizing the weight.

    The zero weight vector returns ``poly`` itself (the whole polytope is
    the face).  The zero polynomial has no faces and is rejected.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial has no facial polynomials")
    w = tuple(weights)
    if len(w) != poly.dimension + 1:
        raise ValueError(f"weight vector length {len(w)} != {poly.dimension + 1}")
    best = min(sum(c * e for c, e in zip(w, key)) for key in poly._terms)
    terms = {
        key: value
        for key, value in poly._terms.items()
        if sum(c * e for c, e in zip(w, key)) == best
    }
    return LaurentPoly(poly.dimension, terms)


# ---------------------------------------------------------------------------
# matrices and determinants


class LaurentMatrix:
    """Square matrix of LaurentPoly entries sharing one dimension."""

    __slots__ = ("entries", "size", "dimension")

    def __init__(self, entries: Iterable[Iterable[LaurentPoly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows:
            raise ValueError("matrix must be nonempty")
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        dim = rows[0][0].dimension
        for row in rows:
            for entry in row:
                if entry.dimension != dim:
                    raise ValueError("all entries must share one dimension")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "dimension", dim)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    def __getitem__(self, index):
        return self.entries[index]

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries


class PackedPencil:
    """Square matrix in the integer form that `det_packed` expands.

    ``rows[r]`` holds one ``(1 << col, terms, negated terms)`` triple per
    nonzero entry of row r, in ascending column order.  A term is a pair
    (packed exponent, integer numerator) over the row's lcm denominator.
    ``denominator`` is the product of the row denominators, so the
    determinant of the pencil is the integer determinant over it.
    Exponents are packed in base ``base``; see `PackedTemplate`.
    """

    __slots__ = ("size", "dimension", "base", "rows", "denominator")

    def __init__(self, size: int, dimension: int, base: int, rows: list, denominator: int):
        self.size = size
        self.dimension = dimension
        self.base = base
        self.rows = rows
        self.denominator = denominator


class PackedTemplate:
    """A square matrix packed for `det_packed`, with its coefficients left open.

    Built from per-row ``(column, exponent, label)`` triples.  Within a
    row each (column, exponent) pair appears at most once; a column with
    no triple is a zero entry.  ``label`` indexes the values that `fill`
    takes, so one template serves every labeling of one pattern.
    Exponent vectors are packed into one int (Kronecker substitution):
    with m the largest |exponent| (at least 1) and B = 2*n*m + 1, the
    vector e maps to sum(e_k * B**k).  The map is linear, so multiplying
    monomials adds their packed keys, and every exponent of a k x k minor
    is bounded by k*m <= n*m < B/2, so balanced base-B digits decode each
    key of the determinant exactly.

    ``rows[r]`` is a pair (labels, entries): the distinct labels of row
    r, and its entries in ascending column order as ``(1 << column,
    ((packed key, slot), ...))``, where ``labels[slot]`` labels the term.
    """

    __slots__ = ("size", "dimension", "base", "rows")

    def __init__(self, dimension: int, rows: Sequence[Sequence[tuple[int, Exponent, int]]]):
        n = len(rows)
        m = max([1] + [abs(e) for row in rows for _, key, _ in row for e in key])
        base = 2 * n * m + 1
        powers = [base ** k for k in range(dimension + 1)]
        packed_rows = []
        for row in rows:
            labels = list(dict.fromkeys([label for _, _, label in row]))
            columns: dict[int, list[tuple[int, int]]] = {}
            for col, key, label in row:
                term = (sum(map(mul, key, powers)), labels.index(label))
                if col in columns:
                    columns[col].append(term)
                else:
                    columns[col] = [term]
            packed_rows.append((tuple(labels), tuple(
                (1 << col, tuple(terms)) for col, terms in sorted(columns.items()))))
        self.size = n
        self.dimension = dimension
        self.base = base
        self.rows = packed_rows

    def fill(self, values: Sequence) -> PackedPencil:
        """The matrix with coefficient ``values[label]`` on each term.

        Values are ints or `Fraction`s.  Row r is scaled by the lcm d_r of
        its nonzero denominators and holds integer numerators, which
        multiplies the determinant by prod(d_r), the pencil's
        denominator.  Terms with a zero value are left out, and so is an
        entry with no term left.
        """
        ratios = [(value.numerator, value.denominator) for value in values]
        denominator = 1
        packed_rows = []
        for labels, entries in self.rows:
            row = [ratios[label] for label in labels]
            scale = math.lcm(*[den for num, den in row if num])
            denominator *= scale
            nums = [num * (scale // den) for num, den in row]
            packed_row = []
            for bit, terms in entries:
                kept = tuple([(key, nums[slot]) for key, slot in terms if nums[slot]])
                if kept:
                    packed_row.append((bit, kept, tuple([(key, -c) for key, c in kept])))
            packed_rows.append(packed_row)
        return PackedPencil(self.size, self.dimension, self.base, packed_rows, denominator)


def pack_rows(dimension: int, rows: Sequence[Sequence[tuple[int, Exponent, object]]]
              ) -> PackedPencil:
    """Pack a square matrix given as per-row (column, exponent, coefficient) triples.

    A `PackedTemplate` with one label per triple, filled with the
    coefficients at once; see there for the packing and the scaling.
    """
    values: list = []
    labeled = []
    for row in rows:
        labeled.append([(col, key, len(values) + k) for k, (col, key, _) in enumerate(row)])
        values.extend([coeff for _, _, coeff in row])
    return PackedTemplate(dimension, labeled).fill(values)


def det_leibniz(matrix: LaurentMatrix | PackedPencil) -> LaurentPoly:
    """Determinant as a `LaurentPoly`: `det_packed`, then one decode.

    A `LaurentMatrix` is packed through `pack_rows` first.  Each output
    coefficient is divided by the pencil's denominator once, and each
    packed key is decoded into balanced base-B digits.
    """
    if isinstance(matrix, PackedPencil):
        pencil = matrix
    else:
        pencil = pack_rows(matrix.dimension, [
            [(col, key, coeff) for col, entry in enumerate(row)
             for key, coeff in entry._terms.items()]
            for row in matrix.entries
        ])
    base = pencil.base
    dim = pencil.dimension
    denominator = pencil.denominator
    out = {_unpack(packed, base, dim): Fraction(value, denominator)
           for packed, value in det_packed(pencil).items()}
    return LaurentPoly._from_terms(dim, out)


def _row_masks(rows: Sequence[Sequence[tuple]], mask: int) -> list[set[int]]:
    """Column masks of the row expansion of ``rows`` from the columns in ``mask``.

    Entry r holds the masks that expanding rows 0..r-1 leaves: the
    column sets of the minors that row r expands.  An entry of a row
    starts with its column bit.  ``mask`` has one column per row.
    """
    levels = [{mask}]
    for row in rows[:-1]:
        levels.append({left ^ entry[0] for left in levels[-1] for entry in row if left & entry[0]})
    return levels


def det_packed(pencil: PackedPencil) -> dict[int, int]:
    """Integer determinant of a packed pencil: {packed key: numerator}.

    Every numerator is over ``pencil.denominator``, and no value is 0.
    One row-by-row minor expansion with no recursion: `_row_masks` lists
    the column masks each row expands on, and a loop from the last row
    up keeps only the nonzero minors of the row below, keyed by mask.
    Column ``bit`` enters with the sign of the number of remaining
    columns before it.  The sign is carried by each entry's negated
    terms, so rows whose negated terms equal their terms make this the
    permanent; `support_leibniz` runs it that way.
    """
    full = (1 << pencil.size) - 1
    below: dict[int, dict[int, int]] = {0: {0: 1}}
    for row, masks in zip(reversed(pencil.rows), reversed(_row_masks(pencil.rows, full))):
        minors = {}
        for mask in masks:
            acc: dict[int, int] = {}
            get = acc.get
            for bit, terms, negated in row:
                # a column outside mask gives a mask no minor below has
                sub = below.get(mask ^ bit)
                if sub is None:
                    continue
                odd = (mask & (bit - 1)).bit_count() & 1
                for key, coeff in negated if odd else terms:
                    for sub_key, sub_coeff in sub.items():
                        target = key + sub_key
                        acc[target] = get(target, 0) + coeff * sub_coeff
            result = {key: value for key, value in acc.items() if value}
            if result:
                minors[mask] = result
        below = minors
    return below.get(full, {})


def support_leibniz(template: PackedTemplate) -> frozenset[Exponent]:
    """Support of the permanent of the template's pattern: every reachable exponent.

    Each term of the template becomes coefficient 1, with the negated
    terms equal to the terms, and `det_packed` on those unit, sign-free
    rows expands the permanent; each output coefficient counts the cycle
    covers that reach its key, so none cancels.  No label is read.  Its
    keys are exactly the support of the determinant when no two cover
    terms with one exponent can cancel; see
    `flatbands.polytope.generic_support` for why that holds for a pencil
    whose every label is an indeterminate.
    """
    rows = []
    for _, entries in template.rows:
        unit = []
        for bit, terms in entries:
            ones = tuple([(key, 1) for key, _ in terms])
            unit.append((bit, ones, ones))
        rows.append(unit)
    pencil = PackedPencil(template.size, template.dimension, template.base, rows, 1)
    return frozenset(_unpack(packed, template.base, template.dimension)
                     for packed in det_packed(pencil))


def _unpack(packed: int, base: int, dimension: int) -> Exponent:
    """Balanced base-``base`` digits of a packed key: its exponent tuple."""
    half = base // 2
    exponent = []
    for _ in range(dimension + 1):
        digit = packed % base
        if digit > half:
            digit -= base
        exponent.append(digit)
        packed = (packed - digit) // base
    return tuple(exponent)


def _exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den; raises ArithmeticError when not divisible."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return num
    if len(den._terms) == 1:
        (key, coeff), = den._terms.items()
        terms = {}
        for k, v in num._terms.items():
            new = tuple(a - b for a, b in zip(k, key))
            if new[-1] < 0:
                raise ArithmeticError("not divisible: negative lam exponent")
            terms[new] = v / coeff
        return LaurentPoly(num.dimension, terms)
    # Shift both to nonnegative exponents, then do ordered term division.
    width = num.dimension + 1

    def shift_of(poly):
        return tuple(
            min(0, min(k[i] for k in poly._terms)) for i in range(width)
        )

    sn, sd = shift_of(num), shift_of(den)
    ntab = {tuple(a - b for a, b in zip(k, sn)): v for k, v in num._terms.items()}
    dtab = {tuple(a - b for a, b in zip(k, sd)): v for k, v in den._terms.items()}
    dlead = max(dtab)
    dcoeff = dtab[dlead]
    quotient: dict[Exponent, Fraction] = {}
    while ntab:
        nlead = max(ntab)
        diff = tuple(a - b for a, b in zip(nlead, dlead))
        if any(e < 0 for e in diff):
            raise ArithmeticError("polynomials do not divide exactly")
        coeff = ntab[nlead] / dcoeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + coeff
        for key, value in dtab.items():
            tgt = tuple(a + b for a, b in zip(diff, key))
            acc = ntab.get(tgt, Fraction(0)) - coeff * value
            if acc:
                ntab[tgt] = acc
            else:
                ntab.pop(tgt, None)
    back = tuple(a - b for a, b in zip(sn, sd))
    return LaurentPoly(
        num.dimension,
        {tuple(a + b for a, b in zip(k, back)): v for k, v in quotient.items()},
    )


def det_bareiss(matrix: LaurentMatrix) -> LaurentPoly:
    """Fraction-free Bareiss elimination over the Laurent ring.

    Rows are first scaled by monomials so every z-exponent is nonnegative;
    the scaling is divided back out of the result.
    """
    n = matrix.size
    dim = matrix.dimension
    total_shift = [0] * dim
    work: list[list[LaurentPoly]] = []
    for row in matrix.entries:
        shift = [0] * dim
        for entry in row:
            for key in entry._terms:
                for i in range(dim):
                    shift[i] = max(shift[i], -key[i])
        for i in range(dim):
            total_shift[i] += shift[i]
        work.append([entry.shift(shift) for entry in row])

    sign = 1
    prev = LaurentPoly.constant(dim, 1)
    for k in range(n - 1):
        if work[k][k].is_zero:
            for r in range(k + 1, n):
                if not work[r][k].is_zero:
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(dim)
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = num if k == 0 else _exact_divide(num, prev)
            work[i][k] = LaurentPoly.zero(dim)
        prev = pivot
    det = work[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det.shift([-s for s in total_shift])


def determinant(matrix: LaurentMatrix | PackedPencil) -> LaurentPoly:
    """Exact determinant as a `LaurentPoly`, by `det_leibniz`.

    The name exists as the one dispersion entry: `FloquetMatrix.dispersion`
    calls it, and the benchmark tracer's ``laurent.det`` span wraps it.
    The exact decisions run the same expansion, `det_packed`, and skip
    the decode.
    """
    return det_leibniz(matrix)


# ---------------------------------------------------------------------------
# deterministic serialization


def decimal_text(value: int | Fraction) -> str:
    """``str(value)``, also past the interpreter's int -> str digit limit.

    Exact results can have more digits than that limit (4300 by default)
    allows: a dispersion cubes the potentials.  Only then is the number
    written through ``decimal``, which converts ints without the limit.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{decimal_text(value.numerator)}/{decimal_text(value.denominator)}"
    import decimal
    return str(decimal.Decimal(int(value)))


def _join_terms(terms: Iterable[tuple[int | Fraction, list[str]]]) -> str:
    """Signed sum of (coefficient, factors) pairs; a unit coefficient is elided."""
    pieces = []
    for coeff, factors in terms:
        if not factors:
            body = decimal_text(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([decimal_text(abs(coeff))] + factors)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    if not pieces:
        return "0"
    head = pieces[0]
    head = "-" + head[2:] if head.startswith("- ") else head[2:]
    return " ".join([head] + pieces[1:])


def format_poly(poly: LaurentPoly) -> str:
    """Render with terms sorted by (lam exponent, z exponents)."""
    d = poly.dimension
    terms = []
    for key in sorted(poly._terms, key=lambda k: (k[-1], k[:-1])):
        factors = []
        for axis in range(d):
            e = key[axis]
            if e == 1:
                factors.append(f"z{axis + 1}")
            elif e != 0:
                factors.append(f"z{axis + 1}^{e}")
        b = key[-1]
        if b == 1:
            factors.append("lam")
        elif b != 0:
            factors.append(f"lam^{b}")
        terms.append((poly._terms[key], factors))
    return _join_terms(terms)


def format_unipoly(coeffs: Sequence[int | Fraction]) -> str:
    """Render ascending coefficients with the highest power first."""
    return _join_terms(
        (coeffs[p], [] if p == 0 else ["lam"] if p == 1 else [f"lam^{p}"])
        for p in range(len(coeffs) - 1, -1, -1) if coeffs[p])
