"""Exact arithmetic helpers: Gaussian rationals, small dense matrices,
Gaussian elimination and exact linear maps.

Everything in the pointwise algebra modules (excalc, g2lin, hk, spin) runs
over Fraction or QQi entries, so "equals zero" always means exactly zero.
Matrices are plain tuples of tuples; the sizes involved are 2x2 .. 8x8.
This is the one matrix vocabulary of those modules: the fibre 2-forms of hk
are 4x4 Fraction matrices, added, scaled and tested for zero with madd,
msub, mscale and is_zero_matrix like any other matrix.  The one elimination
routine, _row_echelon, serves inverse and kernel_basis on either entry type.

LinearMap is the one way an exact linear law is applied on a hot path: a
map is built once, lazily, from the images of the unit vectors
(from_columns) or as a composite (compose), and applying it reads each
input that it uses once, and no other, for integer dot products and one
Fraction per nonzero output instead of one Fraction per term.  The compiled
maps are HKTriple._variation_map and _recovery_map, from the triple's
tables; SpinorModel._curvature_sum_map and _dirac_first_map, each a map from
the model's 2x2 tables composed with the standard triple's _variation_map
slot by slot; and verify._cyclic_map, the four cyclic families of hk from
the complex structures' tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)  # shared by every zero output of a LinearMap


class QQi:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def _mk(cls, re: Fraction, im: Fraction) -> "QQi":
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def of(value) -> "QQi":
        if isinstance(value, QQi):
            return value
        return QQi(value)

    def __add__(self, other):
        o = other if isinstance(other, QQi) else QQi(other)
        return QQi._mk(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi._mk(-self.re, -self.im)

    def __sub__(self, other):
        o = other if isinstance(other, QQi) else QQi(other)
        return QQi._mk(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QQi.of(other) - self

    def __mul__(self, other):
        o = other if isinstance(other, QQi) else QQi(other)
        return QQi._mk(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, QQi) else QQi(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi._mk((self.re * o.re + self.im * o.im) / d,
                       (self.im * o.re - self.re * o.im) / d)

    def conj(self) -> "QQi":
        return QQi._mk(self.re, -self.im)

    def __eq__(self, other):
        o = QQi.of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


Matrix = tuple  # tuple of tuples, entries QQi or Fraction


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(QQi.of(e) for e in row) for row in rows)


def zeros(n: int, field=QQi) -> Matrix:
    return tuple(tuple(field(0) for _ in range(n)) for _ in range(n))


def eye(n: int, field=QQi) -> Matrix:
    return tuple(tuple(field(1 if i == j else 0) for j in range(n)) for i in range(n))


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((a[i][s] * bt[j][s] for s in range(k)), a[i][0] * 0)
              for j in range(m))
        for i in range(n)
    )


def mchain(*ms: Matrix) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mmul(out, m)
    return out


def mtrace(a: Matrix):
    return sum((a[i][i] for i in range(1, len(a))), a[0][0])


def dagger(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i].conj() for j in range(len(a))) for i in range(len(a[0])))


def kron(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(a[0])
    p, q = len(b), len(b[0])
    return tuple(
        tuple(a[i // p][j // q] * b[i % p][j % q] for j in range(m * q))
        for i in range(n * p)
    )


def is_zero_matrix(a: Matrix) -> bool:
    """Every entry is exactly zero: Fraction, int and QQi entries alike are
    tested by their truthiness, with no conversion."""
    return not any(map(any, a))


def mat_apply(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum((a[i][j] * v[j] for j in range(1, len(v))), a[i][0] * v[0])
                 for i in range(len(a)))


@dataclass(frozen=True)
class LinearMap:
    """An exact linear map from n_in rationals to len(rows) rationals: output
    s is sum(c * x[used[p]] for p, c in zip(*rows[s])) / den, with integer c.

    Built by from_columns, from_rows or compose in one canonical form (used
    holds the inputs that some row reads, each row the positions p in used of
    its nonzero entries, both increasing, and den is the least common
    denominator), so maps from equal columns, n_in included, compare equal
    and all others unequal.  A row is two tuples, its p and its c, not one
    pair per entry: the composed spinor maps hold about a thousand entries.
    """

    n_in: int
    used: tuple  # the inputs that some row reads
    rows: tuple  # per output, (its nonzero entries' positions in used, their int c)
    den: int

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Rat]]) -> "LinearMap":
        """The map whose n-th column, the image of the n-th unit vector, is
        columns[n]; every column has one entry per output."""
        den = math.lcm(*{x.denominator for col in columns for x in col})
        return LinearMap.from_rows(len(columns), [
            [(n, x.numerator * (den // x.denominator))
             for n, col in enumerate(columns) if (x := col[s])]
            for s in range(len(columns[0]))], den)

    @staticmethod
    def from_rows(n_in: int, rows: Sequence[Sequence[tuple]], den: int) -> "LinearMap":
        """The map x -> (sum(c * x[n] for n, c in row) / den for row in rows),
        each row's int c by increasing n, in lowest terms."""
        g = math.gcd(den, *(c for row in rows for _, c in row))
        used = tuple(sorted({n for row in rows for n, c in row if c}))
        position = {n: p for p, n in enumerate(used)}
        return LinearMap(n_in, used, tuple(
            (tuple(position[n] for n, c in row if c), tuple(c // g for _, c in row if c))
            for row in rows), den // g)

    def __call__(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        """The image of x, n_in ints or Fractions (bools and other
        subclasses included), as Fractions: the used inputs, each read once
        by as_integer_ratio, are put over their common denominator, so each
        output is one integer dot product and, unless it is zero, one
        Fraction.  Any other input, used or not, a float, a Decimal or a QQi
        among them, raises TypeError naming its position: a float would
        otherwise be read as its exact binary value."""
        if len(x) != self.n_in:
            raise ValueError(f"map takes {self.n_in} inputs, got {len(x)}")
        if not _RATIONAL_TYPES.issuperset(map(type, x)):
            _check_rationals(x)
        ratios = [x[n].as_integer_ratio() for n in self.used]
        d = math.lcm(*{q for _, q in ratios})
        get = [p * (d // q) for p, q in ratios].__getitem__
        den = self.den * d
        return tuple(Fraction(s, den) if (s := sum(map(mul, cs, map(get, ps)))) else _ZERO
                     for ps, cs in self.rows)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner, x -> self(inner(x)), in lowest terms: it equals
        from_columns of the images of the unit vectors."""
        if self.n_in != len(inner.rows):
            raise ValueError(
                f"map takes {self.n_in} inputs, inner map gives {len(inner.rows)}")
        rows = []
        for ps, cs in self.rows:
            acc: dict[int, int] = {}
            for p, c in zip(ps, cs):
                for q, d in zip(*inner.rows[self.used[p]]):
                    n = inner.used[q]
                    acc[n] = acc.get(n, 0) + c * d
            rows.append(sorted(acc.items()))
        return LinearMap.from_rows(inner.n_in, rows, self.den * inner.den)


_RATIONAL_TYPES = frozenset((int, Fraction))


def _check_rationals(x: Sequence) -> None:
    """TypeError at the first entry of x that is not an int or a Fraction."""
    for n, v in enumerate(x):
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"map inputs are ints or Fractions; input {n} is "
                            f"{type(v).__name__} {v!r}")


def _row_echelon(rows: list[list], n_cols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, over the first n_cols columns, to
    the reduced row-echelon form.  Returns the pivot column of each leading
    row."""
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        top = rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
    return pivots


def inverse(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse of a square matrix; ValueError if it is singular."""
    n = len(a)
    rows = [list(r) + list(e) for r, e in zip(a, eye(n, field=type(a[0][0])))]
    pivots = _row_echelon(rows, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(r[n:]) for r in rows)


def kernel_basis(a: Matrix) -> list[tuple]:
    """Exact kernel basis of a QQi matrix via Gaussian elimination."""
    rows = [list(r) for r in mat(a)]
    n_cols = len(rows[0]) if rows else 0
    pivots = _row_echelon(rows, n_cols)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [QQi(0)] * n_cols
        v[fc] = QQi(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(tuple(v))
    return basis


def frac_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational; raises if not a perfect square."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> int:
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r
