"""Bigraded differential forms on R^3 + R^4 with polynomial coefficients.

A form of degree n is a sparse map (I, J) -> Poly where I is a strictly
increasing tuple of base indices (subset of 0..2) and J of fibre indices
(subset of 3..6), with |I| + |J| = n.  The basis covector for index i in I
is dt_i; for a in J it is the fibre coframe element e^a.  Over a product
fibration e^a is just dx_a; for a nonflat horizontal distribution H the
adapted coframe is e^a = dx_a - sum_i H_i^a dt_i and bigrading is taken in
that coframe (see split_d).

One sign rule: the key (I, J) stands for the covectors of I + J wedged in
order, and reordering covectors costs the sign of sorting their indices.
_merge_sign gives it for two blocks (wedge, hodge._star); contract, split_d
and curvature_term move the one index at position pos of I + J to the front,
for (-1)^pos.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Sequence

from .poly import HORIZONTAL, NVARS, VERTICAL, ZERO_EXP, Poly, Scalar

Key = tuple  # (I, J)


def _merge_sign(a: tuple, b: tuple) -> int:
    """Sign of sorting the concatenation of two strictly increasing tuples."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


class BigradedForm:
    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        self.terms: dict[Key, Poly] = {}
        if terms:
            for (I, J), p in terms.items():
                self.add_term(tuple(I), tuple(J), p)

    def _check_key(self, I: tuple, J: tuple):
        if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
            raise ValueError(f"index sets must be strictly increasing: {I}, {J}")
        if any(i not in HORIZONTAL for i in I) or any(a not in VERTICAL for a in J):
            raise ValueError(f"bad index split: {I}, {J}")
        if len(I) + len(J) != self.degree:
            raise ValueError(f"term ({I},{J}) does not have degree {self.degree}")

    def add_term(self, I: tuple, J: tuple, p) -> None:
        """Add p times the basis covector (I, J) to this form, in place; a
        nonzero term's key is checked first, and a key whose sum is zero is
        dropped."""
        p = Poly.of(p)
        if not p.is_zero():
            self._check_key(I, J)
            self._accumulate(I, J, p)

    def _accumulate(self, I: tuple, J: tuple, p: Poly):
        """add_term for a key that is valid by construction: one read off a
        form of this degree, or joined and sorted by wedge."""
        if p.is_zero():
            return
        key = (I, J)
        s = self.terms.get(key)
        total = p if s is None else s + p
        if total.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = total

    @staticmethod
    def monomial(I: Iterable[int], J: Iterable[int], coeff=1) -> "BigradedForm":
        I, J = tuple(I), tuple(J)
        return BigradedForm(len(I) + len(J), {(I, J): Poly.of(coeff)})

    @staticmethod
    def function(p) -> "BigradedForm":
        return BigradedForm(0, {((), ()): Poly.of(p)})

    @staticmethod
    def covector(index: int, coeff=1) -> "BigradedForm":
        if index in HORIZONTAL:
            return BigradedForm.monomial((index,), (), coeff)
        return BigradedForm.monomial((), (index,), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def bigrades(self) -> set[tuple[int, int]]:
        return {(len(I), len(J)) for I, J in self.terms}

    def component(self, p: int, q: int) -> "BigradedForm":
        out = BigradedForm(p + q)
        for (I, J), c in self.terms.items():
            if len(I) == p and len(J) == q:
                out._accumulate(I, J, c)
        return out

    def _add_form(self, other: "BigradedForm"):
        for (I, J), c in other.terms.items():
            self._accumulate(I, J, c)

    def __add__(self, other: "BigradedForm") -> "BigradedForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        out = BigradedForm(self.degree)
        out._add_form(self)
        out._add_form(other)
        return out

    def __neg__(self):
        out = BigradedForm(self.degree)
        for (I, J), c in self.terms.items():
            out._accumulate(I, J, -c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "BigradedForm":
        out = BigradedForm(self.degree)
        cp = Poly.of(c)
        for (I, J), p in self.terms.items():
            out._accumulate(I, J, cp * p)
        return out

    def __eq__(self, other):
        return (isinstance(other, BigradedForm)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"0 (degree {self.degree})"
        from .poly import VAR_NAMES

        bits = []
        for (I, J) in sorted(self.terms):
            basis = "".join(f"d{VAR_NAMES[i]}" for i in I) + \
                    "".join(f"e{VAR_NAMES[a]}" for a in J)
            bits.append(f"({self.terms[(I, J)]}) {basis}".strip())
        return " + ".join(bits)


def wedge(a: BigradedForm, b: BigradedForm) -> BigradedForm:
    """Graded-commutative wedge product; exact.  The sign of each term is the
    sign of sorting the joined index tuple I1 + J1 + I2 + J2 (_merge_sign)."""
    out = BigradedForm(a.degree + b.degree)
    for (I1, J1), p1 in a.terms.items():
        for (I2, J2), p2 in b.terms.items():
            if set(I1) & set(I2) or set(J1) & set(J2):
                continue
            sign = _merge_sign(I1 + J1, I2 + J2)
            I = tuple(sorted(I1 + I2))
            J = tuple(sorted(J1 + J2))
            prod = p1 * p2
            out._accumulate(I, J, -prod if sign < 0 else prod)
    return out


class HorizontalDistribution:
    """Lift coefficients H_i^a; the lift of d/dt_i is d/dt_i + sum_a H_i^a d/dx_a.

    The coefficients are a read-only mapping, so the curvature, built once
    per distribution on first use and kept on the instance, cannot go stale.
    """

    def __init__(self, coeffs=None):
        kept: dict[tuple[int, int], Poly] = {}
        if coeffs:
            for (i, a), p in coeffs.items():
                if i not in HORIZONTAL or a not in VERTICAL:
                    raise ValueError(f"bad lift index ({i},{a})")
                p = Poly.of(p)
                if not p.is_zero():
                    kept[(i, a)] = p
        self.coeffs = MappingProxyType(kept)
        self._curvature: dict[int, BigradedForm] | None = None

    @staticmethod
    def flat() -> "HorizontalDistribution":
        return HorizontalDistribution()

    def lift_coeff(self, i: int, a: int) -> Poly:
        p = self.coeffs.get((i, a))
        return Poly() if p is None else p

    def is_flat(self) -> bool:
        return not self.coeffs

    def lift_derivative(self, p: Poly, i: int) -> Poly:
        """Derivative of a function along the horizontal lift of d/dt_i."""
        out = p.diff(i)
        for a in VERTICAL:
            h = self.coeffs.get((i, a))
            if h is not None:
                out = out + h * p.diff(a)
        return out

    def curvature(self) -> dict[int, BigradedForm]:
        """Curvature as a map a -> (2,0)-form K^a; H is integrable iff all zero.

        K^a = sum_{j<i} ([lift_j, lift_i] x_a) dt_j dt_i.  Built once per
        distribution; each call returns a new dict of the kept forms.
        """
        if self._curvature is None:
            self._curvature = self._build_curvature()
        return dict(self._curvature)

    def _build_curvature(self) -> dict[int, BigradedForm]:
        out = {}
        for a in VERTICAL:
            k = BigradedForm(2)
            for j, i in combinations(HORIZONTAL, 2):
                c = (self.lift_derivative(self.lift_coeff(i, a), j)
                     - self.lift_derivative(self.lift_coeff(j, a), i))
                if not c.is_zero():
                    k = k + BigradedForm.monomial((j, i), (), c)
            out[a] = k
        return out


def exterior_d(a: BigradedForm) -> BigradedForm:
    """Coordinate exterior derivative (product fibration coframe)."""
    out = BigradedForm(a.degree + 1)
    for (I, J), p in a.terms.items():
        for v in range(NVARS):
            dp = p.diff(v)
            if dp.is_zero():
                continue
            dv = BigradedForm.covector(v, dp)
            out._add_form(wedge(dv, BigradedForm.monomial(I, J)))
    return out


def split_d(a: BigradedForm, H: HorizontalDistribution):
    """Split d = d_f + d_H + F_H in the coframe adapted to H.

    The input is interpreted in the adapted coframe {dt_i, e^a}.  The three
    outputs shift the bigrade of each input term by (0,+1), (+1,0), (+2,-1)
    respectively, and their sum is the exterior derivative of a (checked by
    converting to the coordinate coframe).  Differentiating the coframe
    element at position pos of I + J carries the sign (-1)^pos, the sign
    rule of _merge_sign for one index moved to the front.  F_H is
    curvature_term(a, H).
    """
    df = BigradedForm(a.degree + 1)
    dh = BigradedForm(a.degree + 1)
    for (I, J), p in a.terms.items():
        base = BigradedForm.monomial(I, J)
        # coefficient derivatives
        for b in VERTICAL:
            dp = p.diff(b)
            if not dp.is_zero():
                df._add_form(wedge(BigradedForm.monomial((), (b,), dp), base))
        for i in HORIZONTAL:
            dp = H.lift_derivative(p, i)
            if not dp.is_zero():
                dh._add_form(wedge(BigradedForm.monomial((i,), (), dp), base))
        # derivatives of the coframe: d(e^a) has a (1,1) part (-> d_H) and a
        # (2,0) curvature part (-> F_H, curvature_term); dt_i is closed.
        if H.is_flat():
            continue
        for pos, e_a in enumerate(J):
            sign = -1 if (len(I) + pos) % 2 else 1
            rest = BigradedForm.monomial(I, J[:pos] + J[pos + 1:])
            # (1,1) part: sum_{i,b} (d_b H_i^a) dt_i ^ e^b
            for i in HORIZONTAL:
                for b in VERTICAL:
                    h = H.lift_coeff(i, e_a).diff(b)
                    if h.is_zero():
                        continue
                    repl = BigradedForm.monomial((i,), (b,), h * sign * p)
                    dh._add_form(wedge(repl, rest))
    return df, dh, curvature_term(a, H)


def curvature_term(a: BigradedForm, H: HorizontalDistribution) -> BigradedForm:
    """F_H a, the part of d a (split_d) that the curvature of H gives: each
    fibre covector e^a of a term, at position pos of I + J, is replaced by
    -K^a with the sign (-1)^pos.  It reads the curvature of H, which is
    built once per distribution and shared by every call on it."""
    fh = BigradedForm(a.degree + 1)
    if H.is_flat():
        return fh
    curv = H.curvature()
    for (I, J), p in a.terms.items():
        for pos, e_a in enumerate(J):
            k = curv.get(e_a)
            if k is not None and not k.is_zero():
                sign = -1 if (len(I) + pos) % 2 else 1
                rest = BigradedForm.monomial(I, J[:pos] + J[pos + 1:])
                fh._add_form(wedge(k.scale(-sign * p), rest))
    return fh


def to_coordinate_frame(a: BigradedForm, H: HorizontalDistribution) -> BigradedForm:
    """Rewrite an adapted-coframe form in the coordinate coframe (e^a = dx_a - H_i^a dt_i)."""
    return _substitute_coframe(a, H, -1)


def from_coordinate_frame(a: BigradedForm, H: HorizontalDistribution) -> BigradedForm:
    """Inverse of to_coordinate_frame (dx_a = e^a + H_i^a dt_i)."""
    return _substitute_coframe(a, H, 1)


def _substitute_coframe(a: BigradedForm, H: HorizontalDistribution,
                        sign: int) -> BigradedForm:
    """Replace each fibre covector by itself plus sign * sum_i H_i^a dt_i."""
    if H.is_flat():
        return a
    out = BigradedForm(a.degree)
    for (I, J), p in a.terms.items():
        factors = [BigradedForm.covector(i) for i in I]
        for e_a in J:
            f = BigradedForm.monomial((), (e_a,))
            for i in HORIZONTAL:
                h = H.lift_coeff(i, e_a)
                if not h.is_zero():
                    f = f + BigradedForm.monomial((i,), (), h if sign > 0 else -h)
            factors.append(f)
        piece = BigradedForm.function(p)
        for f in factors:
            piece = wedge(piece, f)
        out = out + piece
    return out


def contract(a: BigradedForm, vectors: Sequence[Sequence[Scalar]]) -> dict[tuple, Fraction]:
    """i_{v_k} ... i_{v_1} a at the origin, for constant vectors v_1 .. v_k:
    the coefficients of the remaining form, keyed by index tuple I + J.

    The coefficients are read at the origin first and put, like each vector,
    over their common denominator, so the contraction runs over Python ints
    and makes one Fraction per remaining key; removing the slot at position
    pos of I + J carries the sign (-1)^pos, the sign rule of _merge_sign for
    one index moved to the front.  Vectors are length-7 rationals in the
    coordinate ordering t1..t3,x1..x4.  Only meaningful in a flat coframe
    (e^a = dx_a).
    """
    if len(vectors) > a.degree:
        raise ValueError("more vectors than the form degree")
    vs = [tuple(x if type(x) is Fraction else Fraction(x) for x in v) for v in vectors]
    if any(len(v) != NVARS for v in vs):
        raise ValueError(f"vectors have {NVARS} components (t1..t3,x1..x4)")
    coeffs = [(I + J, p.terms[ZERO_EXP].as_integer_ratio())
              for (I, J), p in a.terms.items() if ZERO_EXP in p.terms]
    den = math.lcm(*{q for _, (_, q) in coeffs})
    nums = {idx: n * (den // q) for idx, (n, q) in coeffs}
    for v in vs:
        ratios = [x.as_integer_ratio() for x in v]
        d = math.lcm(*{q for _, q in ratios})
        den *= d
        m = [n * (d // q) for n, q in ratios]
        out: dict[tuple, int] = {}
        for idx, c in nums.items():
            for i, key, odd in _removals(idx):
                if mi := m[i]:
                    term = c * mi
                    out[key] = out.get(key, 0) + (-term if odd else term)
        nums = {key: c for key, c in out.items() if c}
    return {key: Fraction(c, den) for key, c in nums.items()}


@functools.cache
def _removals(idx: tuple) -> tuple:
    """(i, idx without it, whether its position is odd) for each i in idx:
    contract's removals and their signs, memoized per index tuple (<= 2^7)."""
    return tuple((i, idx[:pos] + idx[pos + 1:], pos % 2) for pos, i in enumerate(idx))


def eval_on_vectors(a: BigradedForm, vectors: Sequence[Sequence[Scalar]]) -> Fraction:
    """The value of a degree-n form on n constant vectors, taken at the origin:
    the 0-form that contract leaves."""
    if len(vectors) != a.degree:
        raise ValueError("need as many vectors as the form degree")
    return contract(a, vectors).get((), Fraction(0))
