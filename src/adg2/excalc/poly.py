"""Multivariate polynomials with exact rational coefficients.

Coordinates are fixed once for the whole package:
index 0..2 -> t1,t2,t3 (base directions), index 3..6 -> x1..x4 (fibre
directions).  A polynomial is a sparse map from 7-long exponent tuples to
Fraction; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

NVARS = 7
VAR_NAMES = ("t1", "t2", "t3", "x1", "x2", "x3", "x4")
HORIZONTAL = (0, 1, 2)
VERTICAL = (3, 4, 5, 6)

Scalar = Union[int, Fraction]
ZERO_EXP = (0,) * NVARS


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exp, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c != 0:
                    exp = tuple(exp)
                    if len(exp) != NVARS or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent tuple {exp}")
                    prev = clean.get(exp)
                    clean[exp] = c if prev is None else prev + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if type(c) is not Fraction:
            c = Fraction(c)
        return Poly({ZERO_EXP: c} if c else {})

    @staticmethod
    def var(index: int, power: int = 1) -> "Poly":
        exp = [0] * NVARS
        exp[index] = power
        return Poly({tuple(exp): 1})

    @staticmethod
    def of(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == ZERO_EXP for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[ZERO_EXP]

    def __add__(self, other):
        o = Poly.of(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            prev = out.get(e)
            s = c if prev is None else prev + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-Poly.of(other))

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        o = Poly.of(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def diff(self, index: int) -> "Poly":
        out: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            ne = list(e)
            ne[index] = k - 1
            ne = tuple(ne)
            prev = out.get(ne)
            out[ne] = c * k if prev is None else prev + c * k
        p = Poly.__new__(Poly)
        p.terms = {e: c for e, c in out.items() if c}
        return p

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "".join(
                f"{VAR_NAMES[i]}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e) if p
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)
