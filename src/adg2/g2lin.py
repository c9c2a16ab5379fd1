"""Pointwise split structure on R^3 + R^4 with a scaled fibre.

The defining 3-form is phi_eps = eps * sum_i omega_i dt_i - dt1 dt2 dt3 and
its dual 4-form star phi_eps is excalc.star7(phi_eps), the Hodge star of the
metric g_eps = sum dt^2 + eps sum dx^2, defined for eps > 0 only.  The cross
product and the trilinear map chi are recovered from these by solving the
defining identities against the metric, each from one contraction
(excalc.contract): i_y i_x phi_eps for cross, i_z i_y i_x star phi_eps for
chi.  eps = 0 is a distinct formal-limit mode evaluated through the scaling
case table (only one-vertical / two-horizontal argument combinations survive).

G2Model is a function of eps alone, on the flat product data of excalc.  The
fibre complex structures are not re-derived here: they are
hk.complex_structure_matrices of the standard triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .excalc import BigradedForm, FibrationData, contract, star7
from .excalc.poly import HORIZONTAL, VERTICAL

Vector7 = tuple  # length-7 tuple of Fractions, ordering t1,t2,t3,x1..x4


def vec(entries: Sequence) -> Vector7:
    v = tuple(Fraction(e) for e in entries)
    if len(v) != 7:
        raise ValueError("vectors have seven components (t1,t2,t3,x1..x4)")
    return v


def basis_vector(index: int) -> Vector7:
    return tuple(Fraction(1 if i == index else 0) for i in range(7))


def horizontal_part(v: Vector7) -> Vector7:
    return tuple(c if i in HORIZONTAL else Fraction(0) for i, c in enumerate(v))


def vertical_part(v: Vector7) -> Vector7:
    return tuple(c if i in VERTICAL else Fraction(0) for i, c in enumerate(v))


@dataclass
class G2Model:
    """The split pointwise model at a rational scale eps >= 0 (0 = formal limit).

    A function of eps alone: phi_eps and star phi_eps are built on first
    use, once per model, phi_eps from the flat product data
    FibrationData.product() and star phi_eps as star7(phi_eps)."""

    eps: Fraction = Fraction(1)

    def __post_init__(self):
        self.eps = Fraction(self.eps)
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    @cached_property
    def _phi(self) -> BigradedForm:
        data = FibrationData.product()
        return data.lam + data.omega_total().scale(self.eps)

    @cached_property
    def _star_phi(self) -> BigradedForm:
        return star7(self._phi, self.eps)

    def phi(self) -> BigradedForm:
        """lambda + eps * sum_i omega_i dt_i."""
        return self._phi

    def star_phi(self) -> BigradedForm:
        """star7(phi_eps) w.r.t. g_eps; eps = 0 raises ValueError, as for cross."""
        return self._star_phi

    def metric_pair(self, x: Vector7, y: Vector7) -> Fraction:
        return (sum(x[i] * y[i] for i in HORIZONTAL)
                + self.eps * sum(x[a] * y[a] for a in VERTICAL))


def cross(x: Vector7, y: Vector7, m: G2Model) -> Vector7:
    """The product defined by g_eps(x X y, z) = phi_eps(x, y, z); needs eps > 0."""
    if m.eps == 0:
        raise ValueError("cross product needs eps > 0; the limit lives in chi")
    return _metric_solve(contract(m.phi(), [x, y]), m.eps)


def chi(x: Vector7, y: Vector7, z: Vector7, m: G2Model) -> Vector7:
    """The trilinear map defined by g_eps(chi(x,y,z), w) = star phi_eps(x,y,z,w).

    For eps = 0 the formal-limit case table applies: the value vanishes
    unless exactly one argument is vertical and two are horizontal, where it
    equals the eps = 1 value.
    """
    if m.eps == 0:
        return _chi_limit(x, y, z)
    return _metric_solve(contract(m.star_phi(), [x, y, z]), m.eps)


def _metric_solve(covector: dict, eps: Fraction) -> Vector7:
    """The vector v with g_eps(v, .) the 1-form covector, keyed by (k,)."""
    co = [covector.get((k,), Fraction(0)) for k in range(7)]
    return tuple(c if k in HORIZONTAL else c / eps for k, c in enumerate(co))


_UNIT = G2Model(1)  # read by every formal-limit chi; forms built on first use


def _chi_limit(x: Vector7, y: Vector7, z: Vector7) -> Vector7:
    parts = [(horizontal_part(v), vertical_part(v)) for v in (x, y, z)]
    total = [Fraction(0)] * 7
    for bx in range(2):
        for by in range(2):
            for bz in range(2):
                if bx + by + bz != 1:  # one vertical, two horizontal survives
                    continue
                val = chi(parts[0][bx], parts[1][by], parts[2][bz], _UNIT)
                total = [a + b for a, b in zip(total, val)]
    return tuple(total)

