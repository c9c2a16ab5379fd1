"""Pointwise split structure on R^3 + R^4 with a scaled fibre.

The defining 3-form is phi_eps = eps * sum_i omega_i dt_i - dt1 dt2 dt3.  For
the metric g_eps = sum dt^2 + eps sum dx^2 its dual 4-form is
star phi_eps = eps Theta + eps^2 mu = eps psi, with psi = Theta + eps mu
(excalc.star7 scales a (p, q) term by eps^(2-q)).  The cross product and the
trilinear map chi are recovered by solving the defining identities against
the metric, each from one contraction (excalc.contract): i_y i_x phi_eps for
cross, i_z i_y i_x psi for chi.  psi is defined at eps = 0 too, so the
formal limit is no separate mode: there only Theta survives, and it pairs
one vertical slot with two horizontal ones (the scaling case table).

G2Model is a function of eps alone, on the flat product data of excalc.  The
fibre complex structures are not re-derived here: they are
hk.complex_structure_matrices of the standard triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .excalc import BigradedForm, FibrationData, contract
from .excalc.poly import HORIZONTAL, VERTICAL

Vector7 = tuple  # length-7 tuple of Fractions, ordering t1,t2,t3,x1..x4

_ZERO = Fraction(0)  # the entry of a slot that is zero by construction


def vec(entries: Sequence) -> Vector7:
    """The entries as a Vector7: Fractions are kept, other rationals converted."""
    v = tuple(e if type(e) is Fraction else Fraction(e) for e in entries)
    if len(v) != 7:
        raise ValueError("vectors have seven components (t1,t2,t3,x1..x4)")
    return v


def basis_vector(index: int) -> Vector7:
    return tuple(Fraction(1 if i == index else 0) for i in range(7))


def vertical_part(v: Vector7) -> Vector7:
    return tuple(c if i in VERTICAL else _ZERO for i, c in enumerate(v))


@dataclass
class G2Model:
    """The split pointwise model at a rational scale eps >= 0 (0 = formal limit).

    A function of eps alone: phi_eps and psi = Theta + eps mu, for which
    star phi_eps = eps psi at eps > 0, are built on first use, once per
    model, from the flat product data FibrationData.product()."""

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
    def _psi(self) -> BigradedForm:
        data = FibrationData.product()
        return data.theta() + data.mu.scale(self.eps)

    def phi(self) -> BigradedForm:
        """lambda + eps * sum_i omega_i dt_i."""
        return self._phi

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

    star phi_eps = eps psi and g_eps scales the vertical slots by eps, so chi
    reads the vertical coordinates of i_z i_y i_x psi as they are and
    multiplies the horizontal ones by eps: one contraction for every
    eps >= 0.  At eps = 0 chi is the vertical part of i_z i_y i_x Theta,
    which reads one vertical and two horizontal argument slots only.
    """
    get = contract(m._psi, [x, y, z]).get
    return (tuple(get((k,), _ZERO) * m.eps for k in HORIZONTAL)
            + tuple(get((k,), _ZERO) for k in VERTICAL))


def _metric_solve(covector: dict, eps: Fraction) -> Vector7:
    """The vector v with g_eps(v, .) the 1-form covector, keyed by (k,)."""
    co = [covector.get((k,), _ZERO) for k in range(7)]
    return tuple(c if k in HORIZONTAL else c / eps for k, c in enumerate(co))
