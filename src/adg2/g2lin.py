"""Pointwise split structure on R^3 + R^4 with a scaled fibre.

The defining 3-form is phi_eps = eps * sum_i omega_i dt_i - dt1 dt2 dt3 and
its dual 4-form is star phi_eps = -eps * sum_cyc omega_i dt_j dt_k +
(eps^2/2) omega_1^2, with metric g_eps = sum dt^2 + eps sum dx^2.  The cross
product and the trilinear map chi are recovered from these by solving the
defining identities against the metric; eps = 0 is a distinct formal-limit
mode evaluated through the scaling case table (only one-vertical /
two-horizontal argument combinations survive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import hk
from .excalc import (
    BigradedForm,
    FibrationData,
    eval_on_vectors,
    standard_lambda,
    standard_mu,
    standard_triple,
    wedge,
)
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
    """The split pointwise model at a rational scale eps >= 0 (0 = formal limit)."""

    eps: Fraction = Fraction(1)
    omega: list[BigradedForm] = field(default_factory=standard_triple)

    def __post_init__(self):
        self.eps = Fraction(self.eps)
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    @property
    def lam(self) -> BigradedForm:
        return standard_lambda()

    @property
    def mu(self) -> BigradedForm:
        return standard_mu()

    def phi(self) -> BigradedForm:
        """lambda + eps * sum_i omega_i dt_i."""
        total = FibrationData(self.omega, self.lam, self.mu).omega_total()
        return self.lam + total.scale(self.eps)

    def star_phi(self) -> BigradedForm:
        """eps * Theta + (eps^2/2) omega_1 ^ omega_1."""
        theta = FibrationData(self.omega, self.lam, self.mu).theta()
        return (theta.scale(self.eps)
                + wedge(self.omega[0], self.omega[0]).scale(self.eps ** 2 / 2))

    def metric(self) -> tuple:
        """g_eps as a diagonal 7x7 rational matrix."""
        d = [Fraction(1)] * 3 + [self.eps] * 4
        return tuple(tuple(d[i] if i == j else Fraction(0) for j in range(7))
                     for i in range(7))

    def metric_pair(self, x: Vector7, y: Vector7) -> Fraction:
        return (sum(x[i] * y[i] for i in HORIZONTAL)
                + self.eps * sum(x[a] * y[a] for a in VERTICAL))


def cross(x: Vector7, y: Vector7, m: G2Model) -> Vector7:
    """The product defined by g_eps(x X y, z) = phi_eps(x, y, z); needs eps > 0."""
    if m.eps == 0:
        raise ValueError("cross product needs eps > 0; the limit lives in chi")
    phi = m.phi()
    co = [eval_on_vectors(phi, [x, y, basis_vector(k)]) for k in range(7)]
    return _metric_solve(co, m.eps)


def chi(x: Vector7, y: Vector7, z: Vector7, m: G2Model) -> Vector7:
    """The trilinear map defined by g_eps(chi(x,y,z), w) = star phi_eps(x,y,z,w).

    For eps = 0 the formal-limit case table applies: the value vanishes
    unless exactly one argument is vertical and two are horizontal, where it
    equals the eps = 1 value.
    """
    if m.eps == 0:
        return _chi_limit(x, y, z, m)
    sphi = m.star_phi()
    co = [eval_on_vectors(sphi, [x, y, z, basis_vector(k)]) for k in range(7)]
    return _metric_solve(co, m.eps)


def _metric_solve(covector, eps: Fraction) -> Vector7:
    return tuple(covector[i] if i < 3 else covector[i] / eps for i in range(7))


def _chi_limit(x: Vector7, y: Vector7, z: Vector7, m: G2Model) -> Vector7:
    unit = G2Model(Fraction(1), m.omega)
    parts = [(horizontal_part(v), vertical_part(v)) for v in (x, y, z)]
    total = [Fraction(0)] * 7
    for bx in range(2):
        for by in range(2):
            for bz in range(2):
                if bx + by + bz != 1:  # one vertical, two horizontal survives
                    continue
                val = chi(parts[0][bx], parts[1][by], parts[2][bz], unit)
                total = [a + b for a, b in zip(total, val)]
    return tuple(total)


def complex_structures(m: G2Model) -> tuple[list, list]:
    """The three fibre complex structures of the model's triple.

    Returns (on_vectors, on_oneforms): each a list of three 4x4 Fraction
    matrices acting on the fibre components x1..x4.  The action on vectors
    is hk.complex_structure_matrices of m.omega, from omega_i(X, Y) =
    g(I_i X, Y) with the metric of the triple (the unscaled fibre metric for
    the standard triple); on 1-forms it is minus precomposition,
    I_i a = -a o I_i, the matrix -I_i^T.
    """
    omega = [hk.form2({(J[0] - 3, J[1] - 3): p.constant_value()
                       for (_, J), p in w.terms.items()}) for w in m.omega]
    on_vec = list(hk.complex_structure_matrices(hk.triple(omega)))
    on_form = [tuple(tuple(-iv[b][a] for b in range(4)) for a in range(4))
               for iv in on_vec]
    return on_vec, on_form
