"""Fibration data and the residuals of the adiabatic fibration equations."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .. import hk
from .forms import BigradedForm, HorizontalDistribution, split_d, wedge
from .poly import HORIZONTAL, VERTICAL


def standard_triple() -> list[BigradedForm]:
    """The standard self-dual triple on the fibre: hk.STANDARD_TRIPLE as (0,2)-forms."""
    return [BigradedForm(2, {((), (VERTICAL[a], VERTICAL[b])): w[a][b]
                             for a, b in combinations(range(4), 2)})
            for w in hk.STANDARD_TRIPLE]


def standard_lambda() -> BigradedForm:
    return BigradedForm(3, {((0, 1, 2), ()): -1})


def standard_mu() -> BigradedForm:
    return BigradedForm(4, {((), (3, 4, 5, 6)): 1})


@dataclass
class FibrationData:
    """The forms (omega_i, lambda, mu) and the horizontal distribution.

    omega_i have bigrade (0,2), lam (3,0), mu (0,4); Theta and the total
    3-form omega are derived.  All coefficients are polynomials in the
    adapted coframe of H.
    """

    omega: list[BigradedForm]
    lam: BigradedForm
    mu: BigradedForm
    H: HorizontalDistribution = field(default_factory=HorizontalDistribution.flat)

    def __post_init__(self):
        if len(self.omega) != 3:
            raise ValueError("need exactly three fibre 2-forms")
        for w in self.omega:
            if w.bigrades() - {(0, 2)}:
                raise ValueError("omega_i must have bigrade (0,2)")
        if self.lam.bigrades() - {(3, 0)}:
            raise ValueError("lambda must have bigrade (3,0)")
        if self.mu.bigrades() - {(0, 4)}:
            raise ValueError("mu must have bigrade (0,4)")

    @staticmethod
    def product() -> "FibrationData":
        """Flat product data with the constant standard triple; solves every equation."""
        return FibrationData(standard_triple(), standard_lambda(), standard_mu())

    def omega_total(self) -> BigradedForm:
        """sum_i omega_i ^ dt_i, bigrade (1,2)."""
        out = BigradedForm(3)
        for i, w in enumerate(self.omega):
            out = out + wedge(w, BigradedForm.monomial((i,), ()))
        return out

    def theta(self) -> BigradedForm:
        """-sum_cyc omega_i dt_j dt_k, bigrade (2,2)."""
        dt = [BigradedForm.covector(i) for i in HORIZONTAL]
        out = BigradedForm(4)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            out = out - wedge(self.omega[i], wedge(dt[j], dt[k]))
        return out


def donaldson_residuals(data: FibrationData) -> dict:
    """Residual forms of the adiabatic fibration equations, plus the
    pointwise algebraic relations omega_i ^ omega_j - 2 delta_ij mu.

    All residuals vanish identically iff the data satisfies the limiting
    closed/coclosed system at the polynomial level.
    """
    H = data.H
    om = data.omega_total()
    th = data.theta()
    d_om = split_d(om, H)
    d_lam = split_d(data.lam, H)
    d_mu = split_d(data.mu, H)
    d_th = split_d(th, H)
    out = {
        "d_f_omega": d_om[0],
        "d_H_omega": d_om[1],
        "d_f_lambda": d_lam[0],
        "d_H_mu": d_mu[1],
        "d_f_Theta": d_th[0],
        "d_H_Theta": d_th[1],
    }
    alg = {}
    for i in range(3):
        for j in range(i, 3):
            r = wedge(data.omega[i], data.omega[j])
            if i == j:
                r = r - data.mu.scale(Fraction(2))
            alg[(i, j)] = r
    out["algebraic"] = alg
    return out


def residuals_all_zero(res: dict) -> bool:
    for key, val in res.items():
        if key == "algebraic":
            if any(not r.is_zero() for r in val.values()):
                return False
        elif not val.is_zero():
            return False
    return True
