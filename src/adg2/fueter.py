"""Sections of the flat dual-torus bundle over the base and their
quaternionic Dirac operator.

In the flat abelian model the fibrewise-flat connections on the 4-torus are
classified up to gauge by their fibre-averaged vertical components, living
on the dual torus; a lattice connection therefore induces a section of a
torus bundle over the base (holonomy_section).  The quaternionic Dirac
operator pairs base derivatives with the standard complex structures, and
its value matches the horizontal defect of the inducing connection.  Box
derivatives use gauge.diff and cs_associative gauge._path_trapezoid, the
grid half's one derivative stencil and one path trapezoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import (I_VEC, W_SD, LatticeConnection, _base_values, _path_times,
                    _path_trapezoid, base_map_from_json, diff, fibre_curvatures,
                    fibre_defect, residual_scalars, trapezoid_weights)
from .jsondoc import boolean, member, number

TWO_PI = 2.0 * np.pi

# Largest vertical curvature holonomy_section accepts (the fibre average is a
# holonomy class only on flat fibres).  Flat sampled fields show rounding, at
# most 2e-15 on those of the test suite: this leaves nine orders of room.
_CURVATURE_TOL = 1e-6


@dataclass
class FueterSectionGrid:
    """Base-sampled section with values in the fibre R^4 or its torus.

    The period is finite: <= 0 means plain R^4 values, and a positive period
    stores torus values as fundamental-domain representatives in [0, period).
    """

    values: np.ndarray  # (n1, n2, n3, 4)
    spacing: tuple[float, float, float]
    period: float = TWO_PI
    base_periodic: bool = False

    def __post_init__(self):
        self.values, self.spacing = _base_values(self.values, self.spacing, 4)
        self.period = float(self.period)
        if not np.isfinite(self.period):
            raise ValueError(f"period must be finite, got {self.period!r}")
        if self.period > 0:
            self.values = np.mod(self.values, self.period)

    @property
    def dims(self):
        return self.values.shape[:3]

    def lifted(self) -> np.ndarray:
        """A smooth local lift of the torus values (unwrapped along each axis)."""
        v = self.values.copy()
        if self.period > 0:
            for ax in range(3):
                v = np.unwrap(v, axis=ax, period=self.period)
        return v

    def base_weights(self) -> np.ndarray:
        return trapezoid_weights(self.dims, self.spacing, self.base_periodic)


def section_derivatives(s: FueterSectionGrid) -> np.ndarray:
    """(3, n1, n2, n3, 4) derivatives of the section.

    On a box gauge.diff differentiates a smooth lift of the values.  On a
    periodic base a section may wind around the torus, so the differences
    are circle-valued and take their minimal image: not gauge.diff.
    """
    out = np.empty((3,) + s.values.shape)
    if s.base_periodic:
        v = s.values
        for i in range(3):
            d = np.roll(v, -1, axis=i) - np.roll(v, 1, axis=i)
            out[i] = minimal_image(d, s.period) / (2 * s.spacing[i])
    else:
        v = s.lifted()
        for i in range(3):
            out[i] = diff(v, s.spacing[i], i, periodic=False)
    return out


def fueter_residual(s: FueterSectionGrid) -> np.ndarray:
    """Dirac defect sum_i I_i d_i s, shape (n1, n2, n3, 4)."""
    ds = section_derivatives(s)
    out = np.zeros_like(s.values)
    for i in range(3):
        out += ds[i] @ I_VEC[i].T
    return out


def minimal_image(delta: np.ndarray, period: float) -> np.ndarray:
    if period <= 0:
        return delta
    return np.mod(delta + period / 2, period) - period / 2


@dataclass
class SectionPath:
    """Sections of one torus bundle (one period) at ascending times."""

    times: list
    sections: list

    def __post_init__(self):
        self.times = _path_times(self.times, self.sections, "section", "period",
                                 lambda s: s.period)


def cs_associative(path: SectionPath) -> float:
    """Path functional of sections against the canonical structure 4-form of
    the moduli bundle; for the flat dual-torus model the fibre triple is the
    standard one scaled by vol(fibre)/(4 pi^2) = (2 pi / period)^4 / (4 pi^2),
    as a fibre of side L gives sections of period 2 pi / L, and by 1 for
    R^4-valued sections (period <= 0).

    gauge._path_trapezoid in the path parameter, base quadrature in space: each
    section's derivatives are built once and paired with the increment of each
    segment bordering it.  Equals the connection-path functional for paths of
    fibrewise-flat abelian connections, which the test suite verifies.
    """
    period = path.sections[0].period if path.sections else 0.0
    kappa = (TWO_PI / period) ** 4 / (4 * np.pi ** 2) if period > 0 else 1.0

    def density(s: FueterSectionGrid, increments: list) -> list:
        ds, w = section_derivatives(s), s.base_weights()
        return [sum(float(np.sum(w * np.einsum("...a,ab,...b->...", ds[i], W_SD[i], delta)))
                    for i in range(3)) for delta in increments]

    return kappa * _path_trapezoid(
        path.sections, density,
        lambda s0, s1: minimal_image(s1.values - s0.values, period))


def holonomy_section(a: LatticeConnection) -> FueterSectionGrid:
    """Fibre-averaged vertical connection components as a dual-torus section.

    Requires rank 1 and fibrewise-flat input: the vertical curvature defect
    must stay below _CURVATURE_TOL (the class is ill-defined otherwise).  A
    vertical component that is not finite is rejected first, by name and
    node.
    """
    if a.rank != 1:
        raise ValueError("holonomy sections need a rank-1 connection")
    vertical = a.components[3:, ..., 0, 0]
    bad = np.argwhere(~np.isfinite(vertical))
    if len(bad):
        comp, *node = (int(i) for i in bad[0])
        raise ValueError(
            f"vertical component x{comp + 1} is not finite at node "
            f"{tuple(node)}: {vertical[(comp, *node)]}")
    f_vert = fibre_curvatures(a)
    # the self-dual pairing sees only half the components; check them all.
    # np.max keeps a NaN, and a NaN defect fails the test
    worst = float(np.max([np.abs(residual_scalars(fibre_defect(f_vert))).max()]
                         + [np.abs(f).max() for f in f_vert]))
    if not worst <= _CURVATURE_TOL:
        raise ValueError(
            f"connection is not fibrewise flat (defect {worst:.3e}, tolerance "
            f"{_CURVATURE_TOL:.1e}); the holonomy class is ill-defined")

    # components[3:] carries a leading component axis, then base, then fibre
    fibre_axes = (4, 5, 6, 7)
    avg = vertical.mean(axis=fibre_axes)
    vals = np.moveaxis(avg, 0, -1).imag  # divide by i
    lengths = [n * h for n, h in zip(a.grid.dims_fibre, a.grid.spacing_fibre)]
    if max(lengths) - min(lengths) > 1e-12:
        raise ValueError("anisotropic fibre tori are not supported here")
    period = TWO_PI / lengths[0]
    return FueterSectionGrid(vals, a.grid.spacing_base, period=period,
                             base_periodic=a.grid.base_periodic)


# ----------------------------------------------------------------------------
# serialization


def section_to_json(s: FueterSectionGrid) -> dict:
    return {
        "dims": list(s.dims),
        "spacing": list(s.spacing),
        "period": s.period,
        "base_periodic": s.base_periodic,
        "values": s.values.reshape(-1, 4).tolist(),
    }


def section_from_json(doc: dict) -> FueterSectionGrid:
    """The section of a section_to_json document; /period and /base_periodic
    may be left out for 2 pi and false."""
    values, spacing = base_map_from_json(doc, "values", 4)
    period = number(member(doc, "/period", TWO_PI), "/period")
    flag = boolean(member(doc, "/base_periodic", False), "/base_periodic")
    return FueterSectionGrid(values, spacing, period, flag)
