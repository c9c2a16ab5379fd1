"""Hodge stars for the split metric, with the scaled fibre.

Every star is the one routine _star: the unit-metric star on a set of
coordinate axes, signed by the orientation of those axes.  The orientation
is fixed once: vol7 = -dt1 dt2 dt3 dx1 dx2 dx3 dx4.  star4 uses
vol4 = dx1 dx2 dx3 dx4 and star3 uses vol3 = -dt1 dt2 dt3 (so that
vol3 ^ vol4 = vol7), and the scaled seven-dimensional star on a term of
vertical degree q is eps^(2-q) times the eps = 1 star.  Each sign is the
sign of sorting a term's indices followed by those of its complement, the
rule wedge uses (forms._merge_sign).
"""

from __future__ import annotations

from fractions import Fraction

from .forms import BigradedForm, _merge_sign
from .poly import HORIZONTAL, VERTICAL


def _star(a: BigradedForm, axes: tuple, vol_sign: int) -> BigradedForm:
    """The unit-metric star on the coordinates axes, whose volume form is
    vol_sign times the wedge of their covectors in order: dt_I e^J goes to
    vol_sign * _merge_sign(I + J, C) times the covectors C of the complement."""
    out = BigradedForm(len(axes) - a.degree)
    for (I, J), p in a.terms.items():
        K = I + J
        if not set(K) <= set(axes):
            raise ValueError(f"the star on axes {axes} needs a form on those axes, "
                             f"got a term ({I},{J})")
        C = tuple(i for i in axes if i not in K)
        sign = vol_sign * _merge_sign(K, C)
        # from lists, sized once: a generator's tuple is resized into the free list
        out._accumulate(tuple([i for i in C if i in HORIZONTAL]),
                        tuple([i for i in C if i in VERTICAL]), -p if sign < 0 else p)
    return out


def star4(a: BigradedForm) -> BigradedForm:
    """Fibre Hodge star w.r.t. vol4 = dx1 dx2 dx3 dx4; input must be purely vertical."""
    return _star(a, VERTICAL, 1)


def star3(a: BigradedForm) -> BigradedForm:
    """Base Hodge star w.r.t. vol3 = -dt1 dt2 dt3; input must be purely horizontal."""
    return _star(a, HORIZONTAL, -1)


def star7(a: BigradedForm, eps: Fraction | int = 1) -> BigradedForm:
    """Hodge star of the scaled metric g_eps = sum dt^2 + eps sum dx^2.

    On a (p, q) term the result is eps^(2-q) times the eps = 1 star; eps must
    be a positive rational.  For the formal eps -> 0 limit use star7_limit,
    which reports the scaling exponent of each bigraded piece.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("star7 needs eps > 0; use star7_limit for the formal limit")
    out = BigradedForm(7 - a.degree)
    for k, piece in star7_limit(a).items():
        out._add_form(piece.scale(eps ** k))
    return out


def star7_limit(a: BigradedForm) -> dict[int, BigradedForm]:
    """Formal limit data: map scaling exponent k -> form piece, star7 = sum eps^k pieces.

    The (p, q) component contributes the eps = 1 star w.r.t. vol7 at k = 2 - q."""
    return {2 - q: _star(a.component(p, q), HORIZONTAL + VERTICAL, -1)
            for p, q in a.bigrades()}
