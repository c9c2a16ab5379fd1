"""Hodge stars for the split metric, with the scaled fibre.

The orientation is fixed once: vol7 = -dt1 dt2 dt3 dx1 dx2 dx3 dx4.  All
star signs below are derived from it: star4 uses vol4 = dx1 dx2 dx3 dx4,
star3 uses vol3 = -dt1 dt2 dt3 (so that vol3 ^ vol4 = vol7), and the scaled
seven-dimensional star on a term of vertical degree q is eps^(2-q) times
the eps = 1 star.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import BigradedForm, _merge_sign
from .poly import HORIZONTAL, VERTICAL

_H_SET = tuple(HORIZONTAL)
_V_SET = tuple(VERTICAL)


def _complement(sub: tuple, full: tuple) -> tuple:
    return tuple(i for i in full if i not in sub)


def star4(a: BigradedForm) -> BigradedForm:
    """Fibre Hodge star; input must be purely vertical."""
    out = BigradedForm(4 - (a.degree - 0))
    for (I, J), p in a.terms.items():
        if I:
            raise ValueError("star4 requires a purely vertical form")
        Jc = _complement(J, _V_SET)
        sign = _merge_sign(J, Jc)  # dx_J ^ dx_Jc = sign * vol4
        out._accumulate((), Jc, -p if sign < 0 else p)
    return out


def star3(a: BigradedForm) -> BigradedForm:
    """Base Hodge star w.r.t. vol3 = -dt1 dt2 dt3; input must be purely horizontal."""
    out = BigradedForm(3 - a.degree)
    for (I, J), p in a.terms.items():
        if J:
            raise ValueError("star3 requires a purely horizontal form")
        Ic = _complement(I, _H_SET)
        sign = -_merge_sign(I, Ic)  # dt_I ^ (sign dt_Ic) = vol3 = -dt123
        out._accumulate(Ic, (), -p if sign < 0 else p)
    return out


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
    """Formal limit data: map scaling exponent k -> form piece, star7 = sum eps^k pieces."""
    pieces: dict[int, BigradedForm] = {}
    for (I, J), p in a.terms.items():
        Ic = _complement(I, _H_SET)
        Jc = _complement(J, _V_SET)
        sign = _star7_sign(I, J, Ic, Jc)
        k = 2 - len(J)
        piece = pieces.setdefault(k, BigradedForm(7 - a.degree))
        piece._accumulate(Ic, Jc, -p if sign < 0 else p)
    return pieces


def _star7_sign(I, J, Ic, Jc) -> int:
    # sign s with dt_I e_J ^ dt_Ic e_Jc = s * dt123 ^ vol4; then flip for
    # vol7 = -dt123 vol4.
    s = _merge_sign(I, Ic) * _merge_sign(J, Jc)
    if len(J) % 2 and len(Ic) % 2:
        s = -s
    return -s
