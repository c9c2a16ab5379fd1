"""JSON serialization for bigraded forms.

Document layout:
    {"degree": n,
     "terms": [{"I": [...], "J": [...],
                "poly": [{"exp": [7 ints], "num": int, "den": int}, ...]}]}

form_from_json reads it with adg2.jsondoc.
"""

from __future__ import annotations

from fractions import Fraction

from ..jsondoc import array, at, integer, integers, member
from .forms import BigradedForm
from .poly import NVARS, Poly


def form_to_json(a: BigradedForm) -> dict:
    terms = []
    for (I, J) in sorted(a.terms):
        poly = a.terms[(I, J)]
        entries = [
            {"exp": list(exp), "num": c.numerator, "den": c.denominator}
            for exp, c in sorted(poly.terms.items())
        ]
        terms.append({"I": list(I), "J": list(J), "poly": entries})
    return {"degree": a.degree, "terms": terms}


def form_from_json(doc: dict) -> BigradedForm:
    """The form of a form_to_json document; /terms may be left out for the
    zero form.  A document that repeats a term's (I, J), or an exponent
    inside one term's /poly, is rejected: form_to_json writes neither, and
    summing them would guess."""
    degree = integer(member(doc, "/degree"), "/degree")
    if degree < 0:
        raise ValueError(f"/degree must not be negative, got {degree}")
    out = BigradedForm(degree)
    keys = set()
    for t, term in enumerate(array(member(doc, "/terms", []), "/terms")):
        where = f"/terms/{t}"
        I, J = (tuple(integers(member(term, f"{where}/{k}"), f"{where}/{k}"))
                for k in "IJ")
        at(f"{where}/I, {where}/J", out._check_key, I, J)  # even if all zero
        coeffs: dict[tuple, Fraction] = {}
        for n, m in enumerate(array(member(term, f"{where}/poly"), f"{where}/poly")):
            path = f"{where}/poly/{n}"
            exp = tuple(integers(member(m, f"{path}/exp"), f"{path}/exp"))
            if len(exp) != NVARS or min(exp) < 0:
                raise ValueError(f"{path}/exp must hold {NVARS} non-negative "
                                 f"integers, got {list(exp)}")
            if exp in coeffs:
                raise ValueError(f"{path}/exp repeats {list(exp)} in {where}/poly")
            num, den = (integer(member(m, f"{path}/{k}"), f"{path}/{k}")
                        for k in ("num", "den"))
            if den == 0:
                raise ValueError(f"{path}/den must not be zero")
            coeffs[exp] = Fraction(num, den)
        if (I, J) in keys:
            raise ValueError(f"{where} repeats the term I={list(I)}, J={list(J)}")
        keys.add((I, J))
        out._accumulate(I, J, Poly(coeffs))
    return out
