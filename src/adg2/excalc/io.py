"""JSON serialization for bigraded forms.

Document layout:
    {"degree": n,
     "terms": [{"I": [...], "J": [...],
                "poly": [{"exp": [7 ints], "num": int, "den": int}, ...]}]}

The loader accepts integers only where the layout says int: a float such as
1.5, a string or a boolean is rejected, never truncated.
"""

from __future__ import annotations

from fractions import Fraction

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


def _int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"'{name}' values must be integers, got {value!r}")
    return value


def form_from_json(doc: dict) -> BigradedForm:
    if not isinstance(doc, dict) or "degree" not in doc:
        raise ValueError("form document must be an object with a 'degree' field")
    degree = _int(doc["degree"], "degree")
    if degree < 0:
        raise ValueError(f"'degree' must not be negative, got {degree}")
    out = BigradedForm(degree)
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        raise ValueError(f"'terms' must be a list, got {terms!r}")
    for t, term in enumerate(terms):
        try:
            I = tuple(_int(i, "I") for i in term["I"])
            J = tuple(_int(j, "J") for j in term["J"])
            out._check_key(I, J)  # also for a term whose coefficients are all zero
            coeffs: dict[tuple, Fraction] = {}
            for m in term["poly"]:
                exp = tuple(_int(e, "exp") for e in m["exp"])
                if len(exp) != NVARS:
                    raise ValueError("exponent tuples must have 7 entries")
                num, den = _int(m["num"], "num"), _int(m["den"], "den")
                coeffs[exp] = coeffs.get(exp, Fraction(0)) + Fraction(num, den)
            out._accumulate(I, J, Poly(coeffs))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed term /terms/{t}: {exc}") from exc
    return out
