"""JSON serialization for bigraded forms.

Document layout:
    {"degree": n,
     "terms": [{"I": [...], "J": [...],
                "poly": [{"exp": [7 ints], "num": int, "den": int}, ...]}]}

The loader accepts integers only where the layout says int: a float such as
1.5, a string or a boolean is rejected, never truncated.  Each error names
the path of the failing field, such as /terms/1/poly/0/den.
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


def _typed(value, kind: type, where: str):
    """value, the field at the path where, if its type is kind (int or list)."""
    if type(value) is not kind:
        shape = "an integer" if kind is int else "an array"
        raise ValueError(f"{where} must be {shape}, got {value!r}")
    return value


def _get(obj, key: str, where: str, kind: type = int):
    """obj[key] of type kind, with obj the JSON object at the path where."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where}/{key} is missing")
    return _typed(obj[key], kind, f"{where}/{key}")


def _ints(obj, key: str, where: str) -> tuple:
    return tuple(_typed(v, int, f"{where}/{key}/{n}")
                 for n, v in enumerate(_get(obj, key, where, list)))


def form_from_json(doc: dict) -> BigradedForm:
    """The form of a form_to_json document.  A document that repeats a
    term's (I, J), or an exponent inside one term's /poly, is rejected:
    form_to_json writes neither, and summing them would guess."""
    if not isinstance(doc, dict) or "degree" not in doc:
        raise ValueError("form document must be an object with a 'degree' field")
    degree = _typed(doc["degree"], int, "/degree")
    if degree < 0:
        raise ValueError(f"/degree must not be negative, got {degree}")
    out = BigradedForm(degree)
    keys = set()
    for t, term in enumerate(_get(doc, "terms", "", list) if "terms" in doc else []):
        where = f"/terms/{t}"
        try:
            I, J = _ints(term, "I", where), _ints(term, "J", where)
            out._check_key(I, J)  # also for a term whose coefficients are all zero
            coeffs: dict[tuple, Fraction] = {}
            for n, m in enumerate(_get(term, "poly", where, list)):
                at = f"{where}/poly/{n}"
                exp = _ints(m, "exp", at)
                if len(exp) != NVARS or min(exp) < 0:
                    raise ValueError(f"{at}/exp must hold {NVARS} non-negative "
                                     f"integers, got {list(exp)}")
                if exp in coeffs:
                    raise ValueError(f"{at}/exp repeats {list(exp)} in {where}/poly")
                num, den = _get(m, "num", at), _get(m, "den", at)
                if den == 0:
                    raise ValueError(f"{at}/den must not be zero")
                coeffs[exp] = Fraction(num, den)
            if (I, J) in keys:
                raise ValueError(f"{where} repeats the term I={list(I)}, J={list(J)}")
            keys.add((I, J))
            out._accumulate(I, J, Poly(coeffs))
        except ValueError as exc:
            raise ValueError(f"malformed term {where}: {exc}") from exc
    return out
