"""Exact exterior calculus with polynomial coefficients on R^3 + R^4."""

from .poly import HORIZONTAL, NVARS, VAR_NAMES, VERTICAL, Poly
from .forms import (
    BigradedForm,
    HorizontalDistribution,
    contract,
    curvature_term,
    eval_on_vectors,
    exterior_d,
    from_coordinate_frame,
    split_d,
    to_coordinate_frame,
    wedge,
)
from .hodge import star3, star4, star7, star7_limit
from .fibration import (
    FibrationData,
    donaldson_residuals,
    residuals_all_zero,
    standard_lambda,
    standard_mu,
    standard_triple,
)
from .io import form_from_json, form_to_json

__all__ = [
    "BigradedForm", "FibrationData", "HorizontalDistribution", "Poly",
    "HORIZONTAL", "NVARS", "VAR_NAMES", "VERTICAL",
    "contract", "curvature_term", "donaldson_residuals", "residuals_all_zero", "eval_on_vectors",
    "exterior_d", "from_coordinate_frame", "split_d", "to_coordinate_frame",
    "wedge", "star3", "star4", "star7", "star7_limit",
    "standard_lambda", "standard_mu", "standard_triple",
    "form_from_json", "form_to_json",
]
