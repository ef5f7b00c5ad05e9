"""Exact rational arithmetic for generalized q-Bernoulli and q-Euler
polynomials, with a mechanical identity-verification harness."""

__version__ = "0.1.0"

from .qcore import (
    QParam,
    QParamError,
    gauss_exponent,
    q_binomial,
    q_factorial,
    q_number,
    q_pair_power,
    q_shifted_factorial,
)
from .poly import Poly2, X, Y, symbolic_pair_power
from .series import Series, Eq_series, eq_series
from .qspecial import (
    FamilySpec,
    PolyTable,
    classical_limit_errors,
    family_table,
    is_monotone_decreasing,
    q_bernoulli_numbers_recurrence,
    q_bernoulli_table,
    q_bernstein,
    q_euler_numbers_recurrence,
    q_euler_table,
    q_number_sequence,
    q_stirling2,
)
from .identities import Grid, IdentityReport, default_grid, run_suite

__all__ = [
    "QParam",
    "QParamError",
    "Poly2",
    "X",
    "Y",
    "Series",
    "FamilySpec",
    "PolyTable",
    "Grid",
    "IdentityReport",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_shifted_factorial",
    "gauss_exponent",
    "q_pair_power",
    "symbolic_pair_power",
    "eq_series",
    "Eq_series",
    "family_table",
    "q_bernoulli_table",
    "q_euler_table",
    "q_number_sequence",
    "q_bernoulli_numbers_recurrence",
    "q_euler_numbers_recurrence",
    "q_stirling2",
    "q_bernstein",
    "classical_limit_errors",
    "is_monotone_decreasing",
    "default_grid",
    "run_suite",
]
