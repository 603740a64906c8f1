"""Exact derivation of the wild character varieties (affine cubic surfaces)
of the six rank-3 JKT Painleve representations from their Stokes data."""

from .polyring import (LaurentPoly, Monomial, parse, format_poly, solve_linear,
                       var_id)
from .stokes import RationalAngle, SymMat3, formal_monodromy, stokes_matrix, \
    singular_directions
from .model import (CASE_NAMES, CaseSpec, CubicSurface, TwistClass, case_spec,
                    validate_spec, UnknownCaseError, torus_weights)
from .monodromy import closure_equations, monodromy_factors, topological_monodromy
from .invariants import invariant_monomials, rewrite_in_invariants
from .pipeline import (CaseReport, derive_case, oracle_verify, to_cubic_normal_form,
                       specialize_unit_cube_root)

__version__ = "0.1.0"
