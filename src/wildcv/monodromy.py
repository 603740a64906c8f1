"""Topological monodromy and the per-case closure equation systems.

M = H * S_m * ... * S_1 is composed once, as R * L at the case's split:
L = S_k * ... * S_1 and R = H * S_m * ... * S_{k+1}; without a split, R = H.
For the two-point cases the closure condition fixes the conjugacy class of
M: Tr(M) = p and Tr(M^2) = q, with Tr(M^2) read from the diagonal of M * M
alone.  For the one-point cases M = I, read as the nine entry equations of
L = R^-1: ``solve_in_order`` solves six of them for the dependent second-half
coefficients (the back substitutions), two form the residual system, and the
redundant ninth is dropped.  The six consumed entries vanish identically
under the back substitutions by construction, so they are not checked again.
``pipeline.derive_case`` takes det M as det R * det L of the factors here,
never from M, and hands det R on to R^-1; the test suite still expands det M
in full.
"""

from __future__ import annotations

from typing import Optional

from .polyring import LaurentPoly, solve_in_order
from .record import Record
from .stokes import SymMat3
from .model import CaseSpec
from .invariants import rewrite_in_invariants


class ClosureSystem(Record):
    """The equations (each read as "= 0") cutting out the monodromy locus,
    plus enough context to replay how they were formed."""

    equations: tuple            # invariant form where the case rewrites
    provenance: tuple           # one tag per equation
    raw_equations: tuple        # same equations before the invariant rewrite
    trace_polys: Optional[tuple] = None      # (Tr M, Tr M^2) for fixed-class cases
    back_subs: Optional[tuple] = None        # ((varname, LaurentPoly), ...) in survivors
    dropped: Optional[LaurentPoly] = None    # the redundant entry equation


def monodromy_factors(spec: CaseSpec, matrices, H: SymMat3) -> tuple:
    """(L, R) with M = R * L at the case's split, from the Stokes matrices in
    schedule order and H; R = H when the case has no split."""
    k = len(matrices) if spec.split_index is None else spec.split_index
    left = right = SymMat3.identity()
    for mat in matrices[:k]:
        left = mat * left
    for mat in matrices[k:]:
        right = mat * right
    return left, (H * right if k < len(matrices) else H)


def topological_monodromy(factors: tuple) -> SymMat3:
    """M = H * S_m * ... * S_1, as R * L from ``monodromy_factors``."""
    left, right = factors
    return right * left


def closure_equations(spec: CaseSpec, monodromy: SymMat3, factors: tuple,
                      right_det: LaurentPoly) -> ClosureSystem:
    """The closure system from M, its factors (L, R) at the split and det R."""
    trace_polys = subs = dropped = None
    if spec.closure.kind == "fixed_class":
        tr = monodromy.trace()
        tr2 = monodromy.product_trace(monodromy)
        p, q = (LaurentPoly.variable(s) for s in spec.closure.trace_symbols)
        raw = [tr - p, tr2 - q]
        provenance = ["trace", "trace_square"]
        trace_polys = (tr, tr2)
    else:
        left, right = factors
        inverse = right.inverse(right_det)
        entries = {(i, j): left.entry(i, j) - inverse.entry(i, j)
                   for i in (1, 2, 3) for j in (1, 2, 3)}
        solved = solve_in_order(entries, spec.back_sub_plan)
        subs = tuple((v.name, expr) for v, expr in solved.items())
        raw = [entries[e].substitute(solved) * scale for e, scale in spec.residual_entries]
        provenance = [f"entry({i},{j})" for (i, j), _ in spec.residual_entries]
        dropped = entries[spec.drop_entry].substitute(solved)
    eqs = list(raw)
    if spec.use_invariant_rewrite:
        eqs = [rewrite_in_invariants(e, spec.generator_defs) for e in eqs]
        eqs.append(spec.tautological)
        provenance.append("tautological")
        raw.append(spec.tautological)
    return ClosureSystem(tuple(eqs), tuple(provenance), tuple(raw),
                         trace_polys=trace_polys, back_subs=subs, dropped=dropped)
