"""Topological monodromy and the per-case closure equation systems.

For the two-point cases the closure condition fixes the conjugacy class of
the monodromy at infinity: Tr(M) = p and Tr(M^2) = q.  For the one-point
cases the monodromy itself is the identity; the product is split as written
in each derivation, the dependent second-half coefficients are solved off the
entry equations (back substitutions), one redundant entry is dropped, and the
two surviving entry equations form the residual system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .polyring import LaurentPoly, PolyError, solve_linear, var_id
from .stokes import SymMat3, formal_monodromy, stokes_matrix
from .model import CaseSpec
from .invariants import rewrite_in_invariants


class InconsistentSystemError(PolyError):
    """A forced back substitution contradicts an earlier one."""


@dataclass(frozen=True)
class ClosureSystem:
    """The equations (each read as "= 0") cutting out the monodromy locus,
    plus enough context to replay how they were formed."""

    equations: tuple            # invariant form where the case rewrites
    provenance: tuple           # one tag per equation
    raw_equations: tuple        # same equations before the invariant rewrite
    trace_polys: Optional[tuple] = None      # (Tr M, Tr M^2) for fixed-class cases
    back_subs: Optional[tuple] = None        # ((varname, LaurentPoly), ...) composed
    dropped: Optional[LaurentPoly] = None    # the redundant entry equation


def topological_monodromy(spec: CaseSpec) -> SymMat3:
    """H * S_m * ... * S_1 with the factors in schedule order."""
    prod = SymMat3.identity()
    for layout in spec.schedule:
        prod = stokes_matrix(layout) * prod
    return formal_monodromy(spec.twist.ramification_index) * prod


def split_products(spec: CaseSpec) -> tuple:
    """(S_k...S_1, (H S_m...S_{k+1})^-1) at the case's declared split."""
    k = spec.split_index
    left = SymMat3.identity()
    for layout in spec.schedule[:k]:
        left = stokes_matrix(layout) * left
    right = SymMat3.identity()
    for layout in spec.schedule[k:]:
        right = stokes_matrix(layout) * right
    right = formal_monodromy(spec.twist.ramification_index) * right
    return left, right.inverse()


def back_substitutions(spec: CaseSpec, m_split: tuple) -> tuple:
    """Solve the planned entry equations for the dependent coefficients, in
    order, then compose so every value is in the surviving coefficients."""
    left, right = m_split
    solved: dict = {}
    order = []
    for (i, j), name in spec.back_sub_plan:
        target = var_id(name)
        eq = (left.entry(i, j) - right.entry(i, j)).substitute(solved)
        solved[target] = solve_linear(eq, target)
        order.append(target)
    # compose: later solutions may appear inside earlier ones
    for _ in range(len(order)):
        changed = False
        for t in order:
            expr = solved[t].substitute(solved)
            if expr != solved[t]:
                solved[t] = expr
                changed = True
        if not changed:
            break
    else:
        raise InconsistentSystemError("cyclic back substitutions")
    for t in order:
        if set(solved[t].variables()) & set(order):
            raise InconsistentSystemError(f"{t.name} not resolved by composition")
    # every consumed entry equation must now vanish identically
    for (i, j), name in spec.back_sub_plan:
        if not (left.entry(i, j) - right.entry(i, j)).substitute(solved).is_zero():
            raise InconsistentSystemError(f"entry ({i},{j}) inconsistent after solving")
    return tuple((t.name, solved[t]) for t in order)


def closure_equations(spec: CaseSpec, monodromy: SymMat3) -> ClosureSystem:
    if spec.closure.kind == "fixed_class":
        tr = monodromy.trace()
        tr2 = (monodromy * monodromy).trace()
        p, q = (LaurentPoly.variable(s) for s in spec.closure.trace_symbols)
        raw = (tr - p, tr2 - q)
        provenance = ["trace", "trace_square"]
        eqs = list(raw)
        if spec.use_invariant_rewrite:
            eqs = [rewrite_in_invariants(e, spec.generator_defs) for e in eqs]
            eqs.append(spec.tautological)
            provenance.append("tautological")
            raw = raw + (spec.tautological,)
        return ClosureSystem(tuple(eqs), tuple(provenance), raw,
                             trace_polys=(tr, tr2))

    left, right = split_products(spec)
    subs = back_substitutions(spec, (left, right))
    bind = {var_id(nm): poly for nm, poly in subs}
    raw = []
    provenance = []
    for (i, j), scale in spec.residual_entries:
        eq = (left.entry(i, j) - right.entry(i, j)).substitute(bind) * scale
        raw.append(eq)
        provenance.append(f"entry({i},{j})")
    di, dj = spec.drop_entry
    dropped = (left.entry(di, dj) - right.entry(di, dj)).substitute(bind)
    eqs = list(raw)
    if spec.use_invariant_rewrite:
        eqs = [rewrite_in_invariants(e, spec.generator_defs) for e in eqs]
        eqs.append(spec.tautological)
        provenance.append("tautological")
        raw.append(spec.tautological)
    return ClosureSystem(tuple(eqs), tuple(provenance), tuple(raw),
                         back_subs=subs, dropped=dropped)
