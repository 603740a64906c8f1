"""Per-case derivation pipeline and the Monte-Carlo consistency oracle.

A derivation runs: closure system -> parameter normalization -> linear
elimination down to a single residual -> affine change of variables -> cubic
normal form, then verifies the result against the expected surface and a
seeded numeric oracle that samples points on the constraint locus and checks
that the cubic vanishes there.  The case data comes from ``model.case_spec``,
which has already checked it, so a derivation does not check it again.  The
report's ``det_is_one`` (JSON ``determinant_is_one``) is det R * det L of the
monodromy's factors M = R * L: det M as the same exact polynomial, without
expanding the determinant of the full product (the test suite still expands
det M itself).  The cubic's type, ``CubicSurface``, and its shape table live
in ``model``: the normal form reads the residual with ``LaurentPoly.split`` in
X, Y, Z into the same slots that a case's expected cubic and
``CubicSurface.reconstruct`` use.

The oracle builds the cubic polynomial once per run, and each polynomial
keeps the float form of its terms after its first evaluation.  A run whose
largest residual reaches the tolerance is settled by ``oracle_identity``, the
same claim checked as an exact polynomial identity; so a PASS with a residual
at or above ``ORACLE_TOLERANCE`` means that the identity held.  Solve
equations that are not affine in the solve targets (a bilinear x*y term, say)
make ``oracle_sampling`` raise ``NotLinearError`` before the first trial, so
the run ends as an ``[oracle]`` error naming the targets.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from .polyring import (LaurentPoly, Monomial, NotLinearError, PolyError, solve_in_order,
                       var_id)
from .stokes import SymMat3, formal_monodromy, stokes_matrix
from .model import _SLOTS, _XYZ_IDS, CaseSpec, CubicSurface, DerivationError, case_spec
from .monodromy import (ClosureSystem, closure_equations, monodromy_factors,
                        topological_monodromy)

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
ORACLE_TOLERANCE = 1e-9
_UNIT_MIN_MODULUS = 0.1
_PIVOT_FLOOR = 1e-8
_MAX_RESAMPLES = 60
_AFFINE_KEYS = ((1, 0), (0, 1), (0, 0))   # a solve row's t1, t2 and constant keys


class ShapeError(PolyError):
    """Stray monomials survived the change of variables."""


class DegenerateSampleError(PolyError):
    """A sampled configuration was numerically singular."""


# --------------------------------------------------------------------------
# elimination and normal form
# --------------------------------------------------------------------------


def _decompose_cubic(poly: LaurentPoly) -> CubicSurface:
    parts = poly.split(_XYZ_IDS)
    stray = [str(LaurentPoly.term(c, m * Monomial(zip(_XYZ_IDS, exps))))
             for exps, coef in parts.items() if exps not in _SLOTS.values()
             for m, c in coef.terms.items()]
    if stray:
        raise ShapeError("stray monomials after change of variables: "
                         + ", ".join(sorted(stray)))
    return CubicSurface(**{name: parts.get(exps, LaurentPoly.zero())
                           for name, exps in _SLOTS.items()})


def _eliminate_with_solutions(equations, plan, scale):
    """Solve each planned (equation index, variable) in order and substitute
    into the one remaining equation, scaled by the declared unit factor;
    returns (residual, ((varname, expression), ...))."""
    solved = solve_in_order(equations, plan)
    planned = {idx for idx, _ in plan}
    (rest_idx,) = [i for i in range(len(equations)) if i not in planned]
    residual = equations[rest_idx].substitute(solved) * scale
    return residual, tuple((v.name, expr) for v, expr in solved.items())


def to_cubic_normal_form(residual: LaurentPoly, cov_steps, normalization) -> CubicSurface:
    """Apply the change of variables, each step's mapping and divisor taken
    under the parameter normalization, and decompose into the cubic shape."""
    for step in cov_steps:
        if step.kind == "subst":
            residual = residual.substitute(
                {var_id(nm): poly.substitute(normalization) for nm, poly in step.mapping})
        else:
            residual = residual * step.term.substitute(normalization).inverse_term()
    return _decompose_cubic(residual)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    seed: int
    trials: int
    max_residual: float
    max_dropped_residual: float
    resamples: int
    tolerance: float
    exact: Optional[bool] = None     # oracle_identity, when a residual >= tolerance

    @property
    def passed(self) -> bool:
        if self.exact is not None:
            return self.exact
        return (self.max_residual < self.tolerance
                and self.max_dropped_residual < self.tolerance)


@dataclass(frozen=True)
class ExpectedComparison:
    mode: str        # "exact" | "support"
    matched: bool
    mismatches: tuple


@dataclass(frozen=True)
class CaseReport:
    """Full derivation trace for one case; every stage is replayable."""

    name: str
    spec: CaseSpec
    stokes_matrices: tuple             # one SymMat3 per layout
    formal_monodromy: SymMat3
    topological_monodromy: SymMat3
    closure: ClosureSystem             # as written (gamma kept symbolic)
    normalized_equations: tuple        # after the parameter normalization
    eliminated: tuple                  # ((varname, expression), ...)
    residual: LaurentPoly
    cubic: CubicSurface
    det_is_one: bool
    expected: ExpectedComparison
    oracle: Optional[OracleVerdict]

    @property
    def passed(self) -> bool:
        return (self.det_is_one and self.expected.matched
                and (self.oracle is None or self.oracle.passed))


# --------------------------------------------------------------------------
# derivation
# --------------------------------------------------------------------------


def _compare_expected(spec: CaseSpec, cubic: CubicSurface) -> ExpectedComparison:
    mismatches = []
    fixed = spec.expected.coefficients()
    exact = all(v is not None for v in fixed.values())
    got = cubic.coefficients()
    for key, want in fixed.items():
        if want is None:
            continue
        want = want.substitute(spec.parameter_normalization)
        if got[key] != want:
            mismatches.append(f"{key}: expected {want}, derived {got[key]}")
    # the top/quadratic support is always pinned, so only c1..c4 may be free
    return ExpectedComparison("exact" if exact else "support",
                              not mismatches, tuple(mismatches))


@contextmanager
def _stage(label: str):
    """Re-raise a PolyError from the stage as a DerivationError "[label] ..."."""
    try:
        yield
    except PolyError as exc:
        raise DerivationError(f"[{label}] {exc}") from exc


def derive_case(name: str, trials: int = DEFAULT_TRIALS,
                seed: int = DEFAULT_SEED, run_oracle: bool = True) -> CaseReport:
    """Run the full mechanical derivation for one case."""
    spec = case_spec(name)
    with _stage("stokes"):
        matrices = tuple(stokes_matrix(l) for l in spec.schedule)
        H = formal_monodromy(spec.twist.ramification_index)
        factors = monodromy_factors(spec, matrices, H)
        M = topological_monodromy(factors)

    norm = spec.parameter_normalization
    left, right = factors
    right_det = right.det()
    det_is_one = (right_det * left.det()).substitute(norm) == LaurentPoly.constant(1)

    with _stage("closure"):
        closure = closure_equations(spec, M, factors, right_det)

    normalized = tuple(e.substitute(norm) for e in closure.equations)

    with _stage("eliminate"):
        residual, eliminated = _eliminate_with_solutions(
            normalized, spec.elimination_plan, spec.residual_scale.substitute(norm))

    with _stage("normal-form"):
        cubic = to_cubic_normal_form(residual, spec.cov_steps, norm)

    expected = _compare_expected(spec, cubic)

    report = CaseReport(
        name=name,
        spec=spec,
        stokes_matrices=matrices,
        formal_monodromy=H,
        topological_monodromy=M,
        closure=closure,
        normalized_equations=normalized,
        eliminated=eliminated,
        residual=residual,
        cubic=cubic,
        det_is_one=det_is_one,
        expected=expected,
        oracle=None,
    )
    if run_oracle:
        with _stage("oracle"):
            verdict = oracle_verify(report, trials=trials, seed=seed)
        report = replace(report, oracle=verdict)
    return report


# --------------------------------------------------------------------------
# the Monte-Carlo oracle
# --------------------------------------------------------------------------


def _sample_complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _sample_unit(rng: random.Random) -> complex:
    for _ in range(100):
        z = _sample_complex(rng)
        if abs(z) >= _UNIT_MIN_MODULUS:
            return z
    raise DegenerateSampleError("could not sample a unit away from zero")


def _linear_solve(equations, targets, values) -> dict:
    """Solve two equations that are jointly affine in two targets, numerically."""
    base = dict(values)
    for t in targets:
        base[t] = 0j
    consts = [eq.evaluate(base) for eq in equations]
    cols = []
    for t in targets:
        probe = dict(base)
        probe[t] = 1.0 + 0j
        cols.append([eq.evaluate(probe) - c for eq, c in zip(equations, consts)])
    a11, a21 = cols[0]
    a12, a22 = cols[1]
    det = a11 * a22 - a12 * a21
    if abs(det) < _PIVOT_FLOOR:
        raise DegenerateSampleError("singular 2x2 solve")
    b1, b2 = -consts[0], -consts[1]
    return {targets[0]: (b1 * a22 - a12 * b2) / det,
            targets[1]: (a11 * b2 - b1 * a21) / det}


@dataclass(frozen=True)
class OracleSampling:
    """What every oracle trial of one report samples, solves and evaluates."""

    sample_units: tuple      # unit VarIds drawn at random, in registry order
    derived_units: tuple     # ((VarId, LaurentPoly), ...) evaluated in order
    free_xvars: tuple        # Stokes-coefficient VarIds drawn at random
    solve_targets: tuple     # VarIds solved from solve_equations
    solve_equations: tuple   # the raw closure equations the targets occur in
    solve_rows: tuple        # ((a1, a2, b), ...): each equation as a1*t1 + a2*t2 + b
    trace_params: tuple      # ((VarId, trace polynomial), ...), e.g. p = Tr M
    xyz_map: tuple           # ((VarId, LaurentPoly), ...) pushforward to X, Y, Z


def oracle_sampling(report: CaseReport) -> OracleSampling:
    """Derive the oracle's sampling from the case data.

    The unit bindings are the parameter normalization followed by every
    substitution step of the change of variables that binds only units
    (JKTV's alpha = r^2); the units left in the formal monodromy after them
    are sampled.  The surviving Stokes coefficients that are not solved for
    are sampled freely.  Both are drawn in registry order.  Solve equations
    that are not affine in the targets raise ``NotLinearError`` here, before
    any trial.
    """
    spec = report.spec
    derived = list(spec.parameter_normalization.items())
    for step in spec.cov_steps:
        if step.kind == "subst" and all(var_id(nm).unit for nm, _ in step.mapping):
            derived.extend((var_id(nm), poly) for nm, poly in step.mapping)
    H = report.formal_monodromy.substitute(_resolve(derived))
    units = tuple(sorted({v for row in H.rows for e in row for v in e.variables()
                          if v.unit}))
    targets = tuple(var_id(nm) for nm in spec.oracle.solve_targets)
    free = tuple(sorted({var_id(nm) for nm in spec.first_half_variables()}
                        - set(targets)))
    equations = tuple(eq for eq in report.closure.raw_equations
                      if eq.variables() & set(targets))[:len(targets)]
    rows = []
    for eq in equations:
        parts = eq.split(targets)
        if not parts.keys() <= set(_AFFINE_KEYS):
            raise NotLinearError("solve equations are not affine in "
                                 + ", ".join(t.name for t in targets))
        rows.append(tuple(parts.get(key, LaurentPoly.zero()) for key in _AFFINE_KEYS))
    traces = report.closure.trace_polys or ()
    return OracleSampling(
        sample_units=units, derived_units=tuple(derived), free_xvars=free,
        solve_targets=targets, solve_equations=equations, solve_rows=tuple(rows),
        trace_params=tuple(zip(map(var_id, spec.closure.trace_symbols), traces)),
        xyz_map=tuple((var_id(nm), expr) for nm, expr in spec.oracle.xyz_map))


def _oracle_trial(report: CaseReport, sampling: OracleSampling,
                  cubic: LaurentPoly, rng: random.Random) -> tuple:
    values: dict = {}
    for v in sampling.sample_units:
        values[v] = _sample_unit(rng)
    for v, expr in sampling.derived_units:
        values[v] = expr.evaluate(values)
    for v in sampling.free_xvars:
        values[v] = _sample_complex(rng)

    if sampling.solve_targets:
        values.update(_linear_solve(sampling.solve_equations,
                                    sampling.solve_targets, values))

    for v, trace in sampling.trace_params:
        values[v] = trace.evaluate(values)

    dropped_residual = 0.0
    if report.closure.dropped is not None:
        dropped_residual = abs(report.closure.dropped.evaluate(values))

    for v, expr in sampling.xyz_map:
        values[v] = expr.evaluate(values)

    residual = abs(cubic.evaluate(values))
    return residual, dropped_residual


def oracle_verify(report: CaseReport, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> OracleVerdict:
    """Sample constraint-satisfying points and evaluate the derived cubic.

    Each trial draws random complex Stokes coefficients (units bounded away
    from zero), solves the closure constraints numerically exactly where the
    symbolic pipeline solved them, pushes the point through the change of
    variables, and evaluates the final cubic; the max |residual| is reported.
    When a residual reaches the tolerance, ``oracle_identity`` decides.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampling = oracle_sampling(report)
    cubic = report.cubic.reconstruct()
    max_res = 0.0
    max_drop = 0.0
    resamples = 0
    for t in range(trials):
        for attempt in range(_MAX_RESAMPLES):
            rng = random.Random(seed * 1_000_003 + t * 1_009 + attempt)
            try:
                res, drop = _oracle_trial(report, sampling, cubic, rng)
            except DegenerateSampleError:
                resamples += 1
                continue
            break
        else:
            raise DegenerateSampleError(f"trial {t}: resample budget exhausted")
        max_res = max(max_res, res)
        max_drop = max(max_drop, drop)
    exact = None
    if max(max_res, max_drop) >= ORACLE_TOLERANCE:
        exact = oracle_identity(report, sampling, cubic)
    return OracleVerdict(seed=seed, trials=trials, max_residual=max_res,
                         max_dropped_residual=max_drop, resamples=resamples,
                         tolerance=ORACLE_TOLERANCE, exact=exact)


def _resolve(bindings) -> dict:
    """{VarId: expression} for ((VarId, expression), ...) bindings made in
    that order, each in terms of the variables that no binding sets, so that
    one simultaneous substitution undoes them all."""
    out: dict = {}
    for v, expr in bindings:
        out[v] = expr.substitute(out)
    return out


def _cleared(f: LaurentPoly, t1, t2, n1: LaurentPoly, n2: LaurentPoly,
             d: LaurentPoly) -> LaurentPoly:
    """D^k * f(N1/D, N2/D), where k is f's joint degree in t1 and t2."""
    parts = f.split((t1, t2))
    k = max((a + b for a, b in parts), default=0)
    total = LaurentPoly.zero()
    for (a, b), g in parts.items():
        total = total + g * n1 ** a * n2 ** b * d ** (k - a - b)
    return total


def oracle_identity(report: CaseReport, sampling: OracleSampling,
                    cubic: LaurentPoly) -> bool:
    """The oracle's claim as an exact polynomial identity; cubic is
    ``report.cubic.reconstruct()``.

    A trial's bindings, in its order of evaluation (the derived units, the
    trace parameters, ``xyz_map``), are resolved forward into one map, which
    is substituted once into the cubic, the dropped entry and the six
    coefficients of the solve rows.  With no solve targets the cubic and the
    dropped entry must vanish.  Otherwise the rows' Cramer determinant D must
    not be zero, and D^k * f(N1/D, N2/D) must vanish for each f, where N1, N2
    are Cramer's numerators and k is f's joint degree in the targets.
    """
    undo = _resolve(sampling.derived_units + sampling.trace_params + sampling.xyz_map)
    polys = [cubic.substitute(undo)]
    if report.closure.dropped is not None:
        polys.append(report.closure.dropped.substitute(undo))
    if not sampling.solve_targets:
        return all(f.is_zero() for f in polys)

    t1, t2 = sampling.solve_targets
    (a11, a12, b1), (a21, a22, b2) = ([c.substitute(undo) for c in row]
                                      for row in sampling.solve_rows)
    d = a11 * a22 - a12 * a21
    if d.is_zero():
        return False
    n1 = a12 * b2 - b1 * a22
    n2 = b1 * a21 - a11 * b2
    return all(_cleared(f, t1, t2, n1, n2, d).is_zero() for f in polys)


# --------------------------------------------------------------------------
# named preset: unit cube-root specialization of the JKTVI surface
# --------------------------------------------------------------------------


def specialize_unit_cube_root(cubic: CubicSurface) -> CubicSurface:
    """Specialize (alpha, beta, gamma) = (e^2, e, 1) with e a primitive cube
    root of unity: substitute, then reduce each exponent of e modulo 3 (a ring
    map, so reducing once at the end is exact)."""
    e = var_id("e")
    bind = {var_id("alpha"): LaurentPoly.variable("e", 2),
            var_id("beta"): LaurentPoly.variable("e")}
    vals = {}
    for key, poly in cubic.coefficients().items():
        reduced = LaurentPoly.zero()
        for (k,), rest in poly.substitute(bind).split((e,)).items():
            reduced = reduced + rest * LaurentPoly.variable("e", k % 3)
        vals[key] = reduced
    return CubicSurface(**vals)
