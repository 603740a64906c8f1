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
det M itself).  The cubic's type, ``CubicSurface``, and its shape live in
``model``: the normal form ends with ``CubicSurface.from_polynomial``, the
inverse of ``CubicSurface.reconstruct``.

The oracle compiles one straight-line function per report that runs a whole
trial (``_compile_trial``): the samples, the derived units, the 2x2 solve,
the trace parameters, the dropped entry, ``xyz_map`` and the cubic, each
variable a local and each polynomial one statement.  A trial returns moduli
and tests only moduli, so each polynomial is written with only the arithmetic
its modulus needs (``_reduced_sum_statements``): no ``**`` (a power is
CPython's own chain of products, ``_power_statements``), no +-1 coefficient,
and the solve equations written out at each probe point with the terms that
vanish there left out.
These change values only in the signs of their zero components, so every
modulus is bit for bit that of ``LaurentPoly.evaluate``'s term walk, the one
float reference, as ``_reduced_sum_statements`` argues.  The report keeps the
function with its sampling and cubic (``compiled_oracle``), so every run of
one report reuses them; the function's source is kept in ``linecache`` under
a file name of its own, so a traceback from inside a trial shows its
statement.
Attempt ``a`` of trial ``t`` reads complex samples, each two draws of
``random.uniform(-1.0, 1.0)``, from the stream of
``random.Random(seed*1_000_003 + t*1_009 + a)``.  That key does not depend on
the report, so the reports of a run at one seed share the streams: each
stream's first samples are built once and kept for the last seed only
(``_attempt``), and every float is that of a generator seeded per attempt.
A run whose largest residual reaches the tolerance is settled by
``oracle_identity``, the same claim checked as an exact polynomial identity;
so a PASS with a residual at or above ``ORACLE_TOLERANCE`` means that the
identity held.  Solve equations that are not affine in the solve targets (a
bilinear x*y term, say) make ``oracle_sampling`` raise ``NotLinearError``,
and a variable that no step of a trial binds makes ``_compile_trial`` raise
``UnboundVariableError``, both before the first trial, so the run ends as an
``[oracle]`` error.
"""

from __future__ import annotations

import itertools
import linecache
import random
import weakref
from functools import cached_property
from typing import Optional

from .polyring import (LaurentPoly, NotLinearError, PolyError, UnboundVariableError,
                       solve_in_order, var_id)
from .record import Record
from .stokes import SymMat3, formal_monodromy, stokes_matrix
from .model import CaseSpec, CubicSurface, DerivationError, case_spec
from .monodromy import (ClosureSystem, closure_equations, monodromy_factors,
                        topological_monodromy)

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
ORACLE_TOLERANCE = 1e-9
_UNIT_MIN_MODULUS = 0.1
_PIVOT_FLOOR = 1e-8
_MAX_RESAMPLES = 60
_AFFINE_KEYS = ((1, 0), (0, 1), (0, 0))   # a solve row's t1, t2 and constant keys


class DegenerateSampleError(PolyError):
    """A sampled configuration was numerically singular."""


# --------------------------------------------------------------------------
# elimination and normal form
# --------------------------------------------------------------------------


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
    under the parameter normalization, and read the result as a cubic
    (``CubicSurface.from_polynomial``)."""
    for step in cov_steps:
        if step.kind == "subst":
            residual = residual.substitute(
                {var_id(nm): poly.substitute(normalization) for nm, poly in step.mapping})
        else:
            residual = residual * step.term.substitute(normalization).inverse_term()
    return CubicSurface.from_polynomial(residual)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


class OracleVerdict(Record):
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


class ExpectedComparison(Record):
    mode: str        # "exact" | "support"
    matched: bool
    mismatches: tuple


class CaseReport(Record):
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

    @cached_property
    def compiled_oracle(self) -> tuple:
        """(OracleSampling, cubic polynomial, compiled trial) of this report's
        oracle, built on the first ``oracle_verify`` and kept for the next."""
        sampling = oracle_sampling(self)
        cubic = self.cubic.reconstruct()
        return sampling, cubic, _compile_trial(self, sampling, cubic)


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


class _stage:
    """Re-raise a PolyError from the stage as a DerivationError "[label] ..."."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, PolyError):
            raise DerivationError(f"[{self.label}] {exc}") from exc


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
        report = report.replace(oracle=verdict)
    return report


# --------------------------------------------------------------------------
# the Monte-Carlo oracle
# --------------------------------------------------------------------------


class OracleSampling(Record):
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
    targets = tuple(var_id(nm) for nm in spec.solve_targets)
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
        xyz_map=tuple((var_id(nm), expr) for nm, expr in spec.xyz_map))


_TRIAL_FILES = itertools.count(1)    # numbers each compiled trial's file name, per process
_POWI_CUTOFF = 100    # CPython's c_powi: beyond this |k|, complex ** takes exp and log
_SUM_TERMS = 256    # per statement: CPython's compiler recurses once per operator


def _power_local(name: str, k: int) -> str:
    """The local that holds ``name**k``: ``name`` itself for k = 1, ``p2_v0``
    for k = 2, ``pm1_v0`` for k = -1."""
    if k == 1:
        return name
    return f"p{k}_{name}" if k > 0 else f"pm{-k}_{name}"


def _power_statements(name: str, k: int, done: set) -> list:
    """The statements that leave ``name**k`` in its power local
    (``_power_local``), as products in the order of CPython's ``c_powi``,
    each power local assigned at most once: ``done`` holds the exponents
    already assigned, and gains every one these statements assign.

    For 1 < k <= 100, with h the highest power of two at most k, ``p_k =
    p_(k-h)*p_h`` if k is not h, and ``p_h = p_(h/2)*p_(h/2)``, where
    ``p_1`` is ``name`` itself; for -100 <= k < 0, ``pm_k = 1/p_-k``, as
    ``c_powi`` divides ``1+0j`` by the positive power.  Past 100 CPython takes
    exp and log, so the power stays ``name**k``.  ``c_powu`` starts its
    product from ``1+0j`` and multiplies the same operands in the same
    order, so with finite operands the chain differs from ``name**k`` only
    in the signs of zero components."""
    if k == 1 or k in done:
        return []
    done.add(k)
    power = _power_local(name, k)
    if abs(k) > _POWI_CUTOFF:
        return [f"{power} = {name}**{k}"]
    if k < 0:
        return _power_statements(name, -k, done) + [f"{power} = 1/{_power_local(name, -k)}"]
    h = 1 << (k.bit_length() - 1)
    low, high = (h // 2, h // 2) if k == h else (k - h, h)
    return (_power_statements(name, low, done) + _power_statements(name, high, done)
            + [f"{power} = {_power_local(name, low)}*{_power_local(name, high)}"])


def _reduced_sum_statements(terms: dict, local, powers: dict, fixed: dict) -> tuple:
    """(statements, expression) whose expression, after the statements, is
    the sum of ``terms`` for code that reads only its modulus: the term walk
    of ``LaurentPoly.evaluate``, adding left to right in the same term order
    with the same products, less three kinds of arithmetic.  A sum of more
    than ``_SUM_TERMS`` terms goes on from a local ``total`` that statements
    of that many terms each assign.

    - A power 1 reads the variable's own local.  Every other power is
      computed once, without ``**`` (``_power_statements``), into a local
      (``p<k>_v``, ``pm<k>_v`` for k < 0) by the statements, and reused for
      as long as ``powers`` ({VarId: set of exponents whose power local is
      assigned}) holds it; a caller that binds v again drops ``powers[v]``.
    - A coefficient of +-1 is not multiplied: its term is the product alone,
      added with ``+`` or ``-``, or ``(1+0j)`` if it has no factor; a first
      term whose coefficient is -1 is ``-(t)``, and a sum with no term is
      ``0j``.  Any other coefficient is its complex literal, the same value.
    - ``fixed`` ({VarId: 0 or 1}) gives variables a known value: a term
      holding a power (a positive one: the variables fixed are Stokes
      coefficients) of one fixed at 0 is dropped, and one fixed at 1 is left
      out of its product.  No local of a fixed variable is read.

    ``local(v)`` names the local that holds VarId v.  It is called for every
    factor of every term, in term order, before a term is dropped, so the
    variable it refuses first is the one the full walk would.

    Each of these changes a term, or the sum so far, only in the signs of
    its zero components, as long as every operand is finite and every
    divisor nonzero: ``x**1`` is ``(1+0j)*x``, an integer power is CPython's
    product chain from ``1+0j``, ``(-1+0j)*x`` is ``-x``, ``0j + t`` is
    ``t``, and a product with a power of ``0j`` is +-0.  Given finite
    operands that differ only in the signs of zero components, IEEE complex
    ``+``, ``-`` and ``*`` and CPython's Smith division give results that
    differ only there too, every nonzero component bit for bit the same, and
    ``abs`` ignores the signs.  So the modulus of the sum, and of everything
    computed from it, is bit for bit that of the full walk.  The complex
    value is not: ``evaluate``, whose callers read the value, keeps the
    walk's signed zeros, and ``x**1``, which overflows at infinity."""
    lines: list = []
    expr = ""
    added = 0
    for m, c in terms.items():
        exps = m.exps
        names = [local(v) for v, _ in exps]
        if any(fixed.get(v) == 0 for v, _ in exps):
            continue
        factors = [] if c == 1 or c == -1 else [repr(complex(c))]
        for (v, k), name in zip(exps, names):
            if v not in fixed:
                lines += _power_statements(name, k, powers.setdefault(v, set()))
                factors.append(_power_local(name, k))
        product = "*".join(factors) or "(1+0j)"
        if not expr:
            expr = f"-({product})" if c == -1 else product
        elif added % _SUM_TERMS:
            expr += f" {'-' if c == -1 else '+'} {product}"
        else:
            lines.append(f"total = {expr}")
            expr = f"total {'-' if c == -1 else '+'} {product}"
        added += 1
    return lines, expr or "0j"


def _compile_trial(report: CaseReport, sampling: OracleSampling, cubic: LaurentPoly):
    """One function ``trial(r)`` that runs a whole oracle trial of the report,
    reading each complex sample as ``r()`` (``_samples``), and returns
    (|cubic|, |dropped entry|) at the sampled point.

    Each variable is a local named from its VarId, bound in a trial's order:
    the sampled units (up to 100 samples each, until the modulus reaches
    ``_UNIT_MIN_MODULUS``), the derived units, the free coefficients, the
    solve targets, the trace parameters, then ``xyz_map``; a later binding
    overwrites the local.  The solve equations are written out at the
    targets' three probe points, (0, 0), (1, 0) and (0, 1), with the
    targets' values fixed in the source, into ``c1, c2``, ``u1, u2`` and
    ``w1, w2``, whose differences give the 2x2 system for Cramer's rule.  A
    variable read before any step binds it raises ``UnboundVariableError``
    here, the first one in term order.

    Each polynomial is one statement that ``_reduced_sum_statements`` writes,
    and the trial returns moduli and tests only moduli, so by that function's
    argument every (|cubic|, |dropped|) and every verdict is bit for bit
    that of ``LaurentPoly.evaluate`` at the same bindings.  The argument
    needs every operand finite, and the sampling keeps it so: a sample has
    modulus at most sqrt(2), a unit at least ``_UNIT_MIN_MODULUS``, and the
    solve's determinant at least ``_PIVOT_FLOOR``.

    The source is registered in ``linecache`` under the function's own file
    name, ``<oracle trial NAME #N>``, numbered per process so that a trial
    compiled later for the same case keeps its own, and dropped with the
    function.
    """
    powers: dict = {}    # bound VarId -> exponents whose power local is of this binding

    def local(v) -> str:
        if v not in powers:
            raise UnboundVariableError(f"unbound variable {v.name}")
        return f"v_{v.name}"

    def value_of(poly: LaurentPoly, statement: str, fixed: Optional[dict] = None) -> list:
        lines, expr = _reduced_sum_statements(poly.terms, local, powers, fixed or {})
        return lines + [statement.format(expr)]

    def assigned(v) -> None:
        powers[v] = set()

    def bind(v, poly: LaurentPoly) -> list:
        lines = value_of(poly, f"v_{v.name} = {{}}")
        assigned(v)
        return lines

    lines = []
    for v in sampling.sample_units:
        assigned(v)
        lines += ["for _ in range(100):",
                  f" v_{v.name} = r()",
                  f" if abs(v_{v.name}) >= {_UNIT_MIN_MODULUS!r}:",
                  "  break",
                  "else:",
                  ' raise DegenerateSampleError("could not sample a unit away from zero")']
    for v, expr in sampling.derived_units:
        lines += bind(v, expr)
    for v in sampling.free_xvars:
        assigned(v)
        lines.append(f"v_{v.name} = r()")
    if sampling.solve_targets:
        t1, t2 = sampling.solve_targets
        assigned(t1)    # at the probe points' fixed values, then at the solution
        assigned(t2)
        eq1, eq2 = sampling.solve_equations
        for sums, point in (("c", (0, 0)), ("u", (1, 0)), ("w", (0, 1))):
            fixed = dict(zip((t1, t2), point))
            for i, eq in ((1, eq1), (2, eq2)):
                lines += value_of(eq, f"{sums}{i} = {{}}", fixed)
        lines += ["a11 = u1 - c1", "a21 = u2 - c2", "a12 = w1 - c1", "a22 = w2 - c2",
                  "det = a11*a22 - a12*a21",
                  f"if abs(det) < {_PIVOT_FLOOR!r}:",
                  ' raise DegenerateSampleError("singular 2x2 solve")',
                  "b1 = -c1", "b2 = -c2",
                  f"v_{t1.name} = (b1*a22 - a12*b2)/det",
                  f"v_{t2.name} = (a11*b2 - b1*a21)/det"]
    for v, trace in sampling.trace_params:
        lines += bind(v, trace)
    if report.closure.dropped is None:
        lines.append("dropped = 0.0")
    else:
        lines += value_of(report.closure.dropped, "dropped = abs({})")
    for v, expr in sampling.xyz_map:
        lines += bind(v, expr)
    lines += value_of(cubic, "return abs({}), dropped")

    source = "def trial(r):\n" + "".join(f" {line}\n" for line in lines)
    filename = f"<oracle trial {report.name} #{next(_TRIAL_FILES)}>"
    # kept where a traceback looks up its lines; no mtime, so never checked stale
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"DegenerateSampleError": DegenerateSampleError}
    exec(compile(source, filename, "exec"), namespace)
    trial = namespace["trial"]
    weakref.finalize(trial, linecache.cache.pop, filename, None)
    return trial


def _oracle_trial(trial, draw) -> tuple:
    """One attempt of a compiled trial on the complex samples that ``draw``
    returns; its own call, so that an attempt can be timed or replaced from
    outside."""
    return trial(draw)


def _samples(draw):
    """A source of complex samples from ``draw``, a ``Random.random``: each
    is ``random.uniform(-1.0, 1.0)`` twice, real part first, written out as
    its own formula."""
    return lambda: complex(-1.0 + 2.0*draw(), -1.0 + 2.0*draw())


# How many complex samples of each attempt's stream are kept.  JKTVI's
# trial, the largest, takes 8 plus 1 for each unit it redraws (8 to 10 in
# 2000 measured trials; the other cases' at most 8), so 10 covers two
# redraws.
_PREFIX_DRAWS = 10
# How many attempt keys are kept: 0.52 MB of samples at the cap (measured
# with tracemalloc), whatever ``trials`` is.  The kept samples are a pure
# function of the key, so sharing them across the callers of
# ``oracle_verify`` changes no result.
_MEMO_KEYS = 1024
_SEED_DRAWS: dict = {}    # {seed: {attempt key: its first samples}}, the last seed only


def _attempt(trial, key: int, memo: dict) -> tuple:
    """One attempt of the compiled trial on the samples of the stream of
    ``random.Random(key)``.  The first ``_PREFIX_DRAWS`` samples come from
    ``memo``, built into it by the first attempt with this key while it holds
    fewer than ``_MEMO_KEYS`` keys.  A trial that runs past them raises
    ``StopIteration`` from its draw and runs again on the samples of a
    freshly seeded generator, as does an attempt whose key the memo does not
    hold; the trial is a pure function of its samples, so the result is the
    same either way."""
    prefix = memo.get(key)
    if prefix is None and len(memo) < _MEMO_KEYS:
        sample = _samples(random.Random(key).random)
        prefix = memo[key] = tuple([sample() for _ in range(_PREFIX_DRAWS)])
    if prefix is not None:
        try:
            return _oracle_trial(trial, iter(prefix).__next__)
        except StopIteration:
            pass
    return _oracle_trial(trial, _samples(random.Random(key).random))


def oracle_verify(report: CaseReport, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> OracleVerdict:
    """Sample constraint-satisfying points and evaluate the derived cubic.

    Each trial draws random complex Stokes coefficients (units bounded away
    from zero), solves the closure constraints numerically exactly where the
    symbolic pipeline solved them, pushes the point through the change of
    variables, and evaluates the final cubic; the max |residual| is reported.
    Attempt ``a`` of trial ``t`` samples the stream of a generator seeded
    with ``seed*1_000_003 + t*1_009 + a``, a key that does not depend on the
    report, so the reports of one run at one seed read the same streams:
    ``_attempt`` builds each stream's first ``_PREFIX_DRAWS`` complex samples
    once and keeps them for the most recent seed only.  The report's compiled
    trial is built on its first run and kept.  When a residual reaches the
    tolerance, ``oracle_identity`` decides.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampling, cubic, trial = report.compiled_oracle
    memo = _SEED_DRAWS.get(seed)
    if memo is None:
        _SEED_DRAWS.clear()
        memo = _SEED_DRAWS[seed] = {}
    max_res = 0.0
    max_drop = 0.0
    resamples = 0
    for t in range(trials):
        for attempt in range(_MAX_RESAMPLES):
            try:
                res, drop = _attempt(trial, seed * 1_000_003 + t * 1_009 + attempt, memo)
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
