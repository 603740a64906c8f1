"""Static definitions of the six JKT cases.

Each case is a ``CaseSpec``, an immutable record (``record.Record``) bundling
the twist class, the divisor, the eigenvalue pair data that generates the
Stokes directions, the schedule of Stokes matrices (which fresh variable sits
at which direction and matrix position), the invariant-monomial generators,
the plans the pipeline executes verbatim (back substitutions, linear
eliminations, affine changes of variables), the expected cubic, and the
oracle's two choices: the pushforward to X, Y, Z and the coefficients it
solves from the closure equations (``pipeline.oracle_sampling`` derives the
rest of its sampling from the case data).
``CubicSurface`` is the one cubic type: the cubic a derivation builds, and
the cubic a case expects, whose free linear and constant coefficients are
``None``.  This module owns the cubic's shape (its slots and X, Y, Z): a
polynomial becomes a cubic by ``CubicSurface.from_polynomial`` and back by
``CubicSurface.reconstruct``.  ``case_spec``, the one way to a case's data,
runs ``validate_spec`` on it once per process and raises a ``[spec]``
``DerivationError`` on any violation.

The twist class, the divisor and the generators fix five more facts,
derived, not stored:

* formal monodromy: ``formal_monodromy(twist.ramification_index)``, and the
  ramification index of every eigenvalue pair;
* closure: ``M = I`` for the one-point divisor ``3{inf}``, otherwise the
  fixed trace class ``Tr M = p``, ``Tr M^2 = q``;
* invariant rewrite: exactly when the twist's torus is nontrivial;
* the tautological relation among U, V, W, R, T:
  ``invariants.generator_relation(generator_defs)``, computed once per spec;
* gamma normalization: ``gamma = alpha^-1 * beta^-1`` (imposing
  alpha*beta*gamma = 1) exactly for the untwisted cases (JKTVI, JKTIVb), as
  one read-only ``{VarId: LaurentPoly}`` map that every consumer substitutes.

The plan of the identity closure M = I fixes three more: the coefficients
it solves (``back_substituted``, empty without a plan), the split (the first
layout holding one of them) and the dropped entry (the one entry of M = I
that the plan leaves unread), both ``None`` without a plan.

Conventions used throughout (all polynomials exact over the rationals):

* ``r`` is a formal square root of ``alpha`` (JKTV runs in ``r``);
* schedules are stored in positive orientation exactly as written, so the
  topological monodromy is H * S_last * ... * S_first.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .invariants import NotInvariantError, generator_relation, weight_of
from .polyring import LaurentPoly, Monomial, PolyError, parse, var_id
from .record import Record
from .stokes import RationalAngle, singular_directions


class UnknownCaseError(PolyError):
    """Not one of the six JKT case names."""


class DerivationError(PolyError):
    """A pipeline stage failed; the message carries the stage label."""


class ShapeError(PolyError):
    """Stray monomials survived the change of variables, or a coefficient
    holds more than the parameters."""


class TwistClass(enum.Enum):
    UNTWISTED = "untwisted"
    MINIMALLY_TWISTED = "minimally twisted"
    MAXIMALLY_TWISTED = "maximally twisted"

    @property
    def ramification_index(self) -> int:
        return {TwistClass.UNTWISTED: 1,
                TwistClass.MINIMALLY_TWISTED: 2,
                TwistClass.MAXIMALLY_TWISTED: 3}[self]

    @property
    def torus_dim(self) -> int:
        return len(_ROW_WEIGHTS[self][0])


# the torus weights of rows 1, 2, 3: untwisted diag(lam, mu, 1), minimally
# twisted diag(lam, lam, lam^-2), maximally twisted trivial
_ROW_WEIGHTS = {TwistClass.UNTWISTED: ((1, 0), (0, 1), (0, 0)),
                TwistClass.MINIMALLY_TWISTED: ((1,), (1,), (-2,)),
                TwistClass.MAXIMALLY_TWISTED: ((), (), ())}


def torus_weight_of_position(twist: TwistClass, row: int, col: int) -> tuple:
    """Weight of a Stokes coefficient at matrix position (row, col), 1-based."""
    rows = _ROW_WEIGHTS[twist]
    return tuple(a - b for a, b in zip(rows[row - 1], rows[col - 1]))


class EigenvaluePairSpec(Record):
    """One ordered eigenvalue pair: leading level of the difference and its
    exact argument offset (fixed by the allowed phase normalizations)."""

    label: tuple[int, int]
    level_l: int
    arg_offset: RationalAngle


class StokesEntryLayout(Record):
    direction: RationalAngle
    entries: tuple  # ((row, col, varname), ...) with row != col, 1-based


class ClosureCondition(Record):
    kind: str  # "identity" | "fixed_class"
    trace_symbols: tuple = ()


_TRACE_SYMBOLS = ("p", "q")    # Tr M and Tr M^2 of a fixed-class closure
_CLOSURE_BY_DIVISOR = {
    "{0}+2{inf}": ClosureCondition("fixed_class", _TRACE_SYMBOLS),
    "3{inf}": ClosureCondition("identity"),
}

_GAMMA_NORMALIZATION = MappingProxyType({var_id("gamma"): parse("alpha^-1*beta^-1")})
_NO_NORMALIZATION = MappingProxyType({})
_ENTRIES = frozenset((i, j) for i in (1, 2, 3) for j in (1, 2, 3))


class CovStep(Record):
    """One change-of-variables step: a simultaneous substitution or a
    division by a declared invertible term."""

    kind: str  # "subst" | "divide"
    mapping: tuple = ()  # ((varname, LaurentPoly), ...) for subst
    term: Optional[LaurentPoly] = None  # for divide


# the cubic's shape: each coefficient's name and the XYZ exponents it multiplies
_SLOTS = {"xyz": (1, 1, 1), "x2": (2, 0, 0), "y2": (0, 2, 0), "z2": (0, 0, 2),
          "c1": (1, 0, 0), "c2": (0, 1, 0), "c3": (0, 0, 1), "c4": (0, 0, 0)}
_XYZ_IDS = tuple(var_id(n) for n in ("X", "Y", "Z"))
_SLOT_MONOMIALS = {name: LaurentPoly.term(1, Monomial(zip(_XYZ_IDS, exps)))
                   for name, exps in _SLOTS.items()}


class CubicSurface(Record):
    """xyz*XYZ + x2*X^2 + y2*Y^2 + z2*Z^2 + c1*X + c2*Y + c3*Z + c4 = 0,
    with coefficients that are exact polynomials in the parameters only: the
    unit variables and the trace parameters p and q.  Only
    a case's expected cubic leaves some of c1..c4 ``None``: those the case
    data does not fix in closed form (the golden files pin them)."""

    xyz: LaurentPoly
    x2: LaurentPoly
    y2: LaurentPoly
    z2: LaurentPoly
    c1: Optional[LaurentPoly] = None
    c2: Optional[LaurentPoly] = None
    c3: Optional[LaurentPoly] = None
    c4: Optional[LaurentPoly] = None

    @classmethod
    def from_polynomial(cls, poly: LaurentPoly) -> "CubicSurface":
        """The cubic whose ``reconstruct`` is poly: its part at each slot's
        X, Y, Z exponents.  ShapeError when poly holds any other power
        product of X, Y, Z, or a variable that is none of X, Y, Z, a unit and
        the trace parameters."""
        parts = poly.split(_XYZ_IDS)
        stray = [str(LaurentPoly.term(c, m * Monomial(zip(_XYZ_IDS, exps))))
                 for exps, coef in parts.items() if exps not in _SLOTS.values()
                 for m, c in coef.terms.items()]
        if stray:
            raise ShapeError("stray monomials after change of variables: "
                             + ", ".join(sorted(stray)))
        loose = sorted(v for v in poly.variables()
                       if not (v.unit or v.name in _TRACE_SYMBOLS or v in _XYZ_IDS))
        if loose:
            raise ShapeError("cubic coefficients hold " + ", ".join(v.name for v in loose)
                             + ", which are not parameters")
        return cls(**{name: parts.get(exps, LaurentPoly.zero())
                      for name, exps in _SLOTS.items()})

    def reconstruct(self) -> LaurentPoly:
        """The cubic as one polynomial, built on the first call and kept: the
        oracle and the report both read it."""
        return self._polynomial

    @cached_property
    def _polynomial(self) -> LaurentPoly:
        free = [name for name in _SLOTS if getattr(self, name) is None]
        if free:
            raise ValueError("cannot reconstruct a cubic with free coefficients: "
                             + ", ".join(free))
        return sum((getattr(self, name) * mono for name, mono in _SLOT_MONOMIALS.items()),
                   LaurentPoly.zero())

    def coefficients(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class CaseSpec(Record):
    name: str
    twist: TwistClass
    divisor: str                   # "{0}+2{inf}" | "3{inf}"
    pair_specs: tuple
    schedule: tuple
    generator_defs: tuple          # ((name, Monomial), ...) over U,V,W,R,T
    elimination_plan: tuple        # ((equation index, varname), ...)
    cov_steps: tuple
    expected: CubicSurface
    # Written independently of cov_steps, not inverted from them, so that the
    # oracle still catches a wrong change of variables.
    xyz_map: tuple                 # ((name, LaurentPoly), ...) pushforward to X, Y, Z
    back_sub_plan: tuple = ()      # (((i, j), varname), ...)
    residual_entries: tuple = ()   # (((i, j), scale LaurentPoly), ...)
    residual_scale: LaurentPoly = LaurentPoly.constant(1)
    solve_targets: tuple = ()      # coefficients the oracle solves from M = I

    @property
    def closure(self) -> ClosureCondition:
        return _CLOSURE_BY_DIVISOR[self.divisor]

    @cached_property
    def tautological(self) -> LaurentPoly:
        """The one relation among U, V, W, R, T that the definitions imply."""
        return generator_relation(self.generator_defs)

    @property
    def use_invariant_rewrite(self) -> bool:
        return self.twist.torus_dim > 0

    @property
    def parameter_normalization(self) -> Mapping:
        """Read-only {VarId: LaurentPoly}; empty unless the twist is untwisted."""
        return (_GAMMA_NORMALIZATION if self.twist is TwistClass.UNTWISTED
                else _NO_NORMALIZATION)

    @property
    def back_substituted(self) -> tuple:
        """The coefficients the plan solves, in plan order (a repeat kept)."""
        return tuple(name for _, name in self.back_sub_plan)

    @property
    def split_index(self) -> Optional[int]:
        """Index of the first layout holding a back-substituted coefficient."""
        solved = self.back_substituted
        return next((k for k, layout in enumerate(self.schedule)
                     if any(nm in solved for _, _, nm in layout.entries)), None)

    @property
    def drop_entry(self) -> Optional[tuple]:
        """The entry of M = I that neither the plan nor the residual system reads."""
        if not self.back_sub_plan:
            return None
        (entry,) = _ENTRIES - {e for e, _ in self.back_sub_plan + self.residual_entries}
        return entry

    def schedule_variables(self) -> tuple:
        return tuple(name for layout in self.schedule for _, _, name in layout.entries)

    def first_half_variables(self) -> tuple:
        """Variables that survive the identity-condition back substitution
        (all schedule variables for the two-point cases)."""
        solved = self.back_substituted
        return tuple(nm for nm in self.schedule_variables() if nm not in solved)


# --------------------------------------------------------------------------
# construction helpers
# --------------------------------------------------------------------------


def _pairs(data) -> tuple:
    return tuple(
        EigenvaluePairSpec(label, l, RationalAngle.of(num, den))
        for (label, l, (num, den)) in data
    )


def _layouts(data) -> tuple:
    return tuple(
        StokesEntryLayout(RationalAngle.of(num, den), tuple(entries))
        for ((num, den), entries) in data
    )


def _defs(**named: str) -> tuple:
    out = []
    for name in ("U", "V", "W", "R", "T"):
        poly = parse(named[name])
        coef, mono = poly.single_term()
        if coef != 1:
            raise ValueError("generator definitions are plain monomials")
        out.append((name, mono))
    return tuple(out)


_UNTWISTED_CYCLE = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def _cyclic_schedule(count: int, den: int) -> tuple:
    """``count`` layouts, layout k at k*pi/den holding x<k> at the k-th
    position of the untwisted cycle (repeated every six)."""
    return _layouts([((k, den), [(*_UNTWISTED_CYCLE[(k - 1) % 6], f"x{k}")])
                     for k in range(1, count + 1)])


def _cyclic_pairs(level: int, first: Fraction, count: int = 6) -> tuple:
    """``count`` eigenvalue pairs at ``level``: pair k (from 0) labelled by
    the k-th position of the untwisted cycle, made 0-based, with offset
    (first + k/3)*pi."""
    return tuple(EigenvaluePairSpec((i - 1, j - 1), level,
                                    RationalAngle.of(first + Fraction(k, 3)))
                 for k, (i, j) in enumerate(_UNTWISTED_CYCLE[:count]))


def _subst(**named: str) -> CovStep:
    return CovStep("subst", tuple((k, parse(expr)) for k, expr in named.items()))


def _divide(term: str) -> CovStep:
    return CovStep("divide", (), parse(term))


# --------------------------------------------------------------------------
# the six cases
# --------------------------------------------------------------------------


def _build_jktvi() -> CaseSpec:
    return CaseSpec(
        name="JKTVI",
        twist=TwistClass.UNTWISTED,
        divisor="{0}+2{inf}",
        pair_specs=_cyclic_pairs(1, Fraction(5, 6)),
        schedule=_cyclic_schedule(6, 3),
        generator_defs=_defs(U="x1*x4", V="x2*x5", W="x3*x6",
                             R="x1*x3*x5", T="x2*x4*x6"),
        elimination_plan=((0, "U"), (1, "R")),
        residual_scale=parse("-beta"),
        cov_steps=(
            _subst(T="S - V - W"),
            # shifts chosen so that no XY, XZ or YZ monomial survives
            _subst(W="-X - beta*gamma^-1 - 1",
                   V="-Y - alpha*gamma^-1 - 1",
                   S="-Z - 1 + p*gamma^-1"),
            _divide("-1"),
        ),
        expected=CubicSurface(xyz=parse("gamma"), x2=parse("alpha"),
                              y2=parse("beta"), z2=parse("gamma")),
        xyz_map=(("X", parse("-x3*x6 - beta*gamma^-1 - 1")),
                 ("Y", parse("-x2*x5 - alpha*gamma^-1 - 1")),
                 ("Z", parse("-x2*x5 - x3*x6 - x2*x4*x6 - 1 + p*gamma^-1"))),
    )


def _build_jktv() -> CaseSpec:
    return CaseSpec(
        name="JKTV",
        twist=TwistClass.MINIMALLY_TWISTED,
        divisor="{0}+2{inf}",
        pair_specs=_pairs([
            ((0, 1), 1, (0, 1)),
            ((2, 0), 2, (0, 1)),
            ((0, 2), 2, (1, 1)),
        ]),
        schedule=_layouts([
            ((1, 2), [(1, 3, "x2"), (2, 3, "x3")]),
            ((1, 1), [(1, 2, "x1")]),
            ((3, 2), [(3, 1, "x5"), (3, 2, "x6")]),
        ]),
        generator_defs=_defs(U="x2*x5", V="x3*x6", W="x1", R="x2*x6", T="x3*x5"),
        elimination_plan=((0, "U"), (1, "R")),
        residual_scale=parse("-alpha"),
        cov_steps=(
            _subst(alpha="r^2"),
            _subst(T="X - r^-2", V="r^-1*Y - 1", W="r^-1*Z"),
        ),
        expected=CubicSurface(xyz=parse("1"), x2=parse("1"),
                              y2=parse("1"), z2=parse("0")),
        xyz_map=(("X", parse("x3*x5 + r^-2")),
                 ("Y", parse("r*x3*x6 + r")),
                 ("Z", parse("r*x1"))),
    )


def _build_jktiva() -> CaseSpec:
    return CaseSpec(
        name="JKTIVa",
        twist=TwistClass.MAXIMALLY_TWISTED,
        divisor="{0}+2{inf}",
        pair_specs=_cyclic_pairs(2, Fraction(11, 6), 4),
        schedule=_layouts([
            ((1, 2), [(1, 2, "x1")]),
            ((1, 1), [(1, 3, "x2")]),
            ((3, 2), [(2, 3, "x3")]),
            ((0, 1), [(2, 1, "x4")]),
        ]),
        generator_defs=_defs(U="x1*x4", V="x2", W="x3", R="x1*x3", T="x2*x4"),
        elimination_plan=((0, "x1"),),
        residual_scale=LaurentPoly.constant(Fraction(1, 2)),
        cov_steps=(_subst(x3="X", x2="Y", x4="Z"),),
        expected=CubicSurface(xyz=parse("1"), x2=parse("1"),
                              y2=parse("0"), z2=parse("0"),
                              c1=parse("-p"), c2=parse("1"), c3=parse("1"),
                              c4=parse("1/2*p^2 - 1/2*q")),
        xyz_map=(("X", parse("x3")), ("Y", parse("x2")), ("Z", parse("x4"))),
    )


def _build_jktivb() -> CaseSpec:
    return CaseSpec(
        name="JKTIVb",
        twist=TwistClass.UNTWISTED,
        divisor="3{inf}",
        pair_specs=_cyclic_pairs(2, Fraction(11, 6)),
        schedule=_cyclic_schedule(12, 6),
        generator_defs=_defs(U="x1*x4", V="x2*x5", W="x3*x6",
                             R="x1*x3*x5", T="x2*x4*x6"),
        back_sub_plan=(((2, 3), "x9"), ((3, 2), "x12"), ((3, 1), "x11"),
                       ((2, 1), "x10"), ((1, 3), "x8"), ((1, 2), "x7")),
        residual_entries=(((3, 3), parse("gamma")), ((2, 2), parse("1"))),
        elimination_plan=((0, "T"), (1, "R")),
        cov_steps=(_subst(U="X - 1", V="Y - 1", W="Z - 1"),),
        expected=CubicSurface(xyz=parse("1"), x2=parse("0"),
                              y2=parse("1"), z2=parse("0"),
                              c1=parse("-gamma^-1"),
                              c2=parse("-alpha - gamma^-1 - 1"),
                              c3=parse("-alpha"),
                              c4=parse("alpha*gamma^-1 + alpha + gamma^-1")),
        xyz_map=(("X", parse("x1*x4 + 1")),
                 ("Y", parse("x2*x5 + 1")),
                 ("Z", parse("x3*x6 + 1"))),
        solve_targets=("x5", "x6"),
    )


def _build_jktii() -> CaseSpec:
    return CaseSpec(
        name="JKTII",
        twist=TwistClass.MINIMALLY_TWISTED,
        divisor="3{inf}",
        pair_specs=_pairs([
            ((0, 1), 3, (0, 1)),
            ((1, 0), 3, (1, 1)),
            ((2, 0), 4, (0, 1)),
            ((0, 2), 4, (1, 1)),
        ]),
        schedule=_layouts([
            ((1, 4), [(1, 3, "x2"), (2, 3, "x3")]),
            ((1, 3), [(1, 2, "x1")]),
            ((3, 4), [(3, 1, "x5"), (3, 2, "x6")]),
            ((1, 1), [(2, 1, "x4")]),
            ((5, 4), [(1, 3, "x8"), (2, 3, "x9")]),
            ((5, 3), [(1, 2, "x7")]),
            ((7, 4), [(3, 1, "x11"), (3, 2, "x12")]),
        ]),
        generator_defs=_defs(U="x2*x5", V="x3*x6", W="x1",
                             R="x2*x6", T="x1*x3*x5"),
        back_sub_plan=(((3, 1), "x12"), ((3, 2), "x11"), ((1, 3), "x8"),
                       ((1, 1), "x7"), ((2, 3), "x9"), ((2, 2), "x4")),
        residual_entries=(((3, 3), parse("-1")), ((1, 2), parse("1"))),
        elimination_plan=((0, "T"), (1, "R")),
        cov_steps=(
            _subst(U="X - 1", V="Yp - 1", W="Z"),
            _subst(Yp="alpha^-1*Y"),
            _divide("alpha^-1"),
        ),
        expected=CubicSurface(xyz=parse("1"), x2=parse("0"),
                              y2=parse("0"), z2=parse("0"),
                              c1=parse("-1"), c2=parse("-alpha^-1"),
                              c3=parse("-1"), c4=parse("1 + alpha^-1")),
        xyz_map=(("X", parse("x2*x5 + 1")),
                 ("Y", parse("alpha*x3*x6 + alpha")),
                 ("Z", parse("x1"))),
        solve_targets=("x5", "x6"),
    )


def _build_jkti() -> CaseSpec:
    return CaseSpec(
        name="JKTI",
        twist=TwistClass.MAXIMALLY_TWISTED,
        divisor="3{inf}",
        pair_specs=_cyclic_pairs(5, Fraction(11, 6)),
        schedule=_cyclic_schedule(10, 5),
        generator_defs=_defs(U="x1*x4", V="x2", W="x3", R="x1*x3", T="x2*x4"),
        back_sub_plan=(((2, 1), "x9"), ((2, 2), "x10"), ((1, 3), "x7"),
                       ((1, 1), "x8"), ((3, 3), "x6"), ((3, 2), "x5")),
        residual_entries=(((2, 3), parse("1")), ((1, 2), parse("-1"))),
        elimination_plan=((0, "x3"),),
        cov_steps=(_subst(x1="-X", x2="Y", x4="-Z"),),
        expected=CubicSurface(xyz=parse("1"), x2=parse("0"),
                              y2=parse("0"), z2=parse("0"),
                              c1=parse("1"), c2=parse("1"),
                              c3=parse("0"), c4=parse("1")),
        xyz_map=(("X", parse("-x1")), ("Y", parse("x2")), ("Z", parse("-x4"))),
        solve_targets=("x1", "x3"),
    )


_BUILDERS = {
    "JKTVI": _build_jktvi,
    "JKTV": _build_jktv,
    "JKTIVa": _build_jktiva,
    "JKTIVb": _build_jktivb,
    "JKTII": _build_jktii,
    "JKTI": _build_jkti,
}
CASE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def case_spec(name: str) -> CaseSpec:
    """The named case's data, once it has passed ``validate_spec``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownCaseError(f"unknown case {name!r}; expected one of {CASE_NAMES}") from None
    spec = builder()
    violations = validate_spec(spec)
    if violations:
        raise DerivationError("[spec] invalid case data: "
                              + "; ".join(f"{v.kind}: {v.detail}" for v in violations))
    return spec


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


class Violation(Record):
    kind: str
    detail: str


def torus_weights(spec: CaseSpec) -> dict:
    """Weight of every scheduled Stokes coefficient under the case torus."""
    out = {}
    for layout in spec.schedule:
        for row, col, name in layout.entries:
            out[name] = torus_weight_of_position(spec.twist, row, col)
    return out


def _angles(directions) -> str:
    """Sorted angles as ``wildcv directions`` prints them: [0, pi/5, ...]."""
    return "[" + ", ".join(map(str, sorted(directions))) + "]"


def validate_spec(spec: CaseSpec) -> list:
    """Mechanical consistency checks; an empty list means the case data is sound."""
    if spec.divisor not in _CLOSURE_BY_DIVISOR:
        # every later check reads spec.closure
        return [Violation("divisor", f"unknown divisor {spec.divisor!r}")]
    # every later check reads the entries' torus weights
    stray = [(row, col, name) for layout in spec.schedule for row, col, name in layout.entries
             if not (row in (1, 2, 3) and col in (1, 2, 3) and row != col)]
    if stray:
        return [Violation("stokes_entry", f"{name} at ({row},{col}) is not an off-diagonal "
                          "position of a 3x3 matrix") for row, col, name in stray]
    out = []

    # generator monomials: torus-invariant, built from surviving coefficients
    weights = torus_weights(spec)
    first_half = set(spec.first_half_variables())
    for gname, mono in spec.generator_defs:
        if not mono:
            out.append(Violation("generator_mismatch", f"{gname} is the constant monomial"))
        scheduled = True
        for v in mono.variables():
            if v.name not in weights:
                out.append(Violation("generator_mismatch", f"{gname} uses unscheduled {v.name}"))
                scheduled = False
            elif v.name not in first_half:
                out.append(Violation("generator_mismatch", f"{gname} uses eliminated {v.name}"))
        if scheduled and any(weight := weight_of(mono, weights, spec.twist.torus_dim)):
            out.append(Violation("generator_mismatch",
                                 f"{gname} = {mono} has nonzero weight {weight}"))

    try:
        spec.tautological
    except NotInvariantError as exc:
        out.append(Violation("tautological_relation", str(exc)))

    # every schedule variable is either in a generator or eliminated
    solved = spec.back_substituted
    covered = {v.name for _, mono in spec.generator_defs for v in mono.variables()}
    covered.update(solved)
    for name in spec.schedule_variables():
        if name not in covered:
            out.append(Violation("uncovered_variable", name))

    # schedule directions agree with the union of pair directions, which divide by levels
    low = [pair for pair in spec.pair_specs if pair.level_l < 1]
    out += [Violation("pair_level", f"pair {pair.label} has level {pair.level_l}, "
                      "not at least 1") for pair in low]
    if not low:
        sched_dirs = {layout.direction for layout in spec.schedule}
        pair_dirs = set()
        for pair in spec.pair_specs:
            pair_dirs.update(singular_directions(pair, spec.twist.ramification_index))
        if sched_dirs != pair_dirs:
            out.append(Violation("direction_mismatch", f"schedule {_angles(sched_dirs)} "
                                 f"vs pairs {_angles(pair_dirs)}"))
    # positive orientation: the directions increase around the circle once,
    # less than a full turn, so the cyclic sequence descends exactly once
    turns = [layout.direction.turns for layout in spec.schedule]
    if sum(a >= b for a, b in zip(turns, turns[1:] + turns[:1])) != 1:
        out.append(Violation("schedule_order", "directions ["
                             + ", ".join(str(layout.direction) for layout in spec.schedule)
                             + "] do not increase once around the circle"))

    # M = I: the plan and the residual system read eight distinct entries, and
    # the plan solves exactly the coefficients from the split on
    read = [entry for entry, _ in spec.back_sub_plan + spec.residual_entries]
    if spec.closure.kind == "identity":
        tail = sorted(nm for layout in spec.schedule[spec.split_index:]
                      for _, _, nm in layout.entries)
        sound = (solved and sorted(solved) == tail
                 and len(set(read)) == len(read) == 8 and set(read) <= _ENTRIES)
    else:
        sound = not read
    if not sound:
        out.append(Violation("closure_plan", f"{spec.closure.kind} closure with plan "
                             f"{spec.back_sub_plan} and residuals {spec.residual_entries}"))

    n_equations = ((2 if spec.closure.kind == "fixed_class" else len(spec.residual_entries))
                   + (1 if spec.use_invariant_rewrite else 0))
    used = [idx for idx, _ in spec.elimination_plan]
    if len(set(used)) != len(used) or any(not 0 <= i < n_equations for i in used) \
            or len(used) != n_equations - 1:
        out.append(Violation("elimination_plan",
                             f"plan {spec.elimination_plan} does not leave one residual"))
    # the plan solves for generators or scheduled coefficients
    solvable = {gname for gname, _ in spec.generator_defs} | set(spec.schedule_variables())
    for _, name in spec.elimination_plan:
        if name not in solvable:
            out.append(Violation("elimination_plan", f"plan solves for {name!r}, which is "
                                 "neither a generator nor a scheduled variable"))

    # the residual, each residual entry and each divide step of the change of
    # variables are scaled by units, invertible after the parameter normalization
    scales = [("residual_scale", spec.residual_scale)]
    scales += [(f"residual entry {entry}", scale) for entry, scale in spec.residual_entries]
    scales += [("divide step", step.term) for step in spec.cov_steps
               if step.kind == "divide" and step.term is not None]
    for label, scale in scales:
        try:
            scale.substitute(spec.parameter_normalization).inverse_term()
        except PolyError:
            out.append(Violation("scale", f"{label} {scale} is not a single term in "
                                 "unit variables"))

    for step in spec.cov_steps:
        if step.kind not in ("subst", "divide"):
            out.append(Violation("cov_step", f"unknown kind {step.kind!r}"))
        elif step.kind == "divide" and step.term is None:
            out.append(Violation("cov_step", "divide step without a term"))
        for name, _ in step.mapping:
            try:
                var_id(name)
            except PolyError:
                out.append(Violation("cov_step", f"subst binds unknown variable {name!r}"))

    # the oracle solves M = I for two surviving coefficients; a fixed-class
    # closure holds the trace parameters, which a trial sets only after solving
    targets = spec.solve_targets
    if spec.closure.kind == "identity":
        sound = len(set(targets)) == len(targets) == 2 and set(targets) <= first_half
    else:
        sound = not targets
    if not sound:
        out.append(Violation("oracle_plan", f"{spec.closure.kind} closure with solve "
                             f"targets {targets}: an identity closure needs two distinct "
                             "surviving coefficients, a fixed-class closure none"))
    # the cubic reads X, Y and Z, and a trial binds them from xyz_map alone
    bound = tuple(name for name, _ in spec.xyz_map)
    if sorted(bound) != [v.name for v in _XYZ_IDS]:
        out.append(Violation("oracle_plan", f"xyz_map binds {bound}, not X, Y and Z "
                             "once each"))

    return out
