"""Exact multivariate Laurent-polynomial arithmetic over the rationals.

Every symbolic value in this package is a ``LaurentPoly``: a canonical sparse
sum of monomials with nonzero rational coefficients, each an ``int`` when its
denominator is 1 and a ``Fraction`` otherwise.  Variable names come
from a closed registry.  A handful of variables (``alpha``, ``beta``,
``gamma``, ``r``, and the torus/root-of-unity scalars ``lam``, ``mu``, ``e``)
are *units*: they may carry negative exponents and may be inverted.  All other
variables admit only nonnegative exponents, so ordinary polynomial identities
are preserved.  The ring knows no relation between its variables: ``r``
stands for a square root of ``alpha`` and ``e`` for a cube root of unity only
where a caller substitutes ``alpha = r**2`` or reduces the exponents of ``e``
explicitly.

Polynomials print deterministically (terms sorted by exponent vector in
registry order) in a small text grammar, and ``parse`` round-trips it::

    2*x1^2*x2 - 1/3*alpha^-1 + 1

Terms are joined by ``+`` or ``-``; juxtaposed terms or factors (``x1 x2``,
``2x1``) and a zero denominator (``1/0``) are ``ParseError``s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class PolyError(Exception):
    """Base class for errors raised by the polynomial ring."""


class UnknownVariableError(PolyError):
    """A variable name outside the closed registry."""


class ExponentDomainError(PolyError):
    """A non-unit variable was given a negative exponent."""


class SubstitutionDomainError(PolyError):
    """A substitution would force a negative exponent on a non-unit value."""


class NotLinearError(PolyError):
    """An equation is not affine in the variables it is solved for."""


class NotInvertibleError(PolyError):
    """A leading coefficient is not a single term in unit variables."""


class UnboundVariableError(PolyError):
    """Numeric evaluation encountered an unassigned variable."""


class ParseError(PolyError):
    """Malformed polynomial text."""


# --------------------------------------------------------------------------
# variable registry
# --------------------------------------------------------------------------

_UNIT_NAMES = ("alpha", "beta", "gamma", "r", "lam", "mu", "e")

_REGISTRY_NAMES = tuple(
    [f"x{i}" for i in range(1, 13)]
    + ["U", "V", "W", "R", "T", "S", "X", "Y", "Z", "Yp"]
    + ["alpha", "beta", "gamma", "r", "p", "q", "lam", "mu", "e"]
)


class VarId:
    """Interned identifier for a registry variable."""

    __slots__ = ("name", "index", "unit")

    _by_name: dict = {}

    def __init__(self, name: str, index: int, unit: bool):
        self.name = name
        self.index = index
        self.unit = unit

    def __repr__(self):
        return f"VarId({self.name})"

    def __lt__(self, other: "VarId"):
        return self.index < other.index


for _i, _name in enumerate(_REGISTRY_NAMES):
    VarId._by_name[_name] = VarId(_name, _i, _name in _UNIT_NAMES)

_N_VARS = len(_REGISTRY_NAMES)


def var_id(name: str) -> VarId:
    """Look up a registry variable; unknown names are rejected."""
    try:
        return VarId._by_name[name]
    except KeyError:
        raise UnknownVariableError(f"unknown variable {name!r}") from None


# --------------------------------------------------------------------------
# monomials
# --------------------------------------------------------------------------


class Monomial:
    """Canonical sparse exponent vector; zero exponents are never stored."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[VarId, int]]):
        norm: dict = {}
        for v, k in exps:
            norm[v] = norm.get(v, 0) + k
        cleaned = []
        for v, k in norm.items():
            if k == 0:
                continue
            if k < 0 and not v.unit:
                raise ExponentDomainError(f"negative exponent on non-unit {v.name}")
            cleaned.append((v, k))
        self.exps = tuple(sorted(cleaned, key=lambda it: it[0].index))
        self._hash = hash(self.exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        """Merge the two sorted exponent tuples; the product of two valid
        monomials is valid, so it skips ``__init__``'s checks."""
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        va, ka = a[0]
        vb, kb = b[0]
        while True:
            if va.index < vb.index:
                out.append(a[i])
                i += 1
                if i == len(a):
                    out.extend(b[j:])
                    break
                va, ka = a[i]
            elif vb.index < va.index:
                out.append(b[j])
                j += 1
                if j == len(b):
                    out.extend(a[i:])
                    break
                vb, kb = b[j]
            else:
                if ka + kb:
                    out.append((va, ka + kb))
                i += 1
                j += 1
                if i == len(a) or j == len(b):
                    out.extend(a[i:] or b[j:])
                    break
                va, ka = a[i]
                vb, kb = b[j]
        return _monomial(tuple(out))

    def divide(self, other: "Monomial"):
        """Exact quotient self/other, or None when not divisible (non-units only go down)."""
        merged = dict(self.exps)
        for v, k in other.exps:
            merged[v] = merged.get(v, 0) - k
        try:
            return Monomial(merged.items())
        except ExponentDomainError:
            return None

    def inverse(self) -> "Monomial":
        for v, _ in self.exps:
            if not v.unit:
                raise NotInvertibleError(f"{self} contains non-unit {v.name}")
        # negated unit exponents stay sorted, nonzero and in domain
        return _monomial(tuple((v, -k) for v, k in self.exps))

    def total_degree(self) -> int:
        return sum(k for _, k in self.exps)

    def exponent(self, v: VarId) -> int:
        for w, k in self.exps:
            if w is v:
                return k
        return 0

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.exps)

    def sort_key(self) -> tuple:
        key = [0] * _N_VARS
        for v, k in self.exps:
            key[v.index] = k
        return tuple(key)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v.name if k == 1 else f"{v.name}^{k}" for v, k in self.exps)

    __repr__ = __str__


def _monomial(exps: tuple) -> Monomial:
    """A Monomial of exponent pairs already sorted, nonzero and in domain."""
    m = object.__new__(Monomial)
    m.exps = exps
    m._hash = hash(exps)
    return m


_MONOMIAL_ONE = Monomial(())


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


def _coerce_scalar(c) -> Scalar:
    """c in canonical form: an ``int``, or a ``Fraction`` whose denominator
    is not 1."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _accumulate(out: dict, pairs: Iterable[tuple[Monomial, Scalar]]) -> dict:
    """Add each (monomial, coefficient) pair into out, in order: a new
    monomial goes last, a sum is kept canonical, and a zero sum is removed."""
    for m, c in pairs:
        s = out.get(m)
        if s is not None:
            c = s + c
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def _poly(terms: dict) -> "LaurentPoly":
    """A LaurentPoly of terms already canonical and without zeros."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


class LaurentPoly:
    """Immutable canonical polynomial: map monomial -> nonzero rational, an
    ``int`` when its denominator is 1 and a ``Fraction`` otherwise.

    ``_floats`` holds the float form that ``evaluate`` builds on its first
    call, ``((complex coefficient, exponent pairs), ...)`` in term order.
    """

    __slots__ = ("terms", "_floats")

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        coerced = ((m, _coerce_scalar(c)) for m, c in terms.items())
        self.terms = {m: c for m, c in coerced if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        return cls({_MONOMIAL_ONE: c})

    @classmethod
    def variable(cls, name: str, exponent: int = 1) -> "LaurentPoly":
        return cls({Monomial(((var_id(name), exponent),)): 1})

    @classmethod
    def term(cls, coef: Scalar, mono: Monomial) -> "LaurentPoly":
        return cls({mono: coef})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Monomial, Scalar]]) -> "LaurentPoly":
        """The sum of (monomial, coefficient) pairs, added in order into one
        dict: the terms and their order are those of adding each pair as a
        ``term`` to zero in turn."""
        return _poly(_accumulate({}, ((m, _coerce_scalar(c)) for m, c in pairs)))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        return _poly(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        b = _lift(other).terms.items()
        return _poly(_accumulate({}, ((m1 * m2, c1 * c2)
                                      for m1, c1 in self.terms.items() for m2, c2 in b)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers; invert unit terms instead")
        out = LaurentPoly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- inspection --------------------------------------------------------

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            out.update(m.variables())
        return out

    def split(self, variables) -> dict:
        """self read as a polynomial in ``variables`` (a sequence of VarIds):
        {exponent tuple: coefficient}, each coefficient free of ``variables``.
        Keys, and the terms of each coefficient, come in self's term order."""
        variables = tuple(variables)
        parts: dict = {}
        for m, c in self.terms.items():
            key = tuple(m.exponent(v) for v in variables)
            rest = Monomial((v, k) for v, k in m.exps if v not in variables)
            parts.setdefault(key, {})[rest] = c
        return {key: _poly(terms) for key, terms in parts.items()}

    def single_term(self) -> tuple[Scalar, Monomial]:
        if len(self.terms) != 1:
            raise NotInvertibleError(f"not a single term: {self}")
        ((m, c),) = self.terms.items()
        return c, m

    def inverse_term(self) -> "LaurentPoly":
        """Inverse of a single term whose monomial involves only unit variables."""
        c, m = self.single_term()
        return LaurentPoly({m.inverse(): Fraction(1, c)})

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda it: it[0].sort_key(), reverse=True)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[VarId, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneous substitution; unbound variables pass through.

        A variable occurring with a negative exponent can only be replaced by
        a single term in unit variables, otherwise SubstitutionDomainError.
        """
        if not bindings:
            return self
        out: dict = {}
        powers: dict = {}    # (v, k) -> the image of v^k
        for m, c in self.terms.items():
            acc = _poly({_MONOMIAL_ONE: c})
            for vk in m.exps:
                f = powers.get(vk)
                if f is None:
                    f = powers[vk] = _power_image(vk, bindings)
                acc = acc * f
            _accumulate(out, acc.terms.items())
        return _poly(out)

    def evaluate(self, values: Mapping[VarId, complex]) -> complex:
        """Direct term-by-term numeric evaluation, in term order; the float
        form of the terms is built on the first call and kept."""
        try:
            floats = self._floats
        except AttributeError:
            floats = self._floats = tuple(
                (complex(c), m.exps) for m, c in self.terms.items())
        total = 0j
        try:
            for prod, exps in floats:
                for v, k in exps:
                    prod *= values[v] ** k
                total += prod
        except KeyError:
            raise UnboundVariableError(f"unbound variable {v.name}") from None
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


def _power_image(vk: tuple, bindings: Mapping[VarId, LaurentPoly]) -> LaurentPoly:
    """v^k under bindings; an unbound v passes through."""
    v, k = vk
    b = bindings.get(v)
    if b is None:
        return _poly({_monomial((vk,)): 1})
    if k >= 0:
        return b ** k
    try:
        inverse = b.inverse_term()
    except PolyError as exc:
        raise SubstitutionDomainError(f"cannot invert binding of {v.name}: {b}") from exc
    return inverse ** -k


def _lift(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.constant(x)
    raise TypeError(f"cannot lift {x!r} into the ring")


# --------------------------------------------------------------------------
# linear solving
# --------------------------------------------------------------------------


def solve_linear(eq: LaurentPoly, target: VarId) -> LaurentPoly:
    """Solve eq == 0 for target.

    The equation must be of degree exactly 1 in target, with a coefficient
    that is a single term in unit variables (hence invertible).  The result
    expr satisfies eq|_{target -> expr} == 0 identically.
    """
    parts = eq.split((target,))
    if not parts.keys() <= {(0,), (1,)} or (1,) not in parts:
        deg = max((k for (k,) in parts), default=0)
        raise NotLinearError(f"degree in {target.name} is {deg}, need exactly 1")
    coeff = parts[(1,)]
    rest = parts.get((0,), LaurentPoly.zero())
    try:
        inv = coeff.inverse_term()
    except NotInvertibleError:
        raise NotInvertibleError(
            f"coefficient of {target.name} is not an invertible term: {coeff}") from None
    return -rest * inv


def solve_in_order(equations, plan) -> dict:
    """Solve equations[key] for each planned (key, varname) in turn, after
    substituting the earlier solutions, and substitute each new solution into
    the earlier ones; {VarId: expr} in plan order, no expr holding a planned
    variable."""
    solved: dict = {}
    for key, name in plan:
        target = var_id(name)
        expr = solve_linear(equations[key].substitute(solved), target)
        for v, earlier in solved.items():
            solved[v] = earlier.substitute({target: expr})
        solved[target] = expr
    return solved


# --------------------------------------------------------------------------
# text grammar
# --------------------------------------------------------------------------


def format_poly(poly: LaurentPoly) -> str:
    """Canonical deterministic rendering (registry order, descending)."""
    items = poly.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for i, (m, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        if m.exps and mag == 1:
            body = str(m)
        elif m.exps:
            body = f"{mag}*{m}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


_SIGNS = re.compile(r"[\s+-]*")
_FACTOR = re.compile(r"\s*(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?"
                     r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                     r"(?:\s*\^\s*(?P<neg>-?)\s*(?P<exp>\d+))?)\s*")


def _int(factor: re.Match, group: str) -> int:
    """The digits of a _FACTOR group as an int, 1 when the group is absent.
    CPython caps int() at 4300 digits by default; a longer number is a
    ParseError."""
    digits = factor[group]
    if digits is None:
        return 1
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)}-digit number at column "
                         f"{factor.start(group)} is too long") from None


def parse(text: str) -> LaurentPoly:
    """Parse the canonical grammar in one pass; inverse of format_poly.

    Each term is a run of signs and then ``*``-separated factors; a factor is
    ``a`` or ``a/b``, or a name with an optional ``^k``.  Terms after the first
    must follow a ``+`` or ``-``.
    """
    terms = []
    pos = 0
    while True:
        signs = _SIGNS.match(text, pos)
        coef = Fraction(-1 if signs.group().count("-") % 2 else 1)
        exps = []
        pos = signs.end()
        while True:
            factor = _FACTOR.match(text, pos)
            if factor is None:
                raise ParseError(f"expected a number or a name at column {pos} of {text!r}")
            if factor["num"] is not None:
                den = _int(factor, "den")
                if den == 0:
                    raise ParseError(f"zero denominator in {text!r}")
                coef *= Fraction(_int(factor, "num"), den)
            else:
                exp = _int(factor, "exp")
                exps.append((var_id(factor["name"]), -exp if factor["neg"] else exp))
            pos = factor.end()
            if not text.startswith("*", pos):
                break
            pos += 1
        terms.append((Monomial(exps), coef))
        if pos == len(text):
            return LaurentPoly.from_terms(terms)
        if text[pos] not in "+-":
            raise ParseError(f"unexpected {text[pos]!r} at column {pos} of {text!r}")
