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

A ``Monomial`` is one ``int`` holding a signed 16-bit field per registry
variable, x1 most significant, in the manner of Monagan and Pearce's packed
exponent vectors (CASC 2007): a monomial product is one integer addition, and
monomials hash, compare and sort as ints.  Every exponent lies in
[-EXP_LIMIT, EXP_LIMIT) = [-8192, 8191]; an operation whose result leaves that
range raises ``ExponentOverflowError`` and never wraps.  Only this module
reads the packed format; the invariant rewrite's masks and int sums are
``LaurentPoly.in_products``.

Products with a constant-1 factor return the other factor, products with a
single-term factor map the other's terms one to one, sums with zero return
the other summand, and a substitution that binds none of a polynomial's
variables returns it.  Otherwise a sum, difference, product, dot product or
substitution adds its terms into one dict by ``_accumulate``'s rules: a new
monomial goes last, a sum is kept canonical, and a zero sum is removed.  The
general product, ``-``, ``substitute`` and ``dot`` each do so in a loop of
their own, written inline, with no generator between a term and its sum.

Polynomials print deterministically (terms sorted by exponent vector in
registry order) in a small text grammar, and ``parse`` round-trips it::

    2*x1^2*x2 - 1/3*alpha^-1 + 1

Terms are joined by ``+`` or ``-``; juxtaposed terms or factors (``x1 x2``,
``2x1``) and a zero denominator (``1/0``) are ``ParseError``s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class PolyError(Exception):
    """Base class for errors raised by the polynomial ring."""


class UnknownVariableError(PolyError):
    """A variable name outside the closed registry."""


class ExponentDomainError(PolyError):
    """A non-unit variable was given a negative exponent."""


class ExponentOverflowError(PolyError):
    """An exponent left the range [-EXP_LIMIT, EXP_LIMIT) of a packed field."""


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

_N_VARS = len(_REGISTRY_NAMES)
_WIDTH = 16    # bits of a monomial's field per variable


class VarId:
    """Interned identifier for a registry variable; ``shift`` places its
    exponent field in a packed Monomial."""

    __slots__ = ("name", "index", "unit", "shift")

    _by_name: dict = {}

    def __init__(self, name: str, index: int, unit: bool):
        self.name = name
        self.index = index
        self.unit = unit
        self.shift = _WIDTH * (_N_VARS - 1 - index)

    def __repr__(self):
        return f"VarId({self.name})"

    def __reduce__(self):
        # a copy or an unpickled VarId is the interned one, which lookups compare by identity
        return var_id, (self.name,)

    def __lt__(self, other: "VarId"):
        return self.index < other.index


for _i, _name in enumerate(_REGISTRY_NAMES):
    VarId._by_name[_name] = VarId(_name, _i, _name in _UNIT_NAMES)

_VARS = tuple(VarId._by_name.values())


def var_id(name: str) -> VarId:
    """Look up a registry variable; unknown names are rejected."""
    try:
        return VarId._by_name[name]
    except KeyError:
        raise UnknownVariableError(f"unknown variable {name!r}") from None


# --------------------------------------------------------------------------
# monomials
# --------------------------------------------------------------------------

# A monomial is the int sum(k_v << v.shift): one signed 16-bit field per
# variable, x1 most significant.  With L = EXP_LIMIT, exponents lie in [-L, L),
# so a sum or difference of two monomials has every field in [-2L, 2L), and
# adding _BIAS = 3L to each field leaves it in [L, 5L) with no carry between
# fields.  The field is in range exactly when that biased value lies in
# [2L, 4L), i.e. its bit of value 2L is set and its bit of value 4L is clear:
# the mask test of _checked.  In range, the bit of value L is set exactly when
# the exponent is >= 0.
EXP_LIMIT = 1 << (_WIDTH - 3)
_FIELD = (1 << _WIDTH) - 1
_BIAS = 3 * EXP_LIMIT


def _each_field(bits: int, units: bool = True) -> int:
    return sum(bits << v.shift for v in _VARS if units or not v.unit)


_OFFSET = _each_field(_BIAS)
_GUARD = _each_field(6 * EXP_LIMIT)
_IN_RANGE = _each_field(2 * EXP_LIMIT)
_NONUNIT_FIELDS = _each_field(_FIELD, units=False)
_NONUNIT_SIGNS = _each_field(EXP_LIMIT, units=False)   # set when the exponent is >= 0
_AT_SHIFT = {v.shift: v for v in _VARS}


class Monomial(int):
    """A monomial packed into one int (see above): a product is one integer
    addition, hashing and equality are the int's, and the int order is the
    lexicographic order of exponent vectors in registry order.  ``Monomial(())``
    is 0.  A Monomial is not a scalar: the ring rejects it as a coefficient,
    and ``*`` takes only another Monomial; ``+`` and ``-`` stay the int's and
    give the packed product and quotient unchecked."""

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[VarId, int]] = ()):
        norm: dict = {}
        for v, k in exps:
            norm[v] = norm.get(v, 0) + k
        packed = 0
        for v, k in norm.items():
            if k < 0 and not v.unit:
                raise ExponentDomainError(f"negative exponent on non-unit {v.name}")
            if not -EXP_LIMIT <= k < EXP_LIMIT:
                raise _overflow(v, k)
            packed += k << v.shift
        return _new_int(cls, packed)

    @property
    def exps(self) -> tuple:
        """The nonzero exponents as (VarId, k) pairs in registry order."""
        biased = self + _OFFSET
        return tuple([(_AT_SHIFT[s], ((biased >> s) & _FIELD) - _BIAS)
                      for s in _shifts(biased ^ _OFFSET)])

    def __mul__(self, other: "Monomial") -> "Monomial":
        if type(other) is not Monomial:
            raise TypeError(f"cannot multiply the monomial {self} by {other!r}")
        return _checked(self + other)

    __rmul__ = __mul__

    def divide(self, other: "Monomial"):
        """Exact quotient self/other, or None when not divisible (non-units only go down)."""
        quotient = _checked(self - other)
        if (quotient + _OFFSET) & _NONUNIT_SIGNS != _NONUNIT_SIGNS:
            return None
        return quotient

    def inverse(self) -> "Monomial":
        if (self + _OFFSET) & _NONUNIT_FIELDS != _OFFSET & _NONUNIT_FIELDS:
            v = next(v for v, _ in self.exps if not v.unit)
            raise NotInvertibleError(f"{self} contains non-unit {v.name}")
        return _checked(-self)

    def total_degree(self) -> int:
        return sum(k for _, k in self.exps)

    def exponent(self, v: VarId) -> int:
        return (((self + _OFFSET) >> v.shift) & _FIELD) - _BIAS

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.exps)

    def __str__(self):
        return "*".join(_factor_texts(self)) or "1"

    __repr__ = __str__

    def __reduce__(self):
        # rebuilt from the packed int: ``__new__`` takes (VarId, k) pairs
        return _new_int, (Monomial, int(self))


_new_int = int.__new__


def _factor_texts(m: int) -> list:
    """``name`` or ``name^k`` for each nonzero exponent of m, x1's first,
    read in one pass over its fields (as ``exps`` and ``_shifts`` do)."""
    biased = m + _OFFSET
    fields = biased ^ _OFFSET
    out = []
    while fields:
        shift = (fields.bit_length() - 1) // _WIDTH * _WIDTH
        k = ((biased >> shift) & _FIELD) - _BIAS
        name = _AT_SHIFT[shift].name
        out.append(name if k == 1 else f"{name}^{k}")
        fields &= (1 << shift) - 1
    return out


def _shifts(fields: int) -> list:
    """The shifts of the nonzero fields of ``fields``, x1's first.  A
    monomial m's field is nonzero in (m + _OFFSET) ^ _OFFSET exactly where
    its exponent is."""
    out = []
    while fields:
        shift = (fields.bit_length() - 1) // _WIDTH * _WIDTH
        out.append(shift)
        fields &= (1 << shift) - 1
    return out


def _overflow(v: VarId, k: int) -> "ExponentOverflowError":
    return ExponentOverflowError(
        f"exponent {k} of {v.name} is outside [{-EXP_LIMIT}, {EXP_LIMIT - 1}]")


def _checked(packed: int) -> Monomial:
    """The Monomial packed as ``packed``, a sum or difference of two
    monomials; ExponentOverflowError when a field left its range."""
    biased = packed + _OFFSET
    if biased & _GUARD != _IN_RANGE:
        for v in _VARS:
            k = ((biased >> v.shift) & _FIELD) - _BIAS
            if not -EXP_LIMIT <= k < EXP_LIMIT:
                raise _overflow(v, k)
    return _new_int(Monomial, packed)


_MONOMIAL_ONE = Monomial()


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


def _is_scalar(c) -> bool:
    return isinstance(c, (int, Fraction)) and not isinstance(c, Monomial)


def _coerce_scalar(c) -> Scalar:
    """c in canonical form: an ``int``, or a ``Fraction`` whose denominator
    is not 1."""
    if not _is_scalar(c):
        raise TypeError(f"not an exact scalar: {c!r}")
    return _canonical(c)


def _canonical(c: Scalar) -> Scalar:
    """A nonzero rational as an ``int`` when its denominator is 1."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _accumulate(out: dict, pairs: Iterable[tuple[int, Scalar]]) -> dict:
    """Add each (monomial, coefficient) pair into out, in order: a new
    monomial goes last, a sum is kept canonical, and a zero sum is removed,
    so a monomial that comes back later goes last.  A monomial may come as
    the plain int sum of two; it is range-checked and packed only when it is
    new to out.  The mask test and the canonical form are ``_checked``'s and
    ``_canonical``'s, written inline.

    ``__add__``, ``from_terms``, ``in_products`` and ``dot`` (for a
    product of two multi-term factors) add through this loop.  ``_products``
    (the general product), ``substitute``, ``__sub__`` and ``dot`` (for a
    single-term factor's image of the other) each add their terms in an
    inlined copy of it, with the same rules; there each term product or
    image is nonzero, so only a sum can vanish."""
    for m, c in pairs:
        s = out.get(m)
        if s is not None:
            c = s + c
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if c:
            if s is not None or type(m) is Monomial:
                out[m] = c
            else:
                if (m + _OFFSET) & _GUARD != _IN_RANGE:
                    _checked(m)
                out[_new_int(Monomial, m)] = c
        elif s is not None:
            del out[m]
    return out


def _poly(terms: dict) -> "LaurentPoly":
    """A LaurentPoly of terms already canonical and without zeros."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


def _shifted(terms: dict, mono: int, coef: Scalar) -> dict:
    """terms times the single term coef*mono: a one-to-one map, so the
    terms keep their order and no two of them meet.  The mask test and the
    canonical form are written inline, as in ``_accumulate``."""
    out = {}
    for m, c in terms.items():
        m += mono
        if (m + _OFFSET) & _GUARD != _IN_RANGE:
            _checked(m)
        c *= coef
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        out[_new_int(Monomial, m)] = c
    return out


def _products(a: dict, b: dict) -> dict:
    """The sum of every term product of a and b, a's terms outermost, each
    added as ``_accumulate`` adds it."""
    out: dict = {}
    b = b.items()
    for m1, c1 in a.items():
        for m2, c2 in b:
            m = m1 + m2
            s = out.get(m)
            if s is None:
                c = c1 * c2
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if (m + _OFFSET) & _GUARD != _IN_RANGE:
                    _checked(m)
                out[_new_int(Monomial, m)] = c
            else:
                c = s + c1 * c2
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if c:
                    out[m] = c
                else:
                    del out[m]
    return out


class LaurentPoly:
    """Immutable canonical polynomial: map monomial -> nonzero rational, an
    ``int`` when its denominator is 1 and a ``Fraction`` otherwise."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        for m in terms:
            if type(m) is not Monomial:
                raise TypeError(f"not a monomial: {m!r}")
        coerced = ((m, _coerce_scalar(c)) for m, c in terms.items())
        self.terms = {m: c for m, c in coerced if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly({})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        c = _coerce_scalar(c)
        return _poly({_MONOMIAL_ONE: c} if c else {})

    @classmethod
    def variable(cls, name: str, exponent: int = 1) -> "LaurentPoly":
        if type(exponent) is int and exponent == 1:
            return _poly({_new_int(Monomial, 1 << var_id(name).shift): 1})
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
        if type(other) is not LaurentPoly:
            other = _lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _poly(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        """self + (-other), in one pass: each of other's terms is negated as
        it is added, as ``_accumulate`` adds it."""
        if type(other) is not LaurentPoly:
            other = _lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                c = s - c
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if c:
                    out[m] = c
                else:
                    del out[m]
        return _poly(out)

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        """The product, with the terms in the order of adding every term
        product, self's terms outermost; a constant-1 factor returns the
        other one, and a single-term factor maps the other's terms one to
        one."""
        if type(other) is not LaurentPoly:
            other = _lift(other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            if b.get(_MONOMIAL_ONE) == 1:
                return self
            ((m, c),) = b.items()
            return _poly(_shifted(a, m, c))
        if len(a) == 1:
            if a.get(_MONOMIAL_ONE) == 1:
                return other
            ((m, c),) = a.items()
            return _poly(_shifted(b, m, c))
        return _poly(_products(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers; invert unit terms instead")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        # equal to a scalar's hash where __eq__ equates the two: a constant
        # hashes as its coefficient, and zero as 0
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and _MONOMIAL_ONE in terms:
            return hash(terms[_MONOMIAL_ONE])
        return hash(frozenset(terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- inspection --------------------------------------------------------

    def variables(self) -> set:
        fields = 0
        for m in self.terms:
            fields |= (m + _OFFSET) ^ _OFFSET
        return {_AT_SHIFT[s] for s in _shifts(fields)}

    def split(self, variables) -> dict:
        """self read as a polynomial in ``variables`` (a sequence of VarIds):
        {exponent tuple: coefficient}, each coefficient free of ``variables``.
        Keys, and the terms of each coefficient, come in self's term order."""
        variables = tuple(variables)
        mask = sum(_FIELD << v.shift for v in set(variables))
        offset = _OFFSET & mask
        parts: dict = {}
        for m, c in self.terms.items():
            biased = m + _OFFSET
            key = tuple(((biased >> v.shift) & _FIELD) - _BIAS for v in variables)
            rest = _new_int(Monomial, m - ((biased & mask) - offset))
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
        # ±1 is its own inverse, as an int: c is canonical, so no Fraction is ±1
        inverse = c if c in (1, -1) else _canonical(Fraction(1, c))
        return _poly({m.inverse(): inverse})

    def in_products(self, gens, choose) -> "LaurentPoly":
        """self with each term's part in the variables of ``gens``, a
        sequence of (VarId, Monomial) pairs, replaced by a product of the
        VarIds: a part with one factorization into the Monomials takes it,
        any other the exponent tuple that ``choose(part, found)`` picks from
        ``found``, every factorization (none when it is empty).  Each part is
        masked off as in ``split``, factored once per call and replaced by one
        int sum; the terms are added in self's order by ``_accumulate``.  A
        generator that holds no non-unit variable is a PolyError, raised
        before any term is factored, as no search over it would end."""
        ids, monos = zip(*gens) if gens else ((), ())
        names = [1 << v.shift for v in ids]
        fields = 0
        for v, mono in gens:
            held = (mono + _OFFSET) ^ _OFFSET
            if not held & _NONUNIT_FIELDS:
                raise PolyError(f"generator {v.name} = {mono} holds no non-unit variable")
            fields |= held
        mask = 0
        for shift in _shifts(fields):
            mask |= _FIELD << shift
        offset = _OFFSET & mask
        chosen: dict = {}    # a term's part -> its product of the VarIds
        terms = []
        for m, c in self.terms.items():
            x = ((m + _OFFSET) & mask) - offset
            product = chosen.get(x)
            if product is None:
                found = _factorizations(x, monos)
                exps = found[0] if len(found) == 1 else choose(_new_int(Monomial, x), found)
                product = chosen[x] = sum(e * g for e, g in zip(exps, names))
            terms.append((m - x + product, c))
        return _poly(_accumulate({}, terms))

    def sorted_terms(self) -> list:
        """The terms, highest monomial first: by the packed int, which orders
        as the exponent vector in registry order."""
        return sorted(self.terms.items(), key=itemgetter(0), reverse=True)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[VarId, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneous substitution; unbound variables pass through.

        Each term's image is its coefficient times the product of the bound
        powers' images, taken in registry order from the first of them (a
        power 1 is the binding itself), shifted by the term's unbound part as
        one monomial; the images' terms are added in term order into one
        dict, as ``_accumulate`` adds them.

        A variable occurring with a negative exponent can only be replaced by
        a single term in unit variables, otherwise SubstitutionDomainError.
        """
        if not bindings:
            return self
        mask = 0
        for v in bindings:
            mask |= _FIELD << v.shift
        offset = _OFFSET & mask
        for m in self.terms:
            if (m + _OFFSET) & mask != offset:
                break
        else:
            return self    # no term holds a bound variable
        out: dict = {}
        images: dict = {}    # a term's bound part -> the image of that part
        for m, c in self.terms.items():
            biased = m + _OFFSET
            part = (biased & mask) - offset
            image = images.get(part)
            if image is None:
                image = _ONE
                held = (biased & mask) ^ offset    # the bound fields that the term holds
                while held:    # x1's first, as _shifts reads them
                    shift = (held.bit_length() - 1) // _WIDTH * _WIDTH
                    held &= (1 << shift) - 1
                    v = _AT_SHIFT[shift]
                    power = _power_image(v, ((biased >> shift) & _FIELD) - _BIAS, bindings[v])
                    image = power if image is _ONE else image * power
                image = images[part] = image.terms
            rest = m - part
            for mi, ci in image.items():    # each added as _accumulate adds it
                mi += rest
                s = out.get(mi)
                if s is None:
                    ci *= c
                    if type(ci) is not int and ci.denominator == 1:
                        ci = ci.numerator
                    if (mi + _OFFSET) & _GUARD != _IN_RANGE:
                        _checked(mi)
                    out[_new_int(Monomial, mi)] = ci
                else:
                    ci = s + ci * c
                    if type(ci) is not int and ci.denominator == 1:
                        ci = ci.numerator
                    if ci:
                        out[mi] = ci
                    else:
                        del out[mi]
        return _poly(out)

    def evaluate(self, values: Mapping[VarId, complex]) -> complex:
        """The term walk: in term order, ``complex(c)`` times ``values[v]**k``
        for each power of the term in registry order, summed into ``0j``.
        The first variable missing from ``values``, in that order, raises
        ``UnboundVariableError``.  This is the float reference: each modulus
        that the oracle's compiled trial returns is bit for bit that of this
        walk at the same values."""
        total = 0j
        for m, c in self.terms.items():
            term = complex(c)
            for v, k in m.exps:
                try:
                    term *= values[v] ** k
                except KeyError:
                    raise UnboundVariableError(f"unbound variable {v.name}") from None
            total += term
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


_ONE = LaurentPoly.constant(1)


def _power_image(v: VarId, k: int, b: LaurentPoly) -> LaurentPoly:
    """v^k with v bound to b; v^1 is b itself."""
    if k > 0:
        return b if k == 1 else b ** k
    try:
        inverse = b.inverse_term()
    except PolyError as exc:
        raise SubstitutionDomainError(f"cannot invert binding of {v.name}: {b}") from exc
    return inverse ** -k


def _factorizations(x: int, gens: tuple) -> list:
    """The exponent tuples (e_0, ..., e_{n-1}) with sum e_i * gens[i] == x,
    for x and each generator a packed monomial in non-unit variables: each
    generator in turn is subtracted while every non-unit field of the rest
    stays nonnegative.  A generator must hold a non-unit variable, as
    ``validate_spec`` checks, or the loop does not end."""
    partial = [((), x + _OFFSET)]    # biased, as _checked reads the fields
    for g in gens:
        grown = []
        for exps, rest in partial:
            e = 0
            while rest & _NONUNIT_SIGNS == _NONUNIT_SIGNS:
                grown.append((exps + (e,), rest))
                rest -= g
                e += 1
        partial = grown
    return [exps for exps, rest in partial if rest == _OFFSET]


def _lift(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if _is_scalar(x):
        return LaurentPoly.constant(x)
    raise TypeError(f"cannot lift {x!r} into the ring")


def dot(row: Iterable[LaurentPoly], col: Iterable[LaurentPoly]) -> LaurentPoly:
    """The sum of row[k] * col[k], with the terms, in the same order, of
    adding each product in turn to the sum of those before it.  A product
    with a zero factor is skipped, as adding zero changes nothing.  A
    single-term factor maps the other's terms one to one, so its image of
    the other is added straight into the sum, term by term, as
    ``_accumulate`` adds it: no two image terms meet, so this adds the
    finished product.  A product of two multi-term factors is formed whole
    by ``_products`` and then added."""
    out: dict = {}
    for a, b in zip(row, col):
        a, b = a.terms, b.terms
        if not (a and b):
            continue
        if len(a) == 1:
            ((mono, coef),) = a.items()
        elif len(b) == 1:
            ((mono, coef),) = b.items()
            b = a
        else:
            _accumulate(out, _products(a, b).items())
            continue
        for m, c in b.items():
            m += mono
            s = out.get(m)
            if s is None:
                c *= coef
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if (m + _OFFSET) & _GUARD != _IN_RANGE:
                    _checked(m)
                out[_new_int(Monomial, m)] = c
            else:
                c = s + c * coef
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                if c:
                    out[m] = c
                else:
                    del out[m]
    return _poly(out)


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
        found = ", ".join(str(k) for k in sorted(k for (k,) in parts))
        raise NotLinearError(f"exponents of {target.name} are {{{found}}}, need {{1}} or {{0, 1}}")
    coeff = parts[(1,)]
    try:
        ((mono, coef),) = coeff.inverse_term().terms.items()
    except NotInvertibleError:
        raise NotInvertibleError(
            f"coefficient of {target.name} is not an invertible term: {coeff}") from None
    # -rest * inverse, as one map of rest's terms by the negated inverse term
    rest = parts.get((0,))
    return _poly({} if rest is None else _shifted(rest.terms, mono, -coef))


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
    """Canonical deterministic rendering (registry order, descending), each
    packed monomial read once, in one pass over its fields."""
    pieces = []
    for m, c in poly.sorted_terms():
        pieces.append(" - " if c < 0 else " + ")
        factors, mag = _factor_texts(m), abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        pieces.append("*".join(factors))
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
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
