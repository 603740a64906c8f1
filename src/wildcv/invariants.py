"""Torus weights, invariant-monomial enumeration and invariant rewriting.

The exponential torus acts on Stokes coefficients by conjugation; a monomial
in the coefficients is invariant exactly when its weights sum to zero.  The
closure equations are rewritten in the case's generators U, V, W, R, T, on
the packed monomials of ``polyring`` (int masks and sums, no decoding); the
tests check that these are the minimal zero-weight monomials up to degree 3
(in the 6- and the 12-variable rings), which proves no degree bound.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd

from .polyring import (_FIELD, _NONUNIT_SIGNS, _OFFSET, LaurentPoly, Monomial, PolyError,
                       _accumulate, _new_int, _poly, var_id)


class NotInvariantError(PolyError):
    """A monomial is no product of the generators, or they have other than one relation."""


def weight_of(mono: Monomial, weights: dict, dim: int) -> tuple:
    """The torus weight of mono, given each variable's weight by name."""
    return tuple(sum(weights[v.name][a] * k for v, k in mono.exps) for a in range(dim))


def invariant_monomials(weights: dict, degree_bound: int) -> set:
    """All divisibility-minimal zero-weight monomials of total degree <= bound."""
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    names = sorted(weights, key=lambda nm: var_id(nm).index)
    dim = len(next(iter(weights.values()))) if weights else 0
    candidates = []
    for d in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(names, d):
            mono = Monomial((var_id(nm), 1) for nm in combo)
            if not any(weight_of(mono, weights, dim)):
                candidates.append(mono)
    candidates.sort(key=lambda m: m.total_degree())
    kept: list = []
    for mono in candidates:
        if any(mono.divide(g) is not None for g in kept):
            continue
        kept.append(mono)
    return set(kept)


def generator_relation(defs) -> LaurentPoly:
    """term(v+) - term(v-) for the primitive integer relation v among the
    exponent vectors of the generators ((name, Monomial), ...), with its first
    nonzero entry positive.  The relations must have rank 1, so that this
    binomial generates them all; NotInvariantError otherwise."""
    variables = {v for _, mono in defs for v in mono.variables()}
    n = len(variables)
    # a generator's exponent vector, then its integer combination of generators
    rows = [[mono.exponent(v) for v in variables] + [int(i == j) for j in range(len(defs))]
            for i, (_, mono) in enumerate(defs)]
    for col in range(n):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is not None:
            rows.remove(pivot)
            rows = [[pivot[col] * a - row[col] * b for a, b in zip(row, pivot)]
                    for row in rows]
    if len(rows) != 1:     # the rows left have zero exponents: the relations
        raise NotInvariantError(f"the generators' relations have rank {len(rows)}, need 1")
    g = gcd(*rows[0][n:])
    v = [k // g for k in rows[0][n:]]
    if next(k for k in v if k) < 0:
        v = [-k for k in v]
    ids = [var_id(name) for name, _ in defs]
    plus = Monomial((i, k) for i, k in zip(ids, v) if k > 0)
    minus = Monomial((i, -k) for i, k in zip(ids, v) if k < 0)
    return LaurentPoly.from_terms([(plus, 1), (minus, -1)])


# --------------------------------------------------------------------------
# rewriting into the invariant generators
# --------------------------------------------------------------------------


def _factorizations(x: int, gens: tuple) -> list:
    """The exponent tuples (e_0, ..., e_{n-1}) with sum e_i * gens[i] == x,
    for x and each generator a packed monomial in non-unit variables: each
    generator in turn is subtracted while every non-unit field of the rest
    stays nonnegative.

    Every generator has positive degree in scheduled coefficients
    (``validate_spec`` rejects a constant one), so each subtraction lowers
    the degree of the rest and the loop ends: at most deg(x) subtractions per
    generator."""
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


def rewrite_in_invariants(eq: LaurentPoly, defs) -> LaurentPoly:
    """Rewrite every Stokes-coefficient monomial of eq as a product of the
    generators U, V, W, R, T; parameter factors pass through.

    When a monomial factors in more than one way (the tautological relation
    makes this harmless), the factorization with the fewest generator factors
    wins, ties broken by the lexicographically least sorted generator tuple
    in the order U < V < W < R < T.

    Each term's Stokes-coefficient part is read off its packed monomial with
    one mask, as ``LaurentPoly.split`` reads it, and replaced by the chosen
    product as one int sum; the terms are added in eq's order, so the result
    is the sum of each rewritten term in turn.  A part's product is chosen
    once per call.
    """
    gens = tuple(mono for _, mono in defs)
    names = [1 << var_id(name).shift for name, _ in defs]    # U, V, ... packed
    mask = sum(_FIELD << v.shift for v in {v for mono in gens for v in mono.variables()})
    offset = _OFFSET & mask
    chosen: dict = {}    # a term's Stokes-coefficient part -> its product of generators
    terms = []
    for m, c in eq.terms.items():
        x = ((m + _OFFSET) & mask) - offset
        product = chosen.get(x)
        if product is None:
            found = _factorizations(x, gens)
            if not found:
                raise NotInvariantError(
                    f"{_new_int(Monomial, x)} is not a product of the generators")
            best = found[0] if len(found) == 1 else min(found, key=lambda exps: (
                sum(exps), tuple(i for i, e in enumerate(exps) for _ in range(e))))
            product = chosen[x] = sum(e * g for e, g in zip(best, names))
        terms.append((m - x + product, c))
    return _poly(_accumulate({}, terms))
