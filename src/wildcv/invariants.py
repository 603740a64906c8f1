"""Torus weights, invariant-monomial enumeration and invariant rewriting.

The exponential torus acts on Stokes coefficients by conjugation; a monomial
in the coefficients is invariant exactly when its weights sum to zero.  The
closure equations are rewritten in the case's generators U, V, W, R, T; the
tests check that these are the minimal zero-weight monomials up to degree 3
(in the 6- and the 12-variable rings), which proves no degree bound.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

from .polyring import LaurentPoly, Monomial, PolyError, var_id


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


def _factorizations(mono: Monomial, gens: tuple, start: int = 0):
    """Yield exponent tuples (e_0, ..., e_{n-1}) with prod gens[i]^e_i == mono."""
    if not mono:    # the constant monomial
        yield (0,) * (len(gens) - start)
        return
    if start >= len(gens):
        return
    _, gmono = gens[start]
    current = mono
    e = 0
    while True:
        for tail in _factorizations(current, gens, start + 1):
            yield (e,) + tail
        nxt = current.divide(gmono)
        if nxt is None:
            break
        current = nxt
        e += 1


def rewrite_in_invariants(eq: LaurentPoly, defs) -> LaurentPoly:
    """Rewrite every Stokes-coefficient monomial of eq as a product of the
    generators U, V, W, R, T; parameter factors pass through.

    When a monomial factors in more than one way (the tautological relation
    makes this harmless), the factorization with the fewest generator factors
    wins, ties broken by the lexicographically least sorted generator tuple
    in the order U < V < W < R < T.
    """
    gens = tuple(defs)
    ids = [var_id(name) for name, _ in gens]
    xnames = {v.name for _, mono in gens for v in mono.variables()}

    @lru_cache(maxsize=None)
    def best(mono: Monomial) -> Monomial:
        options = []
        for exps in _factorizations(mono, gens):
            count = sum(exps)
            signature = tuple(i for i, e in enumerate(exps) for _ in range(e))
            options.append(((count, signature), exps))
        if not options:
            raise NotInvariantError(f"{mono} is not a product of the generators")
        return Monomial(zip(ids, min(options)[1]))

    terms = []
    for mono, coef in eq.terms.items():
        xpart = Monomial((v, k) for v, k in mono.exps if v.name in xnames)
        terms.append((mono.divide(xpart) * best(xpart), coef))
    return LaurentPoly.from_terms(terms)
