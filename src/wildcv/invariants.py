"""Torus weights, invariant-monomial enumeration and invariant rewriting.

The exponential torus acts on Stokes coefficients by conjugation; a monomial
in the coefficients is invariant exactly when its weights sum to zero.  The
closure equations are rewritten in the case's generators U, V, W, R, T by
``LaurentPoly.in_products``, which works on ``polyring``'s packed monomials;
this module only picks among a monomial's factorizations.  The tests check
that these generators are the minimal zero-weight monomials up to degree 3
(in the 6- and the 12-variable rings), which proves no degree bound.
"""

from __future__ import annotations

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


def rewrite_in_invariants(eq: LaurentPoly, defs) -> LaurentPoly:
    """Rewrite every Stokes-coefficient monomial of eq as a product of the
    generators U, V, W, R, T; parameter factors pass through.

    When a monomial factors in more than one way (the tautological relation
    makes this harmless), the factorization with the fewest generator factors
    wins, ties broken by the lexicographically least sorted generator tuple
    in the order U < V < W < R < T.  The packed rewrite itself is
    ``LaurentPoly.in_products``.
    """
    names, monos = zip(*defs) if defs else ((), ())
    return eq.in_products(tuple(zip(map(var_id, names), monos)), _fewest_factors)


def _fewest_factors(part: Monomial, found: list) -> tuple:
    if not found:
        raise NotInvariantError(f"{part} is not a product of the generators")
    return min(found, key=lambda exps: (
        sum(exps), tuple(i for i, e in enumerate(exps) for _ in range(e))))
