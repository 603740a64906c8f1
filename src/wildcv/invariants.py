"""Torus weights, invariant-monomial enumeration and invariant rewriting.

The exponential torus acts on Stokes coefficients by conjugation; a monomial
in the coefficients is invariant exactly when its weights sum to zero.  The
invariant ring is generated by the divisibility-minimal zero-weight monomials
(degree at most 3 suffices for all shipped cases) and the closure equations
are rewritten in these generators U, V, W, R, T.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .polyring import LaurentPoly, Monomial, PolyError, var_id


class NotInvariantError(PolyError):
    """A monomial admits no factorization into invariant generators."""


def _weight_of(mono: Monomial, weights: dict, dim: int) -> tuple:
    total = [0] * dim
    for v, k in mono.exps:
        w = weights[v.name]
        for a in range(dim):
            total[a] += w[a] * k
    return tuple(total)


def invariant_monomials(weights: dict, degree_bound: int) -> set:
    """All divisibility-minimal zero-weight monomials of total degree <= bound."""
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    names = sorted(weights, key=lambda nm: var_id(nm).index)
    dim = len(next(iter(weights.values()))) if weights else 0
    zero = tuple([0] * dim)
    candidates = []
    for d in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(names, d):
            exps: dict = {}
            for nm in combo:
                vid = var_id(nm)
                exps[vid] = exps.get(vid, 0) + 1
            mono = Monomial(exps.items())
            if _weight_of(mono, weights, dim) == zero:
                candidates.append(mono)
    candidates.sort(key=lambda m: m.total_degree())
    kept: list = []
    for mono in candidates:
        if any(mono.divide(g) is not None for g in kept):
            continue
        kept.append(mono)
    return set(kept)


# --------------------------------------------------------------------------
# rewriting into the invariant generators
# --------------------------------------------------------------------------


def _x_split(mono: Monomial, xnames: set):
    xpart, rest = [], []
    for v, k in mono.exps:
        (xpart if v.name in xnames else rest).append((v, k))
    return Monomial(xpart), Monomial(rest)


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
    xnames = {v.name for _, mono in gens for v in mono.variables()}

    @lru_cache(maxsize=None)
    def best(mono: Monomial):
        options = []
        for exps in _factorizations(mono, gens):
            count = sum(exps)
            signature = tuple(i for i, e in enumerate(exps) for _ in range(e))
            options.append(((count, signature), exps))
        if not options:
            raise NotInvariantError(f"{mono} is not a product of the generators")
        return min(options)[1]

    terms = []
    for mono, coef in eq.terms.items():
        xpart, rest = _x_split(mono, xnames)
        exps = best(xpart)
        gmono = rest
        for (gname, _), e in zip(gens, exps):
            if e:
                gmono = gmono * Monomial(((var_id(gname), e),))
        terms.append((gmono, coef))
    return LaurentPoly.from_terms(terms)
