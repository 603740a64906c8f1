"""Stokes directions, Stokes matrices and formal monodromies.

Directions are exact rational multiples of pi.  For an eigenvalue-difference
with leading level ``l`` on an ``N``-sheeted cover and argument offset ``o``
(an exact rational angle), the singular directions are the solutions of

    o - (l/N) * phi  =  pi/2   (mod pi)

normalized into [0, 2*pi).  Matrices are 3x3 over the exact polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .polyring import LaurentPoly
from .record import Record


# --------------------------------------------------------------------------
# exact angles
# --------------------------------------------------------------------------


class RationalAngle(Record):
    """An angle t*pi with t rational, reduced and normalized into [0, 2)."""

    turns: Fraction  # multiple of pi

    @staticmethod
    def of(numerator: int | Fraction, denominator: int = 1) -> "RationalAngle":
        return RationalAngle(Fraction(numerator, denominator) % 2)

    def __post_init__(self):
        if not 0 <= self.turns < 2:
            raise ValueError(f"angle not normalized: {self.turns}*pi")

    def __lt__(self, other):
        return self.turns < other.turns if other.__class__ is RationalAngle else NotImplemented

    def __le__(self, other):
        return self.turns <= other.turns if other.__class__ is RationalAngle else NotImplemented

    def __gt__(self, other):
        return self.turns > other.turns if other.__class__ is RationalAngle else NotImplemented

    def __ge__(self, other):
        return self.turns >= other.turns if other.__class__ is RationalAngle else NotImplemented

    def __str__(self):
        t = self.turns
        if t == 0:
            return "0"
        k, n = t.numerator, t.denominator
        if n == 1:
            return "pi" if k == 1 else f"{k}*pi"
        return f"pi/{n}" if k == 1 else f"{k}*pi/{n}"


def singular_directions(pair, ramification: int) -> tuple:
    """Sorted directions in [0, 2*pi) supported by one eigenvalue pair on a
    ``ramification``-sheeted cover (the twist's ``ramification_index``).

    ``pair`` is a model.EigenvaluePairSpec (duck-typed here to avoid an
    import cycle): it provides level_l and arg_offset.
    """
    period = Fraction(ramification, pair.level_l)
    base = period * (pair.arg_offset.turns - Fraction(1, 2))
    t = base % period
    out = []
    while t < 2:
        out.append(RationalAngle(t))
        t += period
    return tuple(sorted(out))


# --------------------------------------------------------------------------
# 3x3 symbolic matrices
# --------------------------------------------------------------------------


_ZERO, _ONE = LaurentPoly.zero(), LaurentPoly.constant(1)


def _dot(row, col) -> LaurentPoly:
    """Sum of row[k] * col[k], added in turn, skipping the products with a
    zero factor: adding an empty polynomial leaves the sum's terms and their
    order unchanged, and the first product is the sum of itself and zero."""
    total = None
    for a, b in zip(row, col):
        if a.terms and b.terms:
            total = a * b if total is None else total + a * b
    return _ZERO if total is None else total


class SymMat3:
    """Immutable 3x3 matrix of LaurentPoly entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[LaurentPoly]]):
        rr = tuple(tuple(row) for row in rows)
        if len(rr) != 3 or any(len(row) != 3 for row in rr):
            raise ValueError("SymMat3 needs 3x3 entries")
        self.rows = rr

    @classmethod
    def identity(cls) -> "SymMat3":
        return cls([[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, _ZERO], [_ZERO, _ZERO, _ONE]])

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based entry access, matching the written matrix displays."""
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "SymMat3") -> "SymMat3":
        """The product.  A unit row of self (the shared one at i, zeros
        elsewhere) takes other's row i as it is, whose entries have the terms
        that ``_dot`` would give: 1*b and 0 + b have b's terms.  The rows are
        3-tuples of entries, so the product skips ``__init__``'s check."""
        rows = other.rows
        c0, c1, c2 = zip(*rows)
        product = object.__new__(SymMat3)
        product.rows = tuple([rows[i]
                              if row[i] is _ONE and not (row[i - 1].terms or row[i - 2].terms)
                              else (_dot(row, c0), _dot(row, c1), _dot(row, c2))
                              for i, row in enumerate(self.rows)])
        return product

    def product_trace(self, other: "SymMat3") -> LaurentPoly:
        """Tr(self * other) from the product's diagonal alone, each entry and
        the sum formed as ``__mul__`` and ``trace`` form them."""
        d0, d1, d2 = (_dot(row, col) for row, col in zip(self.rows, zip(*other.rows)))
        return d0 + d1 + d2

    def __eq__(self, other):
        return isinstance(other, SymMat3) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def trace(self) -> LaurentPoly:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> LaurentPoly:
        a = self.rows
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    def adjugate(self) -> "SymMat3":
        a = self.rows

        def minor(i, j):
            ri = [k for k in range(3) if k != i]
            rj = [k for k in range(3) if k != j]
            return (a[ri[0]][rj[0]] * a[ri[1]][rj[1]]
                    - a[ri[0]][rj[1]] * a[ri[1]][rj[0]])

        return SymMat3(
            [[minor(j, i) if (i + j) % 2 == 0 else -minor(j, i)
              for j in range(3)] for i in range(3)]
        )

    def inverse(self, det: LaurentPoly) -> "SymMat3":
        """Inverse via the adjugate, given ``det``, an invertible term."""
        inv = det.inverse_term()
        adj = self.adjugate()
        return SymMat3([[inv * e for e in row] for row in adj.rows])

    def substitute(self, bindings) -> "SymMat3":
        return SymMat3([[e.substitute(bindings) for e in row] for row in self.rows])

    def __repr__(self):
        return f"SymMat3({[[str(e) for e in row] for row in self.rows]})"


# --------------------------------------------------------------------------
# matrix factories
# --------------------------------------------------------------------------


def stokes_matrix(layout) -> SymMat3:
    """Identity plus the scheduled strictly off-diagonal fresh variables."""
    rows = [[_ONE if i == j else _ZERO for j in range(3)] for i in range(3)]
    for row, col, name in layout.entries:
        rows[row - 1][col - 1] = LaurentPoly.variable(name)
    return SymMat3(rows)


def formal_monodromy(kind: int) -> SymMat3:
    """The three formal monodromies, indexed by the twist class's
    ramification index (``TwistClass.ramification_index``).

    kind 1 (untwisted): diag(alpha, beta, gamma); det 1 once alphabetagamma = 1
    is imposed by the gamma rewrite.
    kind 2 (minimally twisted): swaps the two ramified directions with a
    -alpha^-1 twist, alpha on the untouched one.
    kind 3 (maximally twisted): the cyclic permutation matrix.
    """
    P = LaurentPoly
    zero, one = _ZERO, _ONE
    if kind == 1:
        return SymMat3([[P.variable("alpha"), zero, zero],
                        [zero, P.variable("beta"), zero],
                        [zero, zero, P.variable("gamma")]])
    if kind == 2:
        return SymMat3([[zero, -P.variable("alpha", -1), zero],
                        [one, zero, zero],
                        [zero, zero, P.variable("alpha")]])
    if kind == 3:
        return SymMat3([[zero, zero, one],
                        [one, zero, zero],
                        [zero, one, zero]])
    raise ValueError(f"unknown formal monodromy kind {kind!r}")
