"""Stokes directions, Stokes matrices and formal monodromies.

Directions are exact rational multiples of pi.  For an eigenvalue-difference
with leading level ``l`` on an ``N``-sheeted cover and argument offset ``o``
(an exact rational angle), the singular directions are the solutions of

    o - (l/N) * phi  =  pi/2   (mod pi)

normalized into [0, 2*pi).  Matrices are 3x3 over the exact polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .polyring import LaurentPoly


# --------------------------------------------------------------------------
# exact angles
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class RationalAngle:
    """An angle t*pi with t rational, reduced and normalized into [0, 2)."""

    turns: Fraction  # multiple of pi

    @staticmethod
    def of(numerator: int | Fraction, denominator: int = 1) -> "RationalAngle":
        return RationalAngle(Fraction(numerator, denominator) % 2)

    def __post_init__(self):
        if not 0 <= self.turns < 2:
            raise ValueError(f"angle not normalized: {self.turns}*pi")

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


def _dot(row, col) -> LaurentPoly:
    """Sum of row[k] * col[k], skipping the products with a zero factor: adding
    an empty polynomial leaves the sum's terms and their order unchanged."""
    return sum((a * b for a, b in zip(row, col) if not (a.is_zero() or b.is_zero())),
               LaurentPoly.zero())


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
        one, zero = LaurentPoly.constant(1), LaurentPoly.zero()
        return cls([[one, zero, zero], [zero, one, zero], [zero, zero, one]])

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based entry access, matching the written matrix displays."""
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "SymMat3") -> "SymMat3":
        cols = tuple(zip(*other.rows))
        return SymMat3([[_dot(row, col) for col in cols] for row in self.rows])

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
    rows = [[LaurentPoly.constant(1 if i == j else 0) for j in range(3)]
            for i in range(3)]
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
    zero, one = P.zero(), P.constant(1)
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
