"""Directions, Stokes matrices, formal monodromies."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wildcv.model import CASE_NAMES, StokesEntryLayout, case_spec
from wildcv.polyring import LaurentPoly, parse
from wildcv.stokes import (_ONE, _ZERO, RationalAngle, SymMat3, formal_monodromy,
                           singular_directions, stokes_matrix)

P = parse


def _angles(*fracs):
    return {RationalAngle.of(Fraction(*f)) for f in fracs}


def _union(spec):
    out = set()
    for pair in spec.pair_specs:
        out.update(singular_directions(pair, spec.twist.ramification_index))
    return out


# --------------------------------------------------------------------------
# angles
# --------------------------------------------------------------------------


def test_rational_angle_normalization_and_order():
    assert RationalAngle.of(7, 3).turns == Fraction(1, 3)
    assert RationalAngle.of(2).turns == 0
    assert RationalAngle.of(1, 2) < RationalAngle.of(1, 1)
    assert str(RationalAngle.of(1, 3)) == "pi/3"
    assert str(RationalAngle.of(3, 2)) == "3*pi/2"
    assert str(RationalAngle.of(1)) == "pi"
    assert str(RationalAngle.of(0)) == "0"


def test_shipped_angle_denominators_stay_small():
    for name in CASE_NAMES:
        for layout in case_spec(name).schedule:
            assert layout.direction.turns.denominator <= 30


# --------------------------------------------------------------------------
# per-case direction tables
# --------------------------------------------------------------------------


def test_jktvi_pair_and_union():
    spec = case_spec("JKTVI")
    first = singular_directions(spec.pair_specs[0], 1)
    assert set(first) == _angles((1, 3), (4, 3))
    assert _union(spec) == _angles((0, 1), (1, 3), (2, 3), (1, 1), (4, 3), (5, 3))


def test_jktv_pairs():
    spec = case_spec("JKTV")
    by_label = {p.label: p for p in spec.pair_specs}
    assert set(singular_directions(by_label[(0, 1)], 2)) == _angles((1, 1))
    assert set(singular_directions(by_label[(2, 0)], 2)) == _angles((1, 2), (3, 2))
    assert set(singular_directions(by_label[(0, 2)], 2)) == _angles((1, 2), (3, 2))
    assert _union(spec) == _angles((1, 2), (1, 1), (3, 2))


def test_jktiva_union_is_quarter_turns():
    assert _union(case_spec("JKTIVa")) == _angles((1, 2), (1, 1), (3, 2), (0, 1))


def test_jktii_union():
    assert _union(case_spec("JKTII")) == _angles(
        (1, 4), (1, 3), (3, 4), (1, 1), (5, 4), (5, 3), (7, 4))


def test_direction_count_matches_schedule_length():
    expected = {"JKTVI": 6, "JKTV": 3, "JKTIVa": 4,
                "JKTIVb": 12, "JKTII": 7, "JKTI": 10}
    for name in CASE_NAMES:
        spec = case_spec(name)
        assert len(_union(spec)) == expected[name] == len(spec.schedule)


def test_opposite_pairing_untwisted_holds_twisted_fails():
    # every pair of the untwisted cases supports phi and phi+pi together
    for name in ("JKTVI", "JKTIVb"):
        for pair in case_spec(name).pair_specs:
            dirs = set(singular_directions(pair, 1))
            assert {RationalAngle.of(d.turns + 1) for d in dirs} == dirs
    # the maximally twisted JKTIVa breaks it: {q0-q1} and {q1-q0} coincide
    by_label = {p.label: p for p in case_spec("JKTIVa").pair_specs}
    d01 = set(singular_directions(by_label[(0, 1)], 3))
    d10 = set(singular_directions(by_label[(1, 0)], 3))
    assert d01 == d10 == _angles((1, 2))
    assert {RationalAngle.of(d.turns + 1) for d in d01} != d01


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


def test_stokes_matrix_single_entry():
    layout = StokesEntryLayout(RationalAngle.of(1, 3), ((1, 2, "x1"),))
    m = stokes_matrix(layout)
    assert m.entry(1, 2) == P("x1")
    assert m.det() == P("1")


def test_stokes_matrix_two_entry_and_empty():
    layout = StokesEntryLayout(RationalAngle.of(1, 2), ((1, 3, "x2"), (2, 3, "x3")))
    m = stokes_matrix(layout)
    assert m.entry(1, 3) == P("x2") and m.entry(2, 3) == P("x3")
    empty = StokesEntryLayout(RationalAngle.of(0), ())
    assert stokes_matrix(empty) == SymMat3.identity()


def test_every_scheduled_stokes_matrix_is_unipotent():
    ident = SymMat3.identity()
    for name in CASE_NAMES:
        for layout in case_spec(name).schedule:
            s = stokes_matrix(layout)
            assert s.det() == P("1")
            n = SymMat3([[s.rows[i][j] - ident.rows[i][j] for j in range(3)]
                         for i in range(3)])
            assert (n * n).rows == SymMat3([[P("0")] * 3] * 3).rows


_ENTRIES = st.sampled_from(["x1", "x2 + 1", "-1/2*alpha^-1", "x1*x3 - x4 + 2",
                             "3", "1"]).map(P)


@st.composite
def _rows(draw, i):
    """Row i: a unit row (the shared one at i, zeros elsewhere), the same with
    a distinct constant-1 object, or with one more entry off the diagonal,
    or any entries; zeros are the shared or fresh ones."""
    zero = draw(st.sampled_from([_ZERO, LaurentPoly.zero()]))
    kind = draw(st.sampled_from(["unit", "distinct one", "unit and one more", "any"]))
    if kind == "any":
        return [draw(_ENTRIES | st.just(zero)) for _ in range(3)]
    row = [zero] * 3
    row[i] = LaurentPoly.constant(1) if kind == "distinct one" else _ONE
    if kind == "unit and one more":
        row[draw(st.sampled_from([j for j in range(3) if j != i]))] = draw(_ENTRIES)
    return row


_MATRICES = st.builds(lambda *rows: SymMat3(rows), _rows(0), _rows(1), _rows(2))


def _dot_reference(row, col):
    """Every product added in turn to zero, zero factors included."""
    total = LaurentPoly.zero()
    for a, b in zip(row, col):
        total = total + a * b
    return total


@given(_MATRICES, _MATRICES)
def test_product_matches_the_dot_reference(a, b):
    """Each entry of a * b has, in the same order and with the same
    coefficient types, the terms of the reference dot product of its row and
    column, whichever rows of a are unit rows."""
    got = a * b
    for i in range(3):
        for j in range(3):
            want = _dot_reference(a.rows[i], [b.rows[k][j] for k in range(3)])
            assert [(m, c, type(c)) for m, c in got.rows[i][j].terms.items()] == \
                [(m, c, type(c)) for m, c in want.terms.items()]


@given(_MATRICES, _MATRICES)
def test_product_is_the_matrix_the_constructor_builds(a, b):
    """a * b, built without ``__init__``, holds its rows as three 3-tuples,
    and equals and hashes as the same entries passed through SymMat3(...)."""
    got = a * b
    assert type(got) is SymMat3 and type(got.rows) is tuple and len(got.rows) == 3
    assert all(type(row) is tuple and len(row) == 3 for row in got.rows)
    built = SymMat3([list(row) for row in got.rows])
    assert got == built and hash(got) == hash(built)


def test_formal_monodromies():
    h1 = formal_monodromy(1)
    assert h1.rows[0][0] == P("alpha") and h1.rows[2][2] == P("gamma")
    from wildcv.polyring import var_id
    assert h1.det().substitute({var_id("gamma"): P("alpha^-1*beta^-1")}) == P("1")
    h2 = formal_monodromy(2)
    assert h2.entry(1, 2) == P("-alpha^-1") and h2.det() == P("1")
    h3 = formal_monodromy(3)
    assert h3.det() == P("1")
    assert h3 * h3 * h3 == SymMat3.identity()
    with pytest.raises(ValueError, match="unknown formal monodromy kind 4"):
        formal_monodromy(4)
    with pytest.raises(ValueError, match="3x3"):
        SymMat3([[P("1")] * 3] * 2)


def test_inverse_via_adjugate():
    m = formal_monodromy(2)
    assert m * m.inverse(m.det()) == SymMat3.identity()
