"""Report rendering: text and LaTeX are renderings of ``report_to_dict``."""

import json
import random
from fractions import Fraction

from wildcv import report as report_module
from wildcv.model import CASE_NAMES
from wildcv.pipeline import derive_case
from wildcv.polyring import LaurentPoly, Monomial, format_poly, var_id
from wildcv.report import poly_to_latex, report_to_latex, report_to_text

# wider than test_polyring's small set: two-digit indices, X, Yp and names
# that the LaTeX map must leave alone
_LATEX_VARS = ("x1", "x2", "x10", "x12", "X", "Yp", "p", "alpha", "beta",
               "gamma", "e")
_GREEK = {"alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma"}


def _reference_var(name, exp):
    base = _GREEK.get(name)
    if base is None:
        if name[0] == "x" and name[1:].isdigit():
            base = f"x_{{{name[1:]}}}"
        else:
            base = name
    return base if exp == 1 else f"{base}^{{{exp}}}"


def _reference_latex(poly):
    """An independent term walk over ``sorted_terms``: coefficient magnitude
    first, then the variables, with the sign placed between terms."""
    items = poly.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for i, (mono, coef) in enumerate(items):
        neg = coef < 0
        mag = -coef if neg else coef
        body = " ".join(_reference_var(v.name, k) for v, k in mono.exps)
        if mono.exps and mag == 1:
            text = body
        else:
            c = (str(mag) if mag.denominator == 1
                 else rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}")
            text = f"{c} {body}".strip()
        if i == 0:
            pieces.append(("-" if neg else "") + text)
        else:
            pieces.append((" - " if neg else " + ") + text)
    return "".join(pieces)


def _random_poly(rng):
    poly = LaurentPoly.zero()
    for _ in range(rng.randint(0, 6)):
        coef = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        mono = {}
        for name in rng.sample(_LATEX_VARS, rng.randint(0, 4)):
            vid = var_id(name)
            exp = rng.randint(-2 if vid.unit else 1, 3)
            if exp:
                mono[vid] = exp
        poly = poly + LaurentPoly.term(coef, Monomial(mono.items()))
    return poly


def test_poly_to_latex_matches_a_term_walk_on_1000_random_polynomials():
    rng = random.Random(1312)
    seen = set()
    for _ in range(1000):
        poly = _random_poly(rng)
        text = format_poly(poly)
        want = _reference_latex(poly)
        assert poly_to_latex(text) == want, text
        name = rng.choice(_LATEX_VARS)
        assert poly_to_latex(f"{name} = {text}") == f"{_reference_var(name, 1)} = {want}"
        seen.update(feature for feature, present in (
            ("zero", poly.is_zero()),
            ("fraction", "/" in text),
            ("negative", "-" in text.replace("^-", "")),
            ("unit inverse", "^-1" in text),
            ("two-digit index", "x10" in text or "x12" in text),
            ("X", "X" in text),
            ("Yp", "Yp" in text),
        ) if present)
    assert len(seen) == 7, seen


def test_text_and_latex_render_only_the_dict(monkeypatch):
    reports = [derive_case(name, trials=5, seed=3) for name in CASE_NAMES]
    expected = [(report_to_text(rep), report_to_latex(rep)) for rep in reports]
    real = report_module.report_to_dict
    calls = []

    def json_copy(report):
        calls.append(report.name)
        return json.loads(json.dumps(real(report)))

    monkeypatch.setattr(report_module, "report_to_dict", json_copy)
    for rep, (text, latex) in zip(reports, expected):
        assert report_to_text(rep) == text
        assert report_to_latex(rep) == latex
        assert calls == [rep.name, rep.name]
        calls.clear()
