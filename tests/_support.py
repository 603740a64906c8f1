"""Helpers shared by the test modules; pytest collects nothing here."""

import dataclasses

from wildcv import cli, model, pipeline
from wildcv.model import case_spec
from wildcv.monodromy import (closure_equations, monodromy_factors,
                              topological_monodromy)
from wildcv.stokes import formal_monodromy, stokes_matrix


def case_factors(spec):
    """(L, R) of the case's monodromy, built from its schedule and twist."""
    return monodromy_factors(spec, [stokes_matrix(l) for l in spec.schedule],
                             formal_monodromy(spec.twist.ramification_index))


def case_closure(spec):
    """The case's closure system, from its topological monodromy."""
    left, right = factors = case_factors(spec)
    return closure_equations(spec, topological_monodromy(factors), factors, right.det())


def use_spec(monkeypatch, spec):
    """Make ``derive_case`` and the CLI read ``spec`` for its case.  The spec
    passes through the same check as the shipped data, and ``case_spec``'s
    cache is left untouched."""
    monkeypatch.setitem(model._BUILDERS, spec.name, lambda: spec)
    uncached = model.case_spec.__wrapped__
    monkeypatch.setattr(pipeline, "case_spec", uncached)
    monkeypatch.setattr(cli, "case_spec", uncached)


def patch_expected(monkeypatch, name, **coefficients):
    """Make ``derive_case`` read the case with these expected coefficients."""
    spec = case_spec(name)
    use_spec(monkeypatch, dataclasses.replace(
        spec, expected=dataclasses.replace(spec.expected, **coefficients)))
