"""Helpers shared by the test modules; pytest collects nothing here."""

import signal
from contextlib import contextmanager

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


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` of wall time have
    passed, so that a run that never ends fails its test instead of stalling
    the suite.  It uses SIGALRM, so it works in the main thread only."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    use_spec(monkeypatch, spec.replace(expected=spec.expected.replace(**coefficients)))


def term_walk(poly, values):
    """poly at ``values``, walked term by term in insertion order, each term
    ``complex(coef)`` times ``values[v] ** k`` for its powers in registry
    order: the reference that every compiled evaluation is compared with."""
    want = 0j
    for mono, coef in poly.terms.items():
        prod = complex(coef)
        for v, k in mono.exps:
            prod *= values[v] ** k
        want += prod
    return want
