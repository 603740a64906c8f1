"""Workload-independent per-layer measurements for the traced run.

* size counters read from the report objects of two separate derivations
  (they must agree exactly);
* ``polyring`` replays: ``*``, ``substitute`` and ``evaluate`` timed on the
  operands recorded from the six real derivations and one oracle pass;
* cold ``case_spec``, ``validate_spec``, report serialization and the import
  time of ``wildcv.cli`` in a fresh interpreter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import Calibrated
from workloads import HERE, ROOT, child_env

REPEATS = 7
REPLAY_ORACLE_TRIALS = 10


def _median_ms(fn, repeats=REPEATS) -> float:
    """Median calibrated time of fn(), in milliseconds."""
    times = []
    cal = Calibrated()
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        times.append(dt * 1e3 * cal.scale())
    return statistics.median(times)


# --------------------------------------------------------------------------
# sizes
# --------------------------------------------------------------------------


def _size(polys) -> tuple:
    """(terms, max total degree, max coefficient bit-height) over polys."""
    terms, degree, bits = 0, 0, 0
    for poly in polys:
        terms += len(poly.terms)
        for mono, coef in poly.terms.items():
            degree = max(degree, mono.total_degree())
            bits = max(bits, coef.numerator.bit_length(), coef.denominator.bit_length())
    return terms, degree, bits


def size_table(report) -> dict:
    """{stage: (terms, max degree, max coefficient bits)} for one report."""
    return {
        "monodromy": _size(e for row in report.topological_monodromy.rows for e in row),
        "closure": _size(report.closure.equations),
        "normalized": _size(report.normalized_equations),
        "eliminated": _size(expr for _, expr in report.eliminated),
        "residual": _size([report.residual]),
        "cubic": _size(report.cubic.coefficients().values()),
    }


def sizes(wildcv, cases) -> tuple:
    """Per-case size tables of two separate derivations, and whether they agree."""
    derive = wildcv.pipeline.derive_case
    first = {c: size_table(derive(c, run_oracle=False)) for c in cases}
    second = {c: size_table(derive(c, run_oracle=False)) for c in cases}
    return first, first == second


def size_metrics(table: dict) -> dict:
    out = {}
    for case, stages in table.items():
        out[f"size.monodromy_terms.{case}"] = stages["monodromy"][0]
        out[f"size.closure_terms.{case}"] = stages["closure"][0]
        out[f"size.residual_terms.{case}"] = stages["residual"][0]
        out[f"size.max_degree.{case}"] = max(s[1] for s in stages.values())
        out[f"size.max_coef_bits.{case}"] = max(s[2] for s in stages.values())
    return out


# --------------------------------------------------------------------------
# polyring replays
# --------------------------------------------------------------------------


def record_operands(wildcv, cases, seed: int) -> dict:
    """Operands of every ``*`` and ``substitute`` in one derivation per case
    and of every ``evaluate`` in one short oracle pass per case."""
    LP = wildcv.polyring.LaurentPoly
    mul, substitute, evaluate = LP.__mul__, LP.substitute, LP.evaluate
    rec = {"mul": [], "substitute": [], "evaluate": []}
    recording = {"mul": False, "substitute": False, "evaluate": False}

    def rec_mul(a, b):
        if recording["mul"]:
            rec["mul"].append((a, b))
        return mul(a, b)

    def rec_substitute(p, bindings):
        if recording["substitute"]:
            rec["substitute"].append((p, dict(bindings)))
        return substitute(p, bindings)

    def rec_evaluate(p, values):
        if recording["evaluate"]:
            rec["evaluate"].append((p, dict(values)))   # the trial mutates values
        return evaluate(p, values)

    patched = [(k, v) for k, v in vars(LP).items() if v in (mul, substitute, evaluate)]
    replacement = {mul: rec_mul, substitute: rec_substitute, evaluate: rec_evaluate}
    for key, fn in patched:
        setattr(LP, key, replacement[fn])
    try:
        for case in cases:
            recording.update(mul=True, substitute=True)
            report = wildcv.pipeline.derive_case(case, run_oracle=False)
            recording.update(mul=False, substitute=False, evaluate=True)
            wildcv.pipeline.oracle_verify(report, trials=REPLAY_ORACLE_TRIALS, seed=seed)
            recording["evaluate"] = False
    finally:
        for key, fn in patched:
            setattr(LP, key, fn)
    return rec


def replay(ops: dict) -> dict:
    """Median over REPEATS passes of the per-call time, in microseconds."""
    runners = {
        "mul": lambda: [a * b for a, b in ops["mul"]],
        "substitute": lambda: [p.substitute(b) for p, b in ops["substitute"]],
        "evaluate": lambda: [p.evaluate(v) for p, v in ops["evaluate"]],
    }
    return {f"polyring.replay.{k}_us": _median_ms(fn) * 1e3 / max(1, len(ops[k]))
            for k, fn in runners.items()}


# --------------------------------------------------------------------------
# model, report and cli probes
# --------------------------------------------------------------------------


def import_ms(repeats=5) -> float:
    """Median calibrated import time of ``wildcv.cli`` in a fresh interpreter."""
    times = []
    cal = Calibrated()
    for _ in range(repeats):
        out = subprocess.run([sys.executable, str(HERE / "child.py"), "import"],
                             cwd=ROOT, env=child_env(), timeout=60, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out.strip().splitlines()[-1]) * cal.scale())
    return statistics.median(times)


def layer_probes(wildcv, cases, seed: int) -> dict:
    model, report = wildcv.model, wildcv.report
    cold_case_spec = getattr(model.case_spec, "__wrapped__", model.case_spec)
    specs = [model.case_spec(c) for c in cases]
    reports = [wildcv.pipeline.derive_case(c, seed=seed) for c in cases]
    return {
        "model.case_spec_ms": _median_ms(lambda: [cold_case_spec(c) for c in cases]),
        "model.validate_spec_ms": _median_ms(lambda: [model.validate_spec(s) for s in specs]),
        "report.to_dict_ms": _median_ms(lambda: [report.report_to_dict(r) for r in reports]),
        "report.to_text_ms": _median_ms(lambda: [report.report_to_text(r) for r in reports]),
        "cli.import_ms": import_ms(),
    }
