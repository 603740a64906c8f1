"""Serialization of case reports and case specs: JSON, text and LaTeX.

``report_to_dict`` is the one walk of a ``CaseReport``; its layout is stable
and documented in the README.  Text and LaTeX are two renderings of that
dict: they read only its keys.  LaTeX maps the canonical polynomial grammar
token by token, so term order and signs are those of ``format_poly``.  The
symbolic part of a report is byte-deterministic, which is what the golden
files pin down.
"""

from __future__ import annotations

import re

from .model import CaseSpec
from .pipeline import CaseReport
from .polyring import LaurentPoly
from .stokes import SymMat3


def _mat(m: SymMat3) -> list:
    return [[str(e) for e in row] for row in m.rows]


def _pairs(values) -> list:
    return [[name, str(poly)] for name, poly in values]


def _cov_steps(steps) -> list:
    out = []
    for step in steps:
        if step.kind == "subst":
            out.append({"substitute": {nm: str(poly) for nm, poly in step.mapping}})
        else:
            out.append({"divide_by": str(step.term)})
    return out


def _schedule(spec: CaseSpec) -> list:
    return [{"phi": str(layout.direction),
             "entries": [[r, c, nm] for r, c, nm in layout.entries]}
            for layout in spec.schedule]


def report_to_dict(report: CaseReport) -> dict:
    spec = report.spec
    conventions = [f"{v.name} = {p}" for v, p in spec.parameter_normalization.items()]
    cubic = {k: str(v) for k, v in report.cubic.coefficients().items()}
    cubic["equation"] = f"{report.cubic.reconstruct()} = 0"
    out = {
        "case": report.name,
        "parameter_conventions": conventions,
        "directions": _schedule(spec),
        "stokes_matrices": [_mat(m) for m in report.stokes_matrices],
        "formal_monodromy": _mat(report.formal_monodromy),
        "topological_monodromy": _mat(report.topological_monodromy),
        "closure_system": [
            {"equation": str(eq), "provenance": tag}
            for eq, tag in zip(report.closure.equations, report.closure.provenance)
        ],
        "back_substitutions": (_pairs(report.closure.back_subs)
                               if report.closure.back_subs is not None else None),
        "dropped_entry": ({"entry": list(spec.drop_entry),
                           "equation": str(report.closure.dropped)}
                          if report.closure.dropped is not None else None),
        "normalized_system": [str(eq) for eq in report.normalized_equations],
        "eliminated": _pairs(report.eliminated),
        "residual": str(report.residual),
        "change_of_variables": _cov_steps(spec.cov_steps),
        "cubic": cubic,
        "verification": {
            "determinant_is_one": report.det_is_one,
            "expected": {
                "mode": report.expected.mode,
                "matched": report.expected.matched,
                "mismatches": list(report.expected.mismatches),
            },
            "oracle": None if report.oracle is None else {
                "seed": report.oracle.seed,
                "trials": report.oracle.trials,
                "max_residual": report.oracle.max_residual,
                "max_dropped_residual": report.oracle.max_dropped_residual,
                "resamples": report.oracle.resamples,
                "tolerance": report.oracle.tolerance,
                "passed": report.oracle.passed,
            },
            "passed": report.passed,
        },
    }
    return out


def spec_to_dict(spec: CaseSpec) -> dict:
    return {
        "name": spec.name,
        "twist": spec.twist.value,
        "divisor": spec.divisor,
        "formal_monodromy": f"H{spec.twist.ramification_index}",
        "closure": {"kind": spec.closure.kind,
                    "trace_symbols": list(spec.closure.trace_symbols)},
        "eigenvalue_pairs": [
            {"pair": list(p.label), "level": p.level_l,
             "ramification": spec.twist.ramification_index,
             "arg_offset": str(p.arg_offset)}
            for p in spec.pair_specs
        ],
        "schedule": _schedule(spec),
        "generators": {nm: str(LaurentPoly.term(1, mono))
                       for nm, mono in spec.generator_defs},
        "tautological_relation": str(spec.tautological),
        "uses_invariant_rewrite": spec.use_invariant_rewrite,
        "parameter_normalization": {v.name: str(p)
                                    for v, p in spec.parameter_normalization.items()},
        "split_index": spec.split_index,
        "back_substitution_plan": [[list(entry), nm]
                                   for entry, nm in spec.back_sub_plan],
        "dropped_entry": list(spec.drop_entry) if spec.drop_entry else None,
        "residual_entries": [[list(entry), str(scale)]
                             for entry, scale in spec.residual_entries],
        "elimination_plan": [[idx, nm] for idx, nm in spec.elimination_plan],
        "residual_scale": str(spec.residual_scale),
        "change_of_variables": _cov_steps(spec.cov_steps),
        "expected_cubic": {k: None if v is None else str(v)
                           for k, v in spec.expected.coefficients().items()},
        "xyz_map": {nm: str(poly) for nm, poly in spec.xyz_map},
        "solve_targets": list(spec.solve_targets),
    }


# --------------------------------------------------------------------------
# text
# --------------------------------------------------------------------------


def report_to_text(report: CaseReport) -> str:
    d = report_to_dict(report)
    lines = [f"== {d['case']} =="]
    for convention in d["parameter_conventions"]:
        lines.append(f"convention: {convention}")
    lines.append("")
    lines.append("Stokes directions and entries:")
    for k, layout in enumerate(d["directions"], start=1):
        entries = ", ".join(f"({r},{c})={nm}" for r, c, nm in layout["entries"])
        lines.append(f"  S{k} at phi = {layout['phi']}: {entries}")
    lines.append("")
    lines.append("Topological monodromy M = H * S_m...S_1:")
    width = max(len(c) for row in d["topological_monodromy"] for c in row)
    for row in d["topological_monodromy"]:
        lines.append("  [ " + "  ".join(c.ljust(width) for c in row) + " ]")
    lines.append("")
    lines.append("Closure system (each = 0):")
    for eq in d["closure_system"]:
        lines.append(f"  [{eq['provenance']}] {eq['equation']}")
    if d["back_substitutions"] is not None:
        lines.append("")
        lines.append("Back substitutions:")
        for nm, poly in d["back_substitutions"]:
            lines.append(f"  {nm} = {poly}")
        di, dj = d["dropped_entry"]["entry"]
        lines.append(f"  dropped redundant entry ({di},{dj})")
    lines.append("")
    lines.append("Eliminated variables:")
    for nm, poly in d["eliminated"]:
        lines.append(f"  {nm} = {poly}")
    lines.append("")
    lines.append(f"Residual equation: {d['residual']} = 0")
    lines.append("")
    lines.append("Change of variables:")
    for step in d["change_of_variables"]:
        if "substitute" in step:
            parts = ", ".join(f"{nm} = {poly}" for nm, poly in step["substitute"].items())
            lines.append(f"  substitute {parts}")
        else:
            lines.append(f"  divide by {step['divide_by']}")
    lines.append("")
    lines.append(f"Cubic surface: {d['cubic']['equation']}")
    for key, val in d["cubic"].items():
        if key != "equation":
            lines.append(f"  {key} = {val}")
    lines.append("")
    ver = d["verification"]
    parts = ["determinant=1" if ver["determinant_is_one"] else "determinant!=1",
             f"expected[{ver['expected']['mode']}]="
             + ("match" if ver["expected"]["matched"] else "MISMATCH")]
    oracle = ver["oracle"]
    if oracle is not None:
        parts.append(f"oracle max|res|={oracle['max_residual']:.3e}"
                     f" (tol {oracle['tolerance']:.0e},"
                     f" seed {oracle['seed']}, trials {oracle['trials']})")
    status = "PASS" if ver["passed"] else "FAIL"
    lines.append(f"Verification: {'; '.join(parts)} -> {status}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# LaTeX
# --------------------------------------------------------------------------

_LATEX_NAMES = {"alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma"}

# one alternative per token of the text grammar that LaTeX spells otherwise
_LATEX_TOKEN = re.compile(r"\b(" + "|".join(_LATEX_NAMES) + r")\b"
                          r"|\bx(\d+)|\^(-?\d+)|(\d+)/(\d+)|\*")


def _latex_token(m: re.Match) -> str:
    name, index, exp, num, den = m.groups()
    if name:
        return _LATEX_NAMES[name]
    if index:
        return f"x_{{{index}}}"
    if exp:
        return f"^{{{exp}}}"
    if num:
        return rf"\tfrac{{{num}}}{{{den}}}"
    return " "


def poly_to_latex(text: str) -> str:
    """LaTeX for a polynomial (or ``name = poly``) in the canonical text
    grammar; term order and signs are kept as ``format_poly`` wrote them."""
    return _LATEX_TOKEN.sub(_latex_token, text)


def _matrix_to_latex(cells: list) -> str:
    rows = [" & ".join(poly_to_latex(e) for e in row) for row in cells]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"


def report_to_latex(report: CaseReport) -> str:
    d = report_to_dict(report)
    out = [rf"\section*{{{d['case']}}}"]
    if d["parameter_conventions"]:
        conv = ",\\quad ".join(poly_to_latex(c) for c in d["parameter_conventions"])
        out.append(rf"Conventions: ${conv}$.")
    out.append(r"\subsection*{Stokes matrices}")
    for k, (layout, mat) in enumerate(zip(d["directions"], d["stokes_matrices"]), 1):
        phi = layout["phi"].replace("pi", r"\pi").replace("*", " ")
        out.append(rf"\[ S_{{{k}}} \;(\varphi = {phi}) = "
                   + _matrix_to_latex(mat) + r" \]")
    out.append(r"\subsection*{Topological monodromy}")
    out.append(r"\[ M_\infty = " + _matrix_to_latex(d["topological_monodromy"]) + r" \]")
    out.append(r"\subsection*{Closure system}")
    out.append(r"\begin{align*}")
    out.append(" \\\\\n".join(poly_to_latex(eq["equation"]) + " &= 0"
                              for eq in d["closure_system"]))
    out.append(r"\end{align*}")
    out.append(r"\subsection*{Residual equation}")
    out.append(r"\[ " + poly_to_latex(d["residual"]) + r" = 0 \]")
    out.append(r"\subsection*{Cubic surface}")
    out.append(r"\[ " + poly_to_latex(d["cubic"]["equation"]) + r" \]")
    return "\n".join(out) + "\n"
