"""Serialization of case reports and case specs: JSON, text and LaTeX.

The JSON layout is stable and documented in the README; the symbolic part of
a report is byte-deterministic, which is what the golden files pin down.
"""

from __future__ import annotations

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


def report_to_dict(report: CaseReport) -> dict:
    spec = report.spec
    conventions = [f"{nm} = {poly}" for nm, poly in spec.parameter_normalization]
    cubic = {k: str(v) for k, v in report.cubic.coefficients().items()}
    cubic["equation"] = f"{report.cubic.reconstruct()} = 0"
    out = {
        "case": report.name,
        "parameter_conventions": conventions,
        "directions": [
            {"phi": str(layout.direction),
             "entries": [[r, c, nm] for r, c, nm in layout.entries]}
            for layout in spec.schedule
        ],
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
        "schedule": [
            {"phi": str(layout.direction),
             "entries": [[r, c, nm] for r, c, nm in layout.entries]}
            for layout in spec.schedule
        ],
        "generators": {nm: str(LaurentPoly.term(1, mono))
                       for nm, mono in spec.generator_defs},
        "tautological_relation": str(spec.tautological),
        "uses_invariant_rewrite": spec.use_invariant_rewrite,
        "parameter_normalization": {nm: str(p)
                                    for nm, p in spec.parameter_normalization},
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
    }


# --------------------------------------------------------------------------
# text
# --------------------------------------------------------------------------


def report_to_text(report: CaseReport) -> str:
    spec = report.spec
    lines = [f"== {report.name} =="]
    for nm, poly in spec.parameter_normalization:
        lines.append(f"convention: {nm} = {poly}")
    lines.append("")
    lines.append("Stokes directions and entries:")
    for k, layout in enumerate(spec.schedule, start=1):
        entries = ", ".join(f"({r},{c})={nm}" for r, c, nm in layout.entries)
        lines.append(f"  S{k} at phi = {layout.direction}: {entries}")
    lines.append("")
    lines.append("Topological monodromy M = H * S_m...S_1:")
    lines.extend("  " + row for row in str(report.topological_monodromy).splitlines())
    lines.append("")
    lines.append("Closure system (each = 0):")
    for eq, tag in zip(report.closure.equations, report.closure.provenance):
        lines.append(f"  [{tag}] {eq}")
    if report.closure.back_subs is not None:
        lines.append("")
        lines.append("Back substitutions:")
        for nm, poly in report.closure.back_subs:
            lines.append(f"  {nm} = {poly}")
        di, dj = spec.drop_entry
        lines.append(f"  dropped redundant entry ({di},{dj})")
    lines.append("")
    lines.append("Eliminated variables:")
    for nm, poly in report.eliminated:
        lines.append(f"  {nm} = {poly}")
    lines.append("")
    lines.append(f"Residual equation: {report.residual} = 0")
    lines.append("")
    lines.append("Change of variables:")
    for step in spec.cov_steps:
        if step.kind == "subst":
            parts = ", ".join(f"{nm} = {poly}" for nm, poly in step.mapping)
            lines.append(f"  substitute {parts}")
        else:
            lines.append(f"  divide by {step.term}")
    lines.append("")
    lines.append(f"Cubic surface: {report.cubic.reconstruct()} = 0")
    for key, val in report.cubic.coefficients().items():
        lines.append(f"  {key} = {val}")
    lines.append("")
    ver = ["determinant=1" if report.det_is_one else "determinant!=1",
           f"expected[{report.expected.mode}]="
           + ("match" if report.expected.matched else "MISMATCH")]
    if report.oracle is not None:
        ver.append(f"oracle max|res|={report.oracle.max_residual:.3e}"
                   f" (tol {report.oracle.tolerance:.0e},"
                   f" seed {report.oracle.seed}, trials {report.oracle.trials})")
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"Verification: {'; '.join(ver)} -> {status}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# LaTeX
# --------------------------------------------------------------------------

_LATEX_NAMES = {"alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma",
                "lam": r"\lambda", "mu": r"\mu", "e": r"\varepsilon",
                "Yp": "Y'"}


def _latex_var(name: str, exp: int) -> str:
    base = _LATEX_NAMES.get(name)
    if base is None:
        if name[0] == "x" and name[1:].isdigit():
            base = f"x_{{{name[1:]}}}"
        else:
            base = name
    return base if exp == 1 else f"{base}^{{{exp}}}"


def poly_to_latex(poly: LaurentPoly) -> str:
    items = poly.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for i, (mono, coef) in enumerate(items):
        neg = coef < 0
        mag = -coef if neg else coef
        body = " ".join(_latex_var(v.name, k) for v, k in mono.exps)
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


def _matrix_to_latex(m: SymMat3) -> str:
    rows = [" & ".join(poly_to_latex(e) for e in row) for row in m.rows]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"


def report_to_latex(report: CaseReport) -> str:
    spec = report.spec
    out = [rf"\section*{{{report.name}}}"]
    if spec.parameter_normalization:
        conv = ",\\quad ".join(
            f"{_LATEX_NAMES.get(nm, nm)} = {poly_to_latex(poly)}"
            for nm, poly in spec.parameter_normalization)
        out.append(rf"Conventions: ${conv}$.")
    out.append(r"\subsection*{Stokes matrices}")
    for k, (layout, mat) in enumerate(zip(spec.schedule, report.stokes_matrices), 1):
        phi = str(layout.direction).replace("pi", r"\pi").replace("*", " ")
        out.append(rf"\[ S_{{{k}}} \;(\varphi = {phi}) = "
                   + _matrix_to_latex(mat) + r" \]")
    out.append(r"\subsection*{Topological monodromy}")
    out.append(r"\[ M_\infty = " + _matrix_to_latex(report.topological_monodromy) + r" \]")
    out.append(r"\subsection*{Closure system}")
    out.append(r"\begin{align*}")
    out.append(" \\\\\n".join(poly_to_latex(eq) + " &= 0"
                              for eq in report.closure.equations))
    out.append(r"\end{align*}")
    out.append(r"\subsection*{Residual equation}")
    out.append(r"\[ " + poly_to_latex(report.residual) + r" = 0 \]")
    out.append(r"\subsection*{Cubic surface}")
    out.append(r"\[ " + poly_to_latex(report.cubic.reconstruct()) + r" = 0 \]")
    return "\n".join(out) + "\n"
