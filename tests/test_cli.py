"""Command-line behaviour: determinism, formats, exit codes."""

import dataclasses
import errno
import json
import os
from pathlib import Path

import pytest

from wildcv import cli, pipeline
from wildcv.model import CASE_NAMES, CovStep, case_spec, validate_spec
from wildcv.pipeline import DegenerateSampleError, DerivationError
from wildcv.polyring import parse

from _support import patch_expected, use_spec


GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_directions_table_jktivb(capsys):
    code, out = _run(capsys, "directions", "--case", "JKTIVb")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("S")]
    assert len(lines) == 12
    assert lines[0] == "S1: phi = pi/6  [(1,2)=x1]"
    assert lines[2] == "S3: phi = pi/2  [(2,3)=x3]"
    assert lines[-1] == "S12: phi = 0  [(3,2)=x12]"


def test_directions_all_covers_every_case(capsys):
    code, out = _run(capsys, "directions")
    assert code == 0
    for name in CASE_NAMES:
        assert f"== {name} ==" in out


def test_derive_text_contains_final_cubic(capsys):
    code, out = _run(capsys, "derive", "--case", "JKTI", "--format", "text")
    assert code == 0
    assert "X*Y*Z + X + Y + 1 = 0" in out
    assert "Stokes directions" in out


def test_derive_json_is_valid_and_complete(capsys):
    code, out = _run(capsys, "derive", "--case", "JKTII", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for key in ("case", "directions", "stokes_matrices", "closure_system",
                "residual", "cubic", "verification"):
        assert key in doc
    assert doc["case"] == "JKTII"
    assert doc["cubic"]["equation"].endswith("= 0")
    assert doc["verification"]["passed"] is True


def test_derive_latex_has_matrices(capsys):
    code, out = _run(capsys, "derive", "--case", "JKTV", "--format", "latex")
    assert code == 0
    assert r"\begin{pmatrix}" in out
    assert r"\alpha" in out or "r^" in out


def test_output_determinism(capsys):
    _, first = _run(capsys, "derive", "--case", "JKTIVa", "--format", "json",
                    "--seed", "42")
    _, second = _run(capsys, "derive", "--case", "JKTIVa", "--format", "json",
                     "--seed", "42")
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "derive", "--case", "JKTI", "--format", "json",
                     "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["case"] == "JKTI"


def test_verify_all_passes(capsys):
    code, out = _run(capsys, "verify", "--trials", "40", "--seed", "5")
    assert code == 0
    assert "all cases PASS" in out
    for name in CASE_NAMES:
        assert name in out


def test_verify_seed_246776331_passes(capsys):
    """JKTII's float residual is 1.37e-9 at this seed, over the 1e-9
    tolerance; the exact identity settles the case as a PASS."""
    code, out = _run(capsys, "verify", "--seed", "246776331")
    assert code == 0
    assert "all cases PASS" in out


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    real = cli.derive_case

    def broken(name, trials, seed):
        rep = real(name, trials=trials, seed=seed)
        bad = dataclasses.replace(rep.expected, matched=False,
                                  mismatches=("forced mismatch",))
        return dataclasses.replace(rep, expected=bad)

    monkeypatch.setattr(cli, "derive_case", broken)
    code, out = _run(capsys, "verify", "--case", "JKTI", "--trials", "5")
    assert code == 1
    assert "FAIL" in out


def test_verify_prints_a_real_expected_mismatch(capsys, monkeypatch):
    patch_expected(monkeypatch, "JKTI", c3=parse("1"))
    code, out = _run(capsys, "verify", "--case", "JKTI", "--trials", "5")
    assert code == 1
    assert "    JKTI: c3: expected 1, derived 0" in out.splitlines()
    assert "exact:MISMATCH" in out and "FAILED: JKTI" in out


def test_dump_spec(capsys):
    code, out = _run(capsys, "dump-spec", "--case", "JKTV")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "JKTV"
    assert doc["generators"]["W"] == "x1"
    assert doc["tautological_relation"] == "U*V - R*T"
    assert doc["expected_cubic"]["c1"] is None


def test_dump_spec_all_matches_golden(capsys):
    code, out = _run(capsys, "dump-spec", "--case", "all")
    assert code == 0
    assert out == (GOLDEN / "dump_spec_all.json").read_text(encoding="utf-8")


def test_unknown_case_is_usage_error(capsys):
    code, _ = _run(capsys, "derive", "--case", "JKTXX")
    assert code == 2


def test_missing_case_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive"])
    assert exc.value.code == 2


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "31")
    code, out = _run(capsys, "derive", "--case", "JKTI", "--format", "json")
    assert code == 0
    assert json.loads(out)["verification"]["oracle"]["seed"] == 31
    # an explicit flag wins over the environment
    code, out = _run(capsys, "derive", "--case", "JKTI", "--format", "json",
                     "--seed", "7")
    assert json.loads(out)["verification"]["oracle"]["seed"] == 7


def test_derive_all_emits_one_report_per_case(capsys):
    code, out = _run(capsys, "derive", "--case", "all", "--format", "json",
                     "--trials", "10")
    assert code == 0
    docs = json.loads(out)
    assert [d["case"] for d in docs] == list(CASE_NAMES)


def test_json_polynomials_use_the_text_grammar(capsys):
    from wildcv.polyring import parse
    _, out = _run(capsys, "derive", "--case", "JKTVI", "--format", "json")
    doc = json.loads(out)
    for key, val in doc["cubic"].items():
        if key == "equation":
            val = val[: -len(" = 0")]
        assert str(parse(val)) == val
    for item in doc["closure_system"]:
        assert str(parse(item["equation"])) == item["equation"]
    assert str(parse(doc["residual"])) == doc["residual"]
    for row in doc["topological_monodromy"]:
        for cell in row:
            assert str(parse(cell)) == cell


@pytest.mark.parametrize("argv", [
    ("derive", "--case", "JKTI", "--trials", "0"),
    ("derive", "--case", "JKTI", "--trials", "-3"),
    ("verify", "--trials", "0"),
    ("verify", "--trials=-1"),
])
def test_nonpositive_trials_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "abc")
    code = cli.main(["derive", "--case", "JKTI"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: WCV_SEED must be an integer, got 'abc'\n"


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    """--output is checked before any derivation runs, and nothing is created."""
    def never(*args, **kwargs):
        raise AssertionError("derive_case ran before --output was checked")

    monkeypatch.setattr(cli, "derive_case", never)
    missing = tmp_path / "missing" / "report.json"
    for target, code in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
        for argv in (("dump-spec", "--case", "JKTI"), ("derive", "--case", "all"),
                     ("verify",)):
            assert cli.main([*argv, "--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot write {target}: {os.strerror(code)}\n"
    assert list(tmp_path.iterdir()) == []


def _failing_derivation(monkeypatch):
    def failing(*args, **kwargs):
        raise DerivationError("[eliminate] degree in x5 is 2, need exactly 1")

    monkeypatch.setattr(cli, "derive_case", failing)
    return "JKTI"


def _degenerate_trials(monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateSampleError("singular 2x2 solve")

    monkeypatch.setattr(pipeline, "_oracle_trial", degenerate)
    return "JKTI"


def _mutated_oracle_plan(monkeypatch, name, **changes):
    spec = case_spec(name)
    use_spec(monkeypatch, dataclasses.replace(
        spec, oracle=dataclasses.replace(spec.oracle, **changes)))
    return name


def _unbound_xyz_map(monkeypatch):
    """An xyz_map entry that reads lam, which no trial sets."""
    (name, expr), *rest = case_spec("JKTVI").oracle.xyz_map
    return _mutated_oracle_plan(monkeypatch, "JKTVI",
                                xyz_map=((name, expr + parse("lam")), *rest))


def _non_affine_targets(monkeypatch):
    """JKTIVb's closure equations are not affine in x1, x2."""
    return _mutated_oracle_plan(monkeypatch, "JKTIVb", solve_targets=("x1", "x2"))


def _bilinear_targets(monkeypatch):
    """JKTII's solve equations in x2, x6 hold an x2*x6 term."""
    return _mutated_oracle_plan(monkeypatch, "JKTII", solve_targets=("x2", "x6"))


def _one_solve_target(monkeypatch):
    """An identity closure needs two solve targets."""
    return _mutated_oracle_plan(monkeypatch, "JKTIVb", solve_targets=("x5",))


@pytest.mark.parametrize("command", ["derive", "verify"])
@pytest.mark.parametrize("patch,line", [
    (_failing_derivation, "error: [eliminate] degree in x5 is 2, need exactly 1"),
    (_degenerate_trials, "error: [oracle] trial 0: resample budget exhausted"),
    (_unbound_xyz_map, "error: [oracle] unbound variable lam"),
    (_non_affine_targets, "error: [oracle] solve equations are not affine in x1, x2"),
    (_bilinear_targets, "error: [oracle] solve equations are not affine in x2, x6"),
    (_one_solve_target, "error: [spec] invalid case data: oracle_plan: identity closure "
     "with solve targets ('x5',): an identity closure needs two distinct surviving "
     "coefficients, a fixed-class closure none"),
], ids=["derivation", "degenerate-sample", "unbound-variable", "non-affine", "bilinear",
        "spec"])
def test_derivation_error_exits_three(command, patch, line, capsys, monkeypatch):
    """``derive`` runs the case that the patch breaks, ``verify`` all six."""
    name = patch(monkeypatch)
    code = cli.main([command, "--case", name] if command == "derive" else [command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert "Traceback" not in captured.err


_IVB = case_spec("JKTIVb")


@pytest.mark.parametrize("command", ["derive", "verify", "dump-spec", "directions"])
@pytest.mark.parametrize("changes,line", [
    ({"back_sub_plan": _IVB.back_sub_plan[1:]},
     "uncovered_variable: x9; closure_plan: identity closure with plan "
     "(((3, 2), 'x12'), ((3, 1), 'x11'), ((2, 1), 'x10'), ((1, 3), 'x8'), ((1, 2), 'x7'))"
     " and residuals (((3, 3), <gamma>), ((2, 2), <1>))"),
    ({"divisor": "2{0}+{inf}"}, "divisor: unknown divisor '2{0}+{inf}'"),
    ({"cov_steps": (CovStep("scale"),)}, "cov_step: unknown kind 'scale'"),
], ids=["plan-entry-removed", "unknown-divisor", "unknown-cov-step"])
def test_bad_case_data_exits_three(command, changes, line, capsys, monkeypatch):
    """Every command reads a case through the one check, so bad case data
    ends in one [spec] line before any command uses it."""
    use_spec(monkeypatch, dataclasses.replace(_IVB, **changes))
    code = cli.main([command, "--case", "JKTIVb"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: [spec] invalid case data: {line}\n"


def test_spec_line_splits_into_its_violations(capsys, monkeypatch):
    """"; " separates the violations and occurs in no detail."""
    mutated = dataclasses.replace(
        _IVB, back_sub_plan=_IVB.back_sub_plan[1:],
        oracle=dataclasses.replace(_IVB.oracle, solve_targets=("x5",)))
    use_spec(monkeypatch, mutated)
    assert cli.main(["derive", "--case", "JKTIVb"]) == 3
    err = capsys.readouterr().err
    prefix = "error: [spec] invalid case data: "
    assert err.startswith(prefix) and err.count("\n") == 1
    violations = validate_spec(mutated)
    assert [v.kind for v in violations] == ["uncovered_variable", "closure_plan",
                                            "oracle_plan"]
    assert err[len(prefix):-1].split("; ") == [f"{v.kind}: {v.detail}"
                                               for v in violations]


@pytest.mark.parametrize("fmt,golden", [("latex", "derive_all.tex"),
                                        ("text", "derive_all.txt")])
def test_derive_all_matches_golden(fmt, golden, capsys):
    """The text golden omits the Verification lines, which carry oracle numbers."""
    code, out = _run(capsys, "derive", "--case", "all", "--format", fmt,
                     "--trials", "1")
    assert code == 0
    kept = "".join(ln for ln in out.splitlines(keepends=True)
                   if not ln.startswith("Verification:"))
    assert kept == (GOLDEN / golden).read_text(encoding="utf-8")


# the six lines that derive_all.txt leaves out: they carry the oracle's
# residuals at seed 42 and the default 100 trials
_VERIFICATION_SEED_42 = [
    "Verification: determinant=1; expected[support]=match; "
    "oracle max|res|=3.468e-14 (tol 1e-09, seed 42, trials 100) -> PASS",
    "Verification: determinant=1; expected[support]=match; "
    "oracle max|res|=1.271e-13 (tol 1e-09, seed 42, trials 100) -> PASS",
    "Verification: determinant=1; expected[exact]=match; "
    "oracle max|res|=8.882e-16 (tol 1e-09, seed 42, trials 100) -> PASS",
    "Verification: determinant=1; expected[exact]=match; "
    "oracle max|res|=1.351e-14 (tol 1e-09, seed 42, trials 100) -> PASS",
    "Verification: determinant=1; expected[exact]=match; "
    "oracle max|res|=3.353e-13 (tol 1e-09, seed 42, trials 100) -> PASS",
    "Verification: determinant=1; expected[exact]=match; "
    "oracle max|res|=8.882e-16 (tol 1e-09, seed 42, trials 100) -> PASS",
]


def test_derive_all_text_verification_lines(capsys):
    code, out = _run(capsys, "derive", "--case", "all", "--format", "text",
                     "--seed", "42")
    assert code == 0
    got = [ln for ln in out.splitlines() if ln.startswith("Verification:")]
    assert got == _VERIFICATION_SEED_42
