"""Command-line behaviour: determinism, formats, exit codes."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wildcv import cli, pipeline
from wildcv.model import CASE_NAMES, CovStep, case_spec, validate_spec
from wildcv.pipeline import DegenerateSampleError, DerivationError
from wildcv.polyring import LaurentPoly, Monomial, parse

from _support import patch_expected, time_limit, use_spec


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
        bad = rep.expected.replace(matched=False,
                                   mismatches=("forced mismatch",))
        return rep.replace(expected=bad)

    monkeypatch.setattr(cli, "derive_case", broken)
    code, out = _run(capsys, "verify", "--case", "JKTI", "--trials", "5")
    assert code == 1
    assert "FAIL" in out


def test_verify_prints_a_real_expected_mismatch(capsys, monkeypatch):
    patch_expected(monkeypatch, "JKTI", c3=parse("1"))
    code, out = _run(capsys, "verify", "--case", "JKTI", "--trials", "5")
    assert code == 1
    assert "    JKTI: c3: expected 1, derived 0" in out.splitlines()
    (row,) = [line for line in out.splitlines() if line.startswith("JKTI ")]
    assert row.split()[-1] == "FAIL"
    assert "exact:MISMATCH" in out and "FAILED: JKTI" in out


def test_derive_reports_a_real_expected_mismatch_with_exit_one(capsys, monkeypatch):
    """A derivation whose cubic misses the expected one exits 1 from
    ``derive``, for the case alone and among all six, and its JSON report
    says it did not pass."""
    patch_expected(monkeypatch, "JKTI", c3=parse("1"))
    code, out = _run(capsys, "derive", "--case", "JKTI", "--format", "json",
                     "--trials", "5")
    assert code == 1
    assert json.loads(out)["verification"]["passed"] is False
    code, out = _run(capsys, "derive", "--case", "all", "--format", "json",
                     "--trials", "5")
    assert code == 1
    passed = {doc["case"]: doc["verification"]["passed"] for doc in json.loads(out)}
    assert passed == {name: name != "JKTI" for name in CASE_NAMES}


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


def test_dump_spec_shows_the_oracle_choices(capsys):
    """Every case's dump holds its pushforward to X, Y and Z and its solve
    targets, as the case data state them."""
    code, out = _run(capsys, "dump-spec", "--case", "all")
    assert code == 0
    docs = json.loads(out)
    assert [doc["name"] for doc in docs] == list(CASE_NAMES)
    for doc in docs:
        spec = case_spec(doc["name"])
        assert doc["xyz_map"] == {nm: str(poly) for nm, poly in spec.xyz_map}
        assert list(doc["xyz_map"]) == ["X", "Y", "Z"]
        assert doc["solve_targets"] == list(spec.solve_targets)
    assert docs[CASE_NAMES.index("JKTI")]["solve_targets"] == ["x1", "x3"]
    assert docs[CASE_NAMES.index("JKTIVa")]["xyz_map"] == {"X": "x3", "Y": "x2", "Z": "x4"}


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
    from wildcv.polyring import LaurentPoly, parse
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
    ("verify", "--trials", "x"),
    ("verify", "--no-such-flag"),
    ("dump-spec",),
])
def test_nonpositive_trials_is_usage_error(argv, capsys):
    """A bad --trials, an unknown flag or a missing --case exits 2 with one
    ``error:`` line that names the flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: wildcv")
    # the flag at fault is the last one given, or the missing --case
    flag = ([arg.split("=")[0] for arg in argv if arg.startswith("--")] or ["--case"])[-1]
    assert flag in line


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
    plain = tmp_path / "plain"
    plain.write_text("")
    for target, code in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR),
                         (plain / "report.json", errno.ENOTDIR)):
        for argv in (("dump-spec", "--case", "JKTI"), ("derive", "--case", "all"),
                     ("verify",)):
            assert cli.main([*argv, "--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot write {target}: {os.strerror(code)}\n"
    assert list(tmp_path.iterdir()) == [plain]


def test_failed_write_is_usage_error(tmp_path, capsys, monkeypatch):
    """A write that fails after --output was checked, a full disk say, ends in
    one ``error:`` line and exit 2."""
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", full, raising=False)
    target = tmp_path / "spec.json"
    assert cli.main(["dump-spec", "--case", "JKTI", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


_STDOUT_COMMANDS = [("dump-spec", "--case", "all"), ("directions", "--case", "JKTI"),
                    ("--help",)]


def _run_both_ways(argv, stdout, stderr=subprocess.PIPE, **env):
    """``python -m wildcv`` in two fresh interpreters, from these sources,
    with ``PYTHONUNBUFFERED=1`` and with the variable removed: for each, the
    exit code and the lines of stderr (none when stderr is not piped here)."""
    runs = []
    for unbuffered in ({"PYTHONUNBUFFERED": "1"}, {}):
        environ = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
        environ.pop("PYTHONUNBUFFERED", None)
        environ.update(unbuffered)
        done = subprocess.run([sys.executable, "-m", "wildcv", *argv], stdout=stdout,
                              stderr=stderr, env=environ, text=True, timeout=60)
        runs.append((done.returncode, (done.stderr or "").splitlines()))
    return runs


def _closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_closed_stdout_pipe_is_usage_error(argv):
    """A stdout pipe whose reader has gone (``wildcv ... | true``) ends in one
    ``error:`` line and exit 2, with no traceback, buffered or not."""
    write = _closed_pipe()
    try:
        runs = _run_both_ways(argv, write)
    finally:
        os.close(write)
    assert runs == [(2, [f"error: cannot write stdout: {os.strerror(errno.EPIPE)}"])] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_full_stdout_device_is_usage_error(argv):
    """A stdout that is full (``/dev/full``) ends in one ``error:`` line and
    exit 2, with no traceback, buffered or not."""
    with open("/dev/full", "w") as full:
        runs = _run_both_ways(argv, full)
    assert runs == [(2, [f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"])] * 2


_USAGE_ERRORS = [(("dump-spec", "--case", "bogus"), {}), (("verify",), {cli.ENV_SEED: "x"})]


@pytest.mark.parametrize("argv,env", _USAGE_ERRORS, ids=["unknown-case", "bad-env-seed"])
def test_closed_stderr_pipe_keeps_the_usage_code(argv, env):
    """A usage error whose ``error:`` line meets a stderr pipe with no
    reader still exits 2, buffered or not: no code 1 of a traceback that
    cannot be written, and no 120 of a flush at exit that fails."""
    write = _closed_pipe()
    try:
        runs = _run_both_ways(argv, subprocess.DEVNULL, write, **env)
    finally:
        os.close(write)
    assert runs == [(2, [])] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv,env", _USAGE_ERRORS, ids=["unknown-case", "bad-env-seed"])
def test_full_stderr_device_keeps_the_usage_code(argv, env):
    """A usage error whose ``error:`` line meets a full stderr
    (``/dev/full``) still exits 2, buffered or not."""
    with open("/dev/full", "w") as full:
        runs = _run_both_ways(argv, subprocess.DEVNULL, full, **env)
    assert runs == [(2, [])] * 2


def _failing_derivation(monkeypatch):
    def failing(*args, **kwargs):
        raise DerivationError("[eliminate] exponents of x5 are {0, 2}, need {1} or {0, 1}")

    monkeypatch.setattr(cli, "derive_case", failing)
    return "JKTI"


def _degenerate_trials(monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateSampleError("singular 2x2 solve")

    monkeypatch.setattr(pipeline, "_oracle_trial", degenerate)
    return "JKTI"


def _mutated_oracle_plan(monkeypatch, name, **changes):
    use_spec(monkeypatch, case_spec(name).replace(**changes))
    return name


def _unbound_xyz_map(monkeypatch):
    """An xyz_map entry that reads lam, which no trial sets."""
    (name, expr), *rest = case_spec("JKTVI").xyz_map
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
    (_failing_derivation, "error: [eliminate] exponents of x5 are {0, 2}, need {1} or {0, 1}"),
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
    ({"schedule": _IVB.schedule[:-2] + (
        _IVB.schedule[-2].replace(entries=((0, 1, "x11"),)),
        _IVB.schedule[-1].replace(entries=((4, 2, "x12"),)))},
     "stokes_entry: x11 at (0,1) is not an off-diagonal position of a 3x3 matrix; "
     "stokes_entry: x12 at (4,2) is not an off-diagonal position of a 3x3 matrix"),
    ({"schedule": (_IVB.schedule[0].replace(entries=((2, 2, "x1"),)),) + _IVB.schedule[1:]},
     "stokes_entry: x1 at (2,2) is not an off-diagonal position of a 3x3 matrix"),
    # unchecked, the pair directions would divide by the level
    ({"pair_specs": (_IVB.pair_specs[0].replace(level_l=0),) + _IVB.pair_specs[1:]},
     "pair_level: pair (0, 1) has level 0, not at least 1"),
    ({"residual_scale": LaurentPoly.zero(),
      "residual_entries": (((3, 3), parse("gamma + 1")), _IVB.residual_entries[1])},
     "scale: residual_scale 0 is not a single term in unit variables; "
     "scale: residual entry (3, 3) gamma + 1 is not a single term in unit variables"),
    ({"residual_scale": parse("2*x1")},
     "scale: residual_scale 2*x1 is not a single term in unit variables"),
    ({"elimination_plan": ((0, "Q"), (1, "R"))},
     "elimination_plan: plan solves for 'Q', which is neither a generator nor a scheduled "
     "variable"),
    ({"xyz_map": _IVB.xyz_map[:2]},
     "oracle_plan: xyz_map binds ('X', 'Y'), not X, Y and Z once each"),
    ({"xyz_map": _IVB.xyz_map[:2] + (("Q", parse("x3*x6 + 1")),)},
     "oracle_plan: xyz_map binds ('X', 'Y', 'Q'), not X, Y and Z once each"),
    ({"cov_steps": (CovStep("subst", (("U", parse("X - 1")), ("Q", parse("Y - 1")),
                                      ("W", parse("Z - 1")))),)},
     "cov_step: subst binds unknown variable 'Q'"),
    ({"cov_steps": _IVB.cov_steps + (CovStep("divide", (), parse("2*x1")),)},
     "scale: divide step 2*x1 is not a single term in unit variables"),
    ({"cov_steps": _IVB.cov_steps + (CovStep("divide", (), LaurentPoly.zero()),)},
     "scale: divide step 0 is not a single term in unit variables"),
    # unchecked, the invariant rewrite would divide by the constant U forever
    ({"generator_defs": (("U", Monomial()),) + _IVB.generator_defs[1:]},
     "generator_mismatch: U is the constant monomial"),
], ids=["plan-entry-removed", "unknown-divisor", "unknown-cov-step", "stokes-entry-position",
        "stokes-entry-diagonal", "pair-level-zero", "zero-scale", "non-unit-scale",
        "unknown-plan-name", "xyz-map-without-z",
        "xyz-map-unknown-name", "subst-unknown-name", "divide-non-unit", "divide-by-zero",
        "constant-generator"])
def test_bad_case_data_exits_three(command, changes, line, capsys, monkeypatch):
    """Every command reads a case through the one check, so bad case data
    ends in one [spec] line before any command uses it; a row whose data
    would make a command run forever fails at the time limit."""
    use_spec(monkeypatch, _IVB.replace(**changes))
    with time_limit(2):
        code = cli.main([command, "--case", "JKTIVb"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: [spec] invalid case data: {line}\n"


def test_closed_stderr_pipe_keeps_the_failed_stage_code(capsys, monkeypatch):
    """Bad case data whose ``error:`` line meets a stderr pipe with no reader
    still exits 3; the stream then closes without an error, as its fd was
    sent to the null device."""
    use_spec(monkeypatch, _IVB.replace(divisor="2{0}+{inf}"))
    with open(_closed_pipe(), "w") as stream, monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", stream)
        assert cli.main(["dump-spec", "--case", "JKTIVb"]) == 3
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_spec_line_splits_into_its_violations(capsys, monkeypatch):
    """"; " separates the violations and occurs in no detail."""
    mutated = _IVB.replace(back_sub_plan=_IVB.back_sub_plan[1:], solve_targets=("x5",))
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


def test_divide_step_without_term_exits_three(capsys, monkeypatch):
    """A divide step with no term is bad case data, not a traceback out of
    the normal form."""
    spec = case_spec("JKTVI")
    assert spec.cov_steps[-1].kind == "divide"
    use_spec(monkeypatch, spec.replace(cov_steps=spec.cov_steps[:-1] + (CovStep("divide"),)))
    code = cli.main(["derive", "--case", "JKTVI"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: [spec] invalid case data: "
                            "cov_step: divide step without a term\n")
    assert "Traceback" not in captured.err


def test_direction_mismatch_prints_angles(capsys, monkeypatch):
    """The detail prints each angle as ``wildcv directions`` does."""
    use_spec(monkeypatch, case_spec("JKTI").replace(pair_specs=()))
    assert cli.main(["directions", "--case", "JKTI"]) == 3
    assert capsys.readouterr().err == (
        "error: [spec] invalid case data: direction_mismatch: schedule "
        "[0, pi/5, 2*pi/5, 3*pi/5, 4*pi/5, pi, 6*pi/5, 7*pi/5, 8*pi/5, 9*pi/5]"
        " vs pairs []\n")


# The first two layouts swapped: in JKTVI, JKTIVa, JKTIVb and JKTI the two
# swapped Stokes factors commute, so M, and every check downstream of it,
# cannot see the swap, and the orientation check is its only guard.
@pytest.mark.parametrize("name,directions", [
    ("JKTVI", "2*pi/3, pi/3, pi, 4*pi/3, 5*pi/3, 0"),
    ("JKTV", "pi, pi/2, 3*pi/2"),
    ("JKTIVa", "pi, pi/2, 3*pi/2, 0"),
    ("JKTIVb", "pi/3, pi/6, pi/2, 2*pi/3, 5*pi/6, pi, 7*pi/6, 4*pi/3, 3*pi/2, 5*pi/3, "
     "11*pi/6, 0"),
    ("JKTII", "pi/3, pi/4, 3*pi/4, pi, 5*pi/4, 5*pi/3, 7*pi/4"),
    ("JKTI", "2*pi/5, pi/5, 3*pi/5, 4*pi/5, pi, 6*pi/5, 7*pi/5, 8*pi/5, 9*pi/5, 0"),
])
def test_swapped_schedule_exits_three(name, directions, capsys, monkeypatch):
    spec = case_spec(name)
    first, second, *rest = spec.schedule
    use_spec(monkeypatch, spec.replace(schedule=(second, first, *rest)))
    assert cli.main(["derive", "--case", name]) == 3
    assert capsys.readouterr().err == (
        f"error: [spec] invalid case data: schedule_order: directions [{directions}] "
        "do not increase once around the circle\n")


@pytest.mark.parametrize("name,held", [
    ("JKTVI", "V, W, T"), ("JKTV", "V, W, T"), ("JKTIVa", "x2, x3, x4"),
    ("JKTIVb", "U, V, W"), ("JKTII", "U, V, W"), ("JKTI", "x1, x2, x4"),
])
def test_cubic_in_stokes_coefficients_exits_three(name, held, capsys, monkeypatch):
    """Without its change of variables, each residual is all constant term,
    in generators or Stokes coefficients: not a cubic in the parameters."""
    use_spec(monkeypatch, case_spec(name).replace(cov_steps=()))
    assert cli.main(["derive", "--case", name]) == 3
    assert capsys.readouterr().err == (
        f"error: [normal-form] cubic coefficients hold {held}, which are not parameters\n")


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
