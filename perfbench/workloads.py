"""The benchmark's workloads.

Each workload is a closed loop with one client: ``next_input`` draws the
next op's inputs from the workload seed (the only thing the program sees is
the case order and the oracle seeds), ``run`` is the timed op, and ``check``
returns the op's problems, outside the timed region.  ``setup`` is the work
the program does before timing, and is what ``setup_s`` measures.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
CLI_TIMEOUT_S = 60


class BenchError(Exception):
    """The checkout does not hold what the benchmark needs."""


def import_wildcv():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "wildcv" / "__init__.py").is_file():
        raise BenchError(f"no wildcv package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wildcv
    if Path(wildcv.__file__).resolve().parent != (SRC / "wildcv").resolve():
        raise BenchError(f"wildcv imported from {wildcv.__file__}, not {SRC}")
    return wildcv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("WCV_SEED", None)
    return env


def load_goldens(names) -> dict:
    out = {}
    for name in names:
        path = GOLDEN / f"{name}.json"
        if not path.is_file():
            raise BenchError(f"missing golden report {path}")
        out[name] = json.loads(path.read_text(encoding="utf-8"))
    return out


def check_report_dict(got: dict, golden: dict, oracle_expected: bool) -> list:
    """Problems with one serialized report: golden mismatch or a failed check."""
    name = got.get("case")
    ver = got.get("verification") or {}
    problems = []
    if not ver.get("determinant_is_one"):
        problems.append(f"{name}: det_is_one false")
    if not (ver.get("expected") or {}).get("matched"):
        problems.append(f"{name}: expected cubic not matched")
    oracle = ver.get("oracle")
    if oracle_expected and not (oracle and oracle.get("passed")):
        problems.append(f"{name}: oracle verdict not passed")
    symbolic = {k: v for k, v in got.items() if k != "verification"}
    if symbolic != golden:
        problems.append(f"{name}: differs from tests/golden/{name}.json")
    return problems


class _Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def attach(self, wildcv):
        """Bind the program's modules and the case list; no program work."""
        self.wildcv = wildcv
        self.pipeline = wildcv.pipeline
        self.cases = tuple(wildcv.model.CASE_NAMES)

    def setup(self):
        for name in self.cases:
            self.wildcv.model.case_spec(name)

    def timed(self, inp, cal):
        """Run one op: (output, wall seconds, calibrated seconds)."""
        t0 = perf_counter()
        out = self.run(inp)
        wall = perf_counter() - t0
        return out, wall, wall * cal.scale()

    def prepare_checks(self):
        """The benchmark's own set-up for checking ops; not part of setup_s."""
        import wildcv.report  # noqa: F401  (the checks serialize reports)
        self.goldens = load_goldens(self.cases)

    def close(self):
        pass


class DeriveSymbolic(_Workload):
    """One op: derive_case(name, run_oracle=False) for all six cases."""

    name = "derive-symbolic"

    def setup(self):
        super().setup()
        self.run(self.cases)    # a first round, so lazy set-up is paid here

    def next_input(self):
        return self.rng.sample(self.cases, len(self.cases))

    def run(self, order):
        derive = self.pipeline.derive_case
        return [derive(name, run_oracle=False) for name in order]

    def check(self, order, reports) -> list:
        to_dict = self.wildcv.report.report_to_dict
        problems = []
        for name, rep in zip(order, reports):
            if rep.name != name:
                problems.append(f"asked for {name}, got {rep.name}")
            problems += check_report_dict(to_dict(rep), self.goldens[name],
                                          oracle_expected=False)
        return problems


class OracleSweep(_Workload):
    """One op: oracle_verify(report, trials=100, seed=s) for all six cases."""

    name = "oracle-sweep"
    trials = 100

    def setup(self):
        super().setup()
        derive = self.pipeline.derive_case
        self.reports = {name: derive(name, run_oracle=False) for name in self.cases}
        self.run((self.cases, 0))    # a first sweep, as above

    def prepare_checks(self):
        super().prepare_checks()
        to_dict = self.wildcv.report.report_to_dict
        problems = []
        for name, rep in self.reports.items():
            problems += check_report_dict(to_dict(rep), self.goldens[name],
                                          oracle_expected=False)
        if problems:
            raise BenchError("set-up derivations are wrong: " + "; ".join(problems))

    def next_input(self):
        return self.rng.sample(self.cases, len(self.cases)), self.rng.randrange(2 ** 31)

    def run(self, inp):
        order, seed = inp
        verify = self.pipeline.oracle_verify
        return [verify(self.reports[name], trials=self.trials, seed=seed)
                for name in order]

    def check(self, inp, verdicts) -> list:
        order, seed = inp
        problems = []
        for name, verdict in zip(order, verdicts):
            if not verdict.passed:
                problems.append(f"{name}: oracle verdict not passed (seed {seed})")
            if verdict.seed != seed or verdict.trials != self.trials:
                problems.append(f"{name}: verdict for the wrong seed or trial count")
        return problems


class CliSession(_Workload):
    """One op: ``wildcv verify`` then ``wildcv derive --case all --format
    json``, each in a fresh interpreter writing to a file."""

    name = "cli-session"

    tmp = None
    trace_tables = None    # a list while a traced loop collects spans

    def prepare_checks(self):
        super().prepare_checks()
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
        self.env = child_env()

    def setup(self):
        import wildcv.cli  # noqa: F401  (what every CLI invocation imports)
        super().setup()

    def next_input(self):
        return self.rng.randrange(2 ** 31)

    def _argv(self, cli_args, trace_path):
        if trace_path is None:
            return [sys.executable, "-m", "wildcv", *cli_args]
        return [sys.executable, str(HERE / "child.py"), "cli", trace_path, *cli_args]

    def timed(self, seed, cal):
        """Both invocations, each calibrated on its own: an op spans about a
        second, longer than the host's speed holds still."""
        codes, wall, scaled = [], 0.0, 0.0
        for label, cli_args in (
                ("verify", ["verify", "--seed", str(seed)]),
                ("derive", ["derive", "--case", "all", "--format", "json",
                            "--seed", str(seed)])):
            out = os.path.join(self.tmp.name, f"{label}.out")
            trace = (os.path.join(self.tmp.name, f"{label}.trace")
                     if self.trace_tables is not None else None)
            for stale in (out, trace):
                if stale is not None and os.path.exists(stale):
                    os.remove(stale)
            t0 = perf_counter()
            proc = subprocess.run(self._argv([*cli_args, "--output", out], trace),
                                  cwd=ROOT, env=self.env, timeout=CLI_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            dt = perf_counter() - t0
            wall += dt
            scaled += dt * cal.scale()
            codes.append((label, proc.returncode, proc.stderr[-400:]))
        return codes, wall, scaled

    def check(self, seed, codes) -> list:
        problems = [f"{label} exited {rc}: {err.decode(errors='replace').strip()}"
                    for label, rc, err in codes if rc != 0]
        if problems:
            return problems
        with open(os.path.join(self.tmp.name, "verify.out"), encoding="utf-8") as fh:
            if "all cases PASS" not in fh.read():
                problems.append("verify did not print 'all cases PASS'")
        with open(os.path.join(self.tmp.name, "derive.out"), encoding="utf-8") as fh:
            reports = json.load(fh)
        names = [rep.get("case") for rep in reports]
        if names != list(self.cases):
            problems.append(f"derive --case all gave cases {names}")
        for rep in reports:
            if rep.get("case") in self.goldens:
                problems += check_report_dict(rep, self.goldens[rep["case"]],
                                              oracle_expected=True)
            if ((rep.get("verification") or {}).get("oracle") or {}).get("seed") != seed:
                problems.append(f"{rep.get('case')}: oracle ran with another seed")
        if self.trace_tables is not None:
            for label in ("verify", "derive"):
                with open(os.path.join(self.tmp.name, f"{label}.trace"),
                          encoding="utf-8") as fh:
                    self.trace_tables.append(json.load(fh))
        return problems

    def close(self):
        if self.tmp is not None:
            self.tmp.cleanup()


WORKLOADS = {w.name: w for w in (DeriveSymbolic, OracleSweep, CliSession)}
