"""Command-line front end.

Subcommands: ``derive`` (run one or all derivations and emit a report),
``directions`` (print the exact Stokes-direction tables), ``verify`` (run the
full verification suite with the numeric oracle) and ``dump-spec`` (emit the
static case data as JSON).  Output is byte-deterministic for a fixed seed.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 bad case data
or a failed stage, the oracle included; each is one ``error:`` line of stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .model import CASE_NAMES, UnknownCaseError, case_spec
from .pipeline import DEFAULT_SEED, DEFAULT_TRIALS, DerivationError, derive_case
from .report import (entries_text, report_to_dict, report_to_latex, report_to_text,
                     spec_to_dict)

ENV_SEED = "WCV_SEED"


class UsageError(Exception):
    """Bad input found after argument parsing; reported as exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error is one ``error:`` line, exit 2;
    its subcommands' parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")

    def print_help(self, file=None):
        # to stdout, as a command's output is: a failed write is a usage error
        _emit(self.format_help(), None)


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _case_list(name: str) -> list:
    if name == "all":
        return list(CASE_NAMES)
    if name not in CASE_NAMES:
        raise UnknownCaseError(f"unknown case {name!r}; expected one of "
                               f"{', '.join(CASE_NAMES)} or all")
    return [name]


def _check_output(output) -> None:
    """Reject an --output that is a directory, or whose directory is missing
    or not writable, before any derivation runs; no file is created."""
    parent = os.path.dirname(output) or "."
    try:
        os.stat(parent)
    except OSError as exc:
        reason = exc.strerror
    else:
        if not os.path.isdir(parent):
            reason = os.strerror(errno.ENOTDIR)
        elif not os.access(parent, os.W_OK | os.X_OK):
            reason = os.strerror(errno.EACCES)
        elif os.path.isdir(output):
            reason = os.strerror(errno.EISDIR)
        else:
            return
    raise UsageError(f"cannot write {output}: {reason}")


def _write(stream, text: str) -> None:
    """Write text to stream and flush it.  When that fails, the stream's fd
    goes to the null device, so the flush at exit stays quiet, and the
    OSError is raised again."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror}") from None
    else:
        try:
            _write(sys.stdout, text)
        except OSError as exc:
            raise UsageError(f"cannot write stdout: {exc.strerror}") from None


def _add_common(sub, with_format=True, with_oracle=True, case_default=None):
    if case_default is None:
        sub.add_argument("--case", required=True,
                         help="case name or 'all'")
    else:
        sub.add_argument("--case", default=case_default,
                         help="case name or 'all'")
    if with_format:
        sub.add_argument("--format", choices=("text", "json", "latex"),
                         default="text")
    if with_oracle:
        sub.add_argument("--seed", type=int, default=None,
                         help=f"oracle seed (default {DEFAULT_SEED}; "
                              f"{ENV_SEED} overrides)")
        sub.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wildcv",
        description="Derive the affine cubic surfaces of the six rank-3 JKT "
                    "wild character varieties from their Stokes data.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("derive", help="run one derivation"))
    _add_common(subs.add_parser("directions", help="print direction tables"),
                with_format=False, with_oracle=False, case_default="all")
    _add_common(subs.add_parser("verify", help="run the verification suite"),
                with_format=False, case_default="all")
    _add_common(subs.add_parser("dump-spec",
                                help="emit the static case data as JSON"),
                with_format=False, with_oracle=False)
    return parser


def _cmd_derive(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    render = {"json": report_to_dict, "text": report_to_text,
              "latex": report_to_latex}[args.format]
    chunks = []
    status = 0
    for name in _case_list(args.case):
        report = derive_case(name, trials=args.trials, seed=seed)
        if not report.passed:
            status = 1
        chunks.append(render(report))
    if args.format == "json":
        payload = chunks[0] if len(chunks) == 1 else chunks
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("\n".join(chunks), args.output)
    return status


def _cmd_directions(args) -> int:
    lines = []
    for name in _case_list(args.case):
        spec = case_spec(name)
        lines.append(f"== {name} ==")
        for k, layout in enumerate(spec.schedule, start=1):
            lines.append(f"S{k}: phi = {layout.direction}  [{entries_text(layout.entries)}]")
        lines.append("")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    names = _case_list(args.case)
    reports = [derive_case(name, trials=args.trials, seed=seed) for name in names]

    lines = [f"verification (seed={seed}, trials={args.trials})", ""]
    header = (f"{'case':8s} {'det=1':6s} {'cubic':18s} "
              f"{'oracle max|res|':16s} {'dropped':10s} {'verdict':7s}")
    lines.append(header)
    lines.append("-" * len(header))
    failed = []
    for name, rep in zip(names, reports):
        cubic = f"{rep.expected.mode}:" + ("ok" if rep.expected.matched else "MISMATCH")
        oracle = f"{rep.oracle.max_residual:.3e}"
        dropped = (f"{rep.oracle.max_dropped_residual:.1e}"
                   if rep.closure.back_subs is not None else "-")
        verdict = "PASS" if rep.passed else "FAIL"
        if not rep.passed:
            failed.append(name)
            for m in rep.expected.mismatches:
                lines.append(f"    {name}: {m}")
        lines.append(f"{name:8s} {str(rep.det_is_one):6s} {cubic:18s} "
                     f"{oracle:16s} {dropped:10s} {verdict:7s}")
    lines.append("")
    lines.append("all cases PASS" if not failed else
                 f"FAILED: {', '.join(failed)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


def _cmd_dump_spec(args) -> int:
    specs = [spec_to_dict(case_spec(name)) for name in _case_list(args.case)]
    payload = specs[0] if len(specs) == 1 else specs
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


_COMMANDS = {
    "derive": _cmd_derive,
    "directions": _cmd_directions,
    "verify": _cmd_verify,
    "dump-spec": _cmd_dump_spec,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.output:
            _check_output(args.output)
        return _COMMANDS[args.command](args)
    except (UnknownCaseError, UsageError, DerivationError) as exc:
        try:
            _write(sys.stderr, f"error: {exc}\n")
        except OSError:
            pass    # an unwritable stderr leaves the exit code as it is
        return 3 if isinstance(exc, DerivationError) else 2


if __name__ == "__main__":
    sys.exit(main())
