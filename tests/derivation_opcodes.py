"""Print the Python opcodes that six exact derivations execute.

    python tests/derivation_opcodes.py

It builds the six case specs with ``case_spec`` first, untraced, and then
counts the opcodes of ``derive_case(name, run_oracle=False)`` for each case
in ``CASE_NAMES`` order, with ``sys.settrace`` and ``f_trace_opcodes``.  The
one line is ``<count>``.  Work done in C (dict operations, big ints) counts
as the one opcode that calls it, so the count is a measure of interpreted
work, not of time.  It is the same on every run of one interpreter, but
differs between interpreter versions.  It imports ``wildcv`` from the
``src/`` next to this file.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import wildcv  # noqa: E402
from wildcv.model import CASE_NAMES, case_spec  # noqa: E402
from wildcv.pipeline import derive_case  # noqa: E402

if not Path(wildcv.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported wildcv from {wildcv.__file__}, not from {SRC}")

count = 0


def _opcodes(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return _opcodes


def _calls(frame, event, arg):
    frame.f_trace_opcodes = True
    return _opcodes


for name in CASE_NAMES:
    case_spec(name)
sys.settrace(_calls)
for name in CASE_NAMES:
    derive_case(name, run_oracle=False)
sys.settrace(None)
print(count)
