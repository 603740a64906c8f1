"""Print the exit code and the stdout sha256 of 206 wildcv commands.

    python tests/output_digests.py > digests.txt

Each line is ``<exit code> <sha256 of stdout> <argv>``.  The commands are
``verify --seed S`` and ``derive --case all --format F --seed S`` for
F in json, text, latex and S in 42, 1000..1049, then ``dump-spec --case all``
and ``directions``.  Run it in two checkouts and ``diff`` the outputs to show
that a change leaves every output byte-identical; CI compares the listing
with ``tests/golden/output_digests.txt`` on Python 3.11.  It imports
``wildcv`` from the ``src/`` next to this file, runs ``cli.main``
in-process, and ignores ``WCV_SEED``.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
os.environ.pop("WCV_SEED", None)

import wildcv  # noqa: E402
from wildcv import cli  # noqa: E402

if not Path(wildcv.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported wildcv from {wildcv.__file__}, not from {SRC}")


def argvs():
    for seed in ["42"] + [str(s) for s in range(1000, 1050)]:
        yield ["verify", "--seed", seed]
        for fmt in ("json", "text", "latex"):
            yield ["derive", "--case", "all", "--format", fmt, "--seed", seed]
    yield ["dump-spec", "--case", "all"]
    yield ["directions"]


for argv in argvs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(code, digest, " ".join(argv))
