"""Print the count and the sha256 of 1824 oracle verdict reprs.

    python tests/oracle_verdicts.py > verdicts.txt

The verdicts are ``oracle_verify(report, trials=100, seed=S)`` for each of
the six cases, in ``CASE_NAMES`` order, at the seeds 0..299, 42, 1000,
183888082 and 246776331, seed by seed.  The one line is
``<count> <sha256 of the reprs concatenated>``.  A verdict's repr holds the
largest residuals and the resample count, so the line pins every float that
the oracle reports; CI compares it with ``tests/golden/oracle_verdicts.txt``
on each interpreter.  It imports ``wildcv`` from the ``src/`` next to this
file.
"""

import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import wildcv  # noqa: E402
from wildcv.model import CASE_NAMES  # noqa: E402
from wildcv.pipeline import derive_case, oracle_verify  # noqa: E402

if not Path(wildcv.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported wildcv from {wildcv.__file__}, not from {SRC}")

SEEDS = [*range(300), 42, 1000, 183888082, 246776331]

reports = [derive_case(name, run_oracle=False) for name in CASE_NAMES]
digest = hashlib.sha256()
count = 0
for seed in SEEDS:
    for report in reports:
        digest.update(repr(oracle_verify(report, trials=100, seed=seed)).encode())
        count += 1
print(count, digest.hexdigest())
