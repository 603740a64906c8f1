"""Fresh-interpreter entry points that run.py starts as child processes.

    python3 perfbench/child.py setup WORKLOAD SEED   # prints set-up seconds
    python3 perfbench/child.py import                # prints `import wildcv.cli` ms
    python3 perfbench/child.py cli TRACE_OUT ARGS... # traced `wildcv ARGS...`

``setup`` times what a workload's program work costs before its timed loop:
the import, the six case specs, and whatever the workload builds.  ``cli``
runs ``wildcv.cli.main`` with the tracer on and writes the span table to
TRACE_OUT; its exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, import_wildcv


def _setup(workload: str, seed: str) -> None:
    t0 = perf_counter()
    wildcv = import_wildcv()
    wl = WORKLOADS[workload](int(seed))
    wl.attach(wildcv)
    wl.setup()
    elapsed = perf_counter() - t0
    wl.close()
    print(repr(elapsed))


def _import() -> None:
    t0 = perf_counter()
    import_wildcv()
    import wildcv.cli  # noqa: F401
    print(repr((perf_counter() - t0) * 1e3))


def _cli(trace_out: str, argv: list) -> int:
    import_wildcv()
    import wildcv.cli
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = wildcv.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.table(), fh)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup(*rest)
    elif mode == "import":
        _import()
    elif mode == "cli":
        sys.exit(_cli(rest[0], rest[1:]))
    else:
        sys.exit(f"child.py: unknown mode {mode!r}")
