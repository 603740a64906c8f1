"""The wildcv benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload derive-symbolic --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the loop untraced for half of ``--seconds`` and traced for the other
half (their ``ops_per_s`` ratio is ``trace_overhead``), then runs the
workload-independent probes, and reports the per-layer metrics.  Every op's
output is checked outside the timed region.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import probes
from calibrate import Calibrated
from tracer import Tracer, merge_tables
from workloads import HERE, ROOT, WORKLOADS, BenchError, child_env, import_wildcv

SETUP_REPEATS = 7
MAX_LOGGED_PROBLEMS = 5


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------


class Loop:
    """Latencies and failures of one closed-loop pass."""

    def __init__(self):
        self.latencies = []    # calibrated seconds, completed ops only
        self.wall = []         # the same latencies as measured
        self.factors = []      # calibration factor of each completed op
        self.attempted = 0
        self.failed = 0

    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return len(self.latencies) / busy if busy else 0.0

    def factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0


def run_loop(wl, seconds: float, tracer=None) -> Loop:
    loop = Loop()
    cal = Calibrated()
    deadline = perf_counter() + seconds
    while loop.attempted == 0 or perf_counter() < deadline:
        inp = wl.next_input()
        loop.attempted += 1
        if tracer is not None:
            tracer.active = True
        try:
            out, wall, dt = wl.timed(inp, cal)
        except Exception as exc:    # an op that raises is a failed op
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        if tracer is not None:
            tracer.active = False
        if problems is None:
            try:
                problems = wl.check(inp, out)
            except Exception as exc:    # unreadable output is a failed op too
                problems = [f"check: {type(exc).__name__}: {exc}"]
        if problems:
            loop.failed += 1
            if loop.failed <= MAX_LOGGED_PROBLEMS:
                print(f"op {loop.attempted} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        else:
            loop.latencies.append(dt)
            loop.wall.append(wall)
            loop.factors.append(dt / wall)
    if not loop.latencies:
        raise BenchError(f"no op completed; {loop.failed} failed")
    return loop


def tail(samples) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no value has ten beyond it; the minimum is
    reported then, at percentile 0.
    """
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs)


# --------------------------------------------------------------------------
# end-to-end
# --------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Median calibrated set-up time over fresh interpreters."""
    times = []
    cal = Calibrated()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            cwd=ROOT, env=child_env(), timeout=120, check=True,
            capture_output=True, text=True).stdout
        times.append(float(out.strip().splitlines()[-1]) * cal.scale())
    return statistics.median(times)


def end_to_end(workload: str, loop: Loop, setup_s: float) -> tuple:
    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_ms, tail_pct = tail(lat_ms)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-session"
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    wall_ms = [x * 1e3 for x in loop.wall]
    notes = {"op_ms_tail": f"p{tail_pct:.1f} of {len(lat_ms)} ops, "
                           f"{len(lat_ms) - 1 - max(0, len(lat_ms) - 11)} beyond; "
                           f"wall {tail(wall_ms)[0]:.6g} ms",
             "op_ms_p50": f"of {len(lat_ms)} ops; wall {statistics.median(wall_ms):.6g} ms, "
                          f"median calibration factor {loop.factor():.4g}"}
    return metrics, notes


# --------------------------------------------------------------------------
# per-layer
# --------------------------------------------------------------------------

# stages derive_case calls directly; their sum over derive_case is the coverage
DIRECT_STAGES = ("stokes.matrices", "monodromy.topological", "stokes.det",
                 "monodromy.closure", "pipeline.eliminate", "pipeline.normal_form")
# derive_case also runs the oracle when the CLI asks for it
COVERED = DIRECT_STAGES + ("pipeline.oracle_verify",)
PRIMITIVES = ("mul", "add", "substitute", "evaluate", "parse", "format")


def layer_metrics(spans: dict, cases, n_ops: int, factor: float) -> dict:
    """Per-layer metrics from a merged span table ({(name, case, owner): rec});
    span times are scaled by the loop's median calibration factor."""

    def total(field, name, case=None, owner=None):
        scale = factor if field in (incl, self_s) else 1
        return scale * sum(rec[field] for (n, c, o), rec in spans.items()
                           if n == name and (case is None or c == case)
                           and (owner is None or o == owner))

    def ratio(a, b):
        return a / b if b else 0.0

    calls, incl, self_s, errors, pairs, terms = range(6)
    out = {}
    for case in cases:
        derives = total(calls, "pipeline.derive_case", case)
        derive_s = total(incl, "pipeline.derive_case", case)
        for stage in DIRECT_STAGES:
            out[f"{stage}_ms.{case}"] = (ratio(
                total(incl, stage, case, owner="pipeline.derive_case"), derives) * 1e3, "ms")
        direct = sum(total(incl, stage, case, owner="pipeline.derive_case")
                     for stage in COVERED)
        out[f"invariants.rewrite_ms.{case}"] = (
            ratio(total(incl, "invariants.rewrite", case), derives) * 1e3, "ms")
        out[f"pipeline.derive_case_ms.{case}"] = (ratio(derive_s, derives) * 1e3, "ms")
        out[f"pipeline.stage_coverage.{case}"] = (ratio(direct, derive_s), "ratio")
        trials = total(calls, "pipeline.oracle_trial", case)
        out[f"pipeline.oracle_trial_us.{case}"] = (
            ratio(total(incl, "pipeline.oracle_trial", case), trials) * 1e6, "us")
        out[f"pipeline.oracle_resamples.{case}"] = (
            ratio(total(errors, "pipeline.oracle_trial", case),
                  total(calls, "pipeline.oracle_verify", case)), "count")
        out[f"pipeline.reconstruct_us.{case}"] = (
            ratio(total(incl, "pipeline.reconstruct", case, owner="pipeline.oracle_trial"),
                  total(calls, "pipeline.reconstruct", case, owner="pipeline.oracle_trial"))
            * 1e6, "us")
    for prim in PRIMITIVES:
        name = f"polyring.{prim}"
        out[f"{name}.calls"] = (ratio(total(calls, name), n_ops), "calls/op")
        out[f"{name}.self_ms"] = (ratio(total(self_s, name), n_ops) * 1e3, "ms/op")
    out["polyring.mul.useful_ratio"] = (
        ratio(total(terms, "polyring.mul"), total(pairs, "polyring.mul")), "ratio")
    out["polyring.mul.reconstruct_share"] = (
        ratio(total(calls, "polyring.mul", owner="pipeline.reconstruct"),
              total(calls, "polyring.mul")), "ratio")
    out["pipeline.reconstruct_share"] = (
        ratio(total(incl, "pipeline.reconstruct", owner="pipeline.oracle_trial"),
              total(incl, "pipeline.oracle_trial")), "ratio")
    return out


def per_layer(wl, wildcv, seconds: float, seed: int) -> tuple:
    """Untraced then traced loop, then the probes; returns (metrics, loops, ok)."""
    base = run_loop(wl, seconds / 2)
    if wl.name == "cli-session":
        wl.trace_tables = []
        traced = run_loop(wl, seconds / 2)
        spans = merge_tables(wl.trace_tables)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        spans = merge_tables([tracer.table()])
    metrics = layer_metrics(spans, wl.cases, len(traced.latencies), traced.factor())
    metrics["trace_overhead"] = (
        traced.ops_per_s() / base.ops_per_s() if base.ops_per_s() else 0.0, "ratio")

    table, sizes_agree = probes.sizes(wildcv, wl.cases)
    for name, val in probes.size_metrics(table).items():
        metrics[name] = (val, "count")
    print("sizes (terms, max degree, max coefficient bits) per stage:")
    for case, stages in table.items():
        print(f"  {case}: " + ", ".join(f"{s}={v}" for s, v in stages.items()))
    if not sizes_agree:
        print("size counters differ between two derivations", file=sys.stderr)
    ops = probes.record_operands(wildcv, wl.cases, seed)
    print("replayed operands: " + ", ".join(f"{k}={len(v)}" for k, v in ops.items()))
    for name, val in probes.replay(ops).items():
        metrics[name] = (val, "us")
    for name, val in probes.layer_probes(wildcv, wl.cases, seed).items():
        metrics[name] = (val, "ms")
    return metrics, (base, traced), sizes_agree


# --------------------------------------------------------------------------
# environment and output
# --------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (or 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(metrics: dict, notes: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:{width}s} {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for this process and every child it starts: on a shared host
    # each CPU's speed drifts on its own, and the calibration only tracks the
    # CPU it runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
           "loadavg_start": os.getloadavg(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "commit": git_commit()}
    wl = WORKLOADS[args.workload](args.seed)
    try:
        wildcv = import_wildcv()
        setup_s = setup_seconds(args.workload, args.seed) if args.trace == 0 else None
        wl.attach(wildcv)
        wl.setup()
        wl.prepare_checks()
        if args.trace == 0:
            loop = run_loop(wl, args.seconds)
            loops = (loop,)
            metrics, notes = end_to_end(args.workload, loop, setup_s)
            sizes_agree = True
        else:
            metrics, loops, sizes_agree = per_layer(wl, wildcv, args.seconds, args.seed)
            notes = {}
    finally:
        wl.close()

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    env["loadavg_end"] = os.getloadavg()
    env["ops_per_loop"] = [len(lp.latencies) for lp in loops]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in declared["end_to_end" if args.trace == 0 else "per_layer"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(declared.items()))}")
    print("env: " + json.dumps(env))
    print_metrics({**metrics, "failed_ratio": (failed / attempted, "ratio")}, notes)
    correct = failed == 0 and sizes_agree
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"{name} is not finite", file=sys.stderr)
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
