"""relroots benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {table1,certify,substituted,substituted_roots}
                             --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory.  Before
measuring, every check is fed a corrupted result and must count it as
failed.  The run then executes whole rounds of ops that fit in S seconds
(at least one round), one op after another in this process (``certify``
starts one child interpreter at a time), and checks every op's output.
The process and every child it starts are pinned to one CPU, where a
``hostspeed.SpeedProbe`` thread samples how fast the core runs.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts ops that raised or failed their check; ``correct`` is false
when an output fails its check or an op raises anything but its workload's
documented failure.  Every time metric is host-adjusted (see ``hostspeed``):
the wall time scaled by how fast the core ran meanwhile, which is the time
at full core speed.  With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: median over 12 fresh interpreters (half before the ops, half
  after) of the time until ``import relroots`` returns;
- ``op_p50_s`` / ``op_p90_s``: median and 90th-percentile op time
  (Harrell-Davis estimates);
- ``ops_per_s``: ops that completed and passed their check, per second;
- ``peak_rss_mb``: peak resident memory of the process(es) that ran the ops.

With ``--trace 1`` each round runs untraced and then traced on the same
inputs; the metrics are the per-layer ones of ``tracing.layer_metrics``,
plus ``trace.overhead_s``, the traced minus the untraced op time per op.

The line before the result holds the environment record and the same
end-to-end times in raw wall seconds.  Per-op records (and, when traced, the
spans) are written under ``.perfbench_out/``.  Nothing in the machine's
settings (cgroups, caches, huge pages) is touched; pinning this process to
one CPU acts on the benchmark's own processes only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Cold starts for setup_s, half before and half after the ops: this machine's
# speed drifts over seconds, so two moments apart give a steadier median.
SETUP_STARTS = 12
WORKLOAD_NAMES = ("table1", "certify", "substituted", "substituted_roots")


def fail(message: str, code: int = 2) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_starts(env: dict, count: int) -> list[tuple[float, float]]:
    """(start, end) from spawning a fresh interpreter until ``import relroots`` returns.

    The child reads CLOCK_MONOTONIC, the clock behind ``time.perf_counter``."""
    clock = "time.clock_gettime(time.CLOCK_MONOTONIC)"
    cmd = [sys.executable, "-c", f"import time, relroots; print(repr({clock}))"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        samples.append((start, float(proc.stdout)))
    return samples


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of the processes that ran the ops.

    For ops run in child interpreters this is the largest child, which
    outgrows the cold starts that only import the package."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.

    ``substituted`` op times cluster by input cell with gaps between the
    clusters, so a single order statistic jumps between clusters from run to
    run; on ten runs this weighted mean spread about 0.10 against 0.17."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        loadavg = os.getloadavg()
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg": loadavg,
        "machine_settings_touched": False,
    }


def outcome(workload, inp, run) -> dict:
    """Run one op (``run`` returns its result) and check it."""
    try:
        result = run()
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return {"ok": False, "error": type(exc).__name__, "detail": str(exc)[-300:],
                "problems": [], "margins": {}}
    problems, margins = workload.check(inp, result)
    return {"ok": not problems, "error": None, "problems": problems, "margins": margins}


def run_controls(workloads, ctx) -> list[str]:
    """Every check must pass the correct result and count the corrupted one as failed."""
    report = []
    for label, workload, inp, good, bad in workloads.controls(ctx):
        clean = outcome(workload, inp, lambda: good)
        corrupt = outcome(workload, inp, lambda: bad)
        if not clean["ok"] or corrupt["ok"]:
            fail(f"negative control '{label}' was not counted as failed "
                 f"(clean ok={clean['ok']}, corrupted ok={corrupt['ok']})", 3)
        report.append(label)
    return report


def run_ops(workload, rounds, ctx, seconds: float, tracer) -> SimpleNamespace:
    """Whole rounds for ``seconds``: after the first, a round starts only if one
    more round as long as the last still ends in time.  With a tracer, each
    round also runs traced on the same inputs, alternating which pass goes first."""
    from workloads import TRACE_POINTS, trace_deflation

    records, margins = [], {}
    start = last = time.perf_counter()
    for index, inputs in enumerate(rounds):
        now = time.perf_counter()
        if index and now - start + (now - last) > seconds:
            break
        last = now
        passes = [None] + ([tracer] if tracer is not None else [])
        if index % 2:
            passes.reverse()
        for pass_tracer in passes:
            ctx.tracer = pass_tracer
            if pass_tracer is not None:
                for attr, (name, attrs) in TRACE_POINTS.items():
                    pass_tracer.patch(ctx.lib, attr, name, attrs)
                trace_deflation(pass_tracer)
            try:
                for inp in inputs:
                    op = len(records)
                    first_span = len(tracer.spans) if tracer is not None else 0
                    if pass_tracer is not None:
                        pass_tracer.op = op
                    t0 = time.perf_counter()
                    rec = outcome(workload, inp, lambda: workload.run(inp, ctx))
                    t1 = time.perf_counter()
                    elapsed = t1 - t0
                    if pass_tracer is not None:
                        elapsed -= sum(s.end - s.start for s in tracer.spans[first_span:]
                                       if s.name == "perfbench.traced_only")
                        for key, value in rec["margins"].items():
                            margins[key] = max(margins.get(key, value), value)
                    records.append({"op": op, "start": t0, "end": t1, "s": elapsed,
                                    "traced": pass_tracer is not None,
                                    "input": getattr(inp, "cell", None), **rec})
            finally:
                if pass_tracer is not None:
                    pass_tracer.restore()
    return SimpleNamespace(records=records, start=start, end=time.perf_counter(),
                           margins=margins)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "relroots" / "__init__.py").is_file():
        fail(f"no relroots package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import relroots

    if Path(relroots.__file__).resolve().parent != SRC / "relroots":
        fail(f"imported relroots from {relroots.__file__}, not from {SRC}")

    import hostspeed
    import tracing
    import workloads

    env_record = environment()
    cpu = hostspeed.pin_to_one_cpu()  # before any thread or child starts
    env = child_env()
    ctx = SimpleNamespace(lib=workloads.library(), tracer=None, child_env=env, probe=None)
    controls = run_controls(workloads, ctx)
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    starts = []
    with hostspeed.SpeedProbe() as probe:
        ctx.probe = probe
        if args.trace == 0:
            cold_starts(env, 1)  # writes the bytecode caches
            starts += cold_starts(env, SETUP_STARTS // 2)
        result = run_ops(workload, workload.rounds(args.seed), ctx, args.seconds, tracer)
        if args.trace == 0:
            starts += cold_starts(env, SETUP_STARTS - SETUP_STARTS // 2)
        time.sleep(hostspeed.WINDOW_SLACK_S)  # probes after the last op
    for r in result.records:
        r["speed"] = probe.speed(r["start"], r["end"])
        r["adjusted_s"] = r["s"] * r["speed"]

    measured = [r for r in result.records if not r["traced"]]
    attempted = len(measured)
    passed = sum(r["ok"] for r in measured)
    correct = not any(r["problems"] or r["error"] not in (None, *workload.expected_errors)
                      for r in result.records)
    errors: dict[str, int] = {}
    for r in measured:
        if r["error"]:
            errors[r["error"]] = errors.get(r["error"], 0) + 1

    def end_to_end(op_times, setup_times, run_s) -> dict:
        return {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_s": {"value": harrell_davis(op_times, 0.5), "unit": "s"},
            "op_p90_s": {"value": harrell_davis(op_times, 0.9), "unit": "s"},
            "ops_per_s": {"value": passed / run_s, "unit": "1/s"},
        }

    wall = None
    if args.trace == 0:
        metrics = end_to_end([r["adjusted_s"] for r in measured],
                             [probe.adjusted(a, b) for a, b in starts],
                             probe.adjusted(result.start, result.end))
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(workload.children), "unit": "MB"}
        wall = end_to_end([r["s"] for r in measured], [b - a for a, b in starts],
                          result.end - result.start)
    else:
        traced = [r["adjusted_s"] for r in result.records if r["traced"]]
        overhead = (sum(traced) - sum(r["adjusted_s"] for r in measured)) / len(traced)
        speed_of_op = {r["op"]: r["speed"] for r in result.records}
        metrics = tracing.layer_metrics(tracer.spans, len(traced), overhead, result.margins,
                                        speed_of_op)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    info = {"environment": {**env_record, "pinned_cpu": cpu},
            "host_speed": {"mean": statistics.fmean(probe.speeds), "probes": len(probe.speeds)},
            "errors": errors, "fail_ratio": (attempted - passed) / attempted,
            "wall_metrics": wall,
            "unobservable": tracing.UNOBSERVABLE if args.trace else {}}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "controls": controls, **info, "metrics": metrics, "ops": result.records}
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")

    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - passed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
