#!/usr/bin/env python3
"""End-to-end benchmark of the allocation system.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_requests --seed 1 \\
        --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of one
workload; with ``--trace 1`` it runs the same units once untraced and
once traced and reports each layer's self time.  The last line of
standard output is one JSON object; the lines before it are a table of
every metric with its unit and sample count.  The exit code is 0 only
when every unit passed its correctness check.  See ``README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is import time plus their median.
SETUP_REPS = 3
#: Samples a tail percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10
#: Seconds of unit time between two host-speed samples.
CAL_EVERY_S = 1.0
#: Largest share of traced unit time that may fall outside every layer.
UNATTRIBUTED_SHARE = 0.05


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold_requests", "warm_requests", "budget_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _window(workload, stream, seconds, units=None):
    """Closed loop: send units until ``seconds`` of unit time have passed,
    at least ``workload.code_units`` are done and the last round is whole
    (or exactly ``units`` when given).

    The host's speed is sampled before the first unit and after every
    :data:`CAL_EVERY_S` seconds of unit time; each unit's latency is also
    returned scaled by the mean of the two samples around it.
    """
    results, raw, scaled, pending = [], [], [], []
    before = calibrate.sample()
    while True:
        done = len(results)
        if units is not None:
            stop = done >= units
        else:
            stop = (sum(raw) >= seconds and done >= workload.code_units
                    and done % workload.round_units == 0)
        if pending and (stop or sum(pending) >= CAL_EVERY_S):
            after = calibrate.sample()
            factor = calibrate.REFERENCE_S / ((before + after) / 2)
            scaled += [x * factor for x in pending]
            pending, before = [], after
        if stop:
            return results, raw, scaled
        unit = next(stream)
        t0 = time.perf_counter()
        results.append(workload.run_unit(unit))
        raw.append(time.perf_counter() - t0)
        pending.append(raw[-1])


def _setup(workloads, name, seed, workdir, import_s):
    """Set up SETUP_REPS times from scratch and keep the last set-up.
    Returns it with the raw and the host-scaled ``setup_s``."""
    before = calibrate.sample()
    times = []
    for rep in range(SETUP_REPS):
        workload = workloads.make(name, seed, workdir)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            workload.teardown()
    factor = calibrate.REFERENCE_S / ((before + calibrate.sample()) / 2)
    raw = import_s + statistics.median(times)
    return workload, raw, raw * factor


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean
    of all order statistics.  Where the samples have gaps near the
    quantile, it moves far less from run to run than a single order
    statistic does."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], grid))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def _end_to_end(results, raw, scaled, workload, setup):
    n = len(results)
    verdicts = [r.verdict for r in results]
    code = [r for r in results[:workload.code_units] if r.first]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "latency_p50_s": (hd_quantile(scaled, 0.5), "s", n),
        "throughput_per_s": (n / sum(scaled), "1/s", n),
        "error_rate": (verdicts.count("failed") / n, "ratio", n),
        "infeasible_ratio": (verdicts.count("infeasible") / n, "ratio", n),
        "code_cycles": (sum(r.cycles for r in code), "cycles", len(code)),
        "code_moves": (sum(r.moves for r in code), "instrs", len(code)),
        "peak_rss_mb": (rss, "MB", 1),
        "setup_s": (setup[1], "s", SETUP_REPS),
        "raw.latency_p50_s": (hd_quantile(raw, 0.5), "s", n),
        "raw.throughput_per_s": (n / sum(raw), "1/s", n),
        "raw.setup_s": (setup[0], "s", SETUP_REPS),
        "host_slowdown": (sum(raw) / sum(scaled), "ratio", n),
    }
    p90 = hd_quantile(scaled, 0.9)
    beyond = sum(x > p90 for x in scaled)
    notes = {}
    if beyond >= TAIL_SAMPLES:
        metrics["latency_p90_s"] = (p90, "s", n)
    else:
        notes["latency_p90_s"] = (
            f"omitted: {beyond} of {n} samples lie beyond p90, "
            f"needs {TAIL_SAMPLES}"
        )
    return metrics, notes


def _gate(results):
    """Failed units, and the schedule-dependent lane counts."""
    failed = [r for r in results if r.verdict == "failed"]
    racing = sum(r.schedule_dependent for r in results)
    differ = sum(r.schedule_mismatches for r in results)
    compared = sum(r.comparisons for r in results)
    return failed, compared, racing, differ


def _print_table(title, metrics, notes):
    print(f"== {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit:8s} n={samples}")
    for name, note in notes.items():
        print(f"  {name:28s} {note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The analysis cache must start empty: no on-disk layer.
    os.environ.pop("REPRO_CACHE_DIR", None)

    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        return _run(args, workloads, tracing, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, tracing, import_s, workdir) -> int:
    workload, *setup = _setup(
        workloads, args.workload, args.seed, workdir, import_s
    )
    try:
        half = args.seconds / 2 if args.trace else args.seconds
        results, raw, scaled = _window(workload, workload.stream(), half)
    finally:
        workload.teardown()
    metrics, notes = _end_to_end(results, raw, scaled, workload, setup)
    _print_table(f"{args.workload} seed={args.seed} untraced", metrics, notes)
    failed, compared, racing, differ = _gate(results)
    attempted = len(results)
    problems = [f"unit failed: {r.detail}" for r in failed]

    if args.trace:
        traced = workloads.make(args.workload, args.seed, workdir)
        traced.setup()
        tracer = tracing.Tracer()
        traced.tracer = tracer
        tracer.install()
        try:
            traced_results, traced_raw, traced_scaled = _window(
                traced, traced.stream(), 0, units=len(results)
            )
        finally:
            tracer.uninstall()
            traced.teardown()
        if [r.digest for r in traced_results] != [r.digest for r in results]:
            problems.append("traced digests differ from the untraced run")
        t_failed, *_ = _gate(traced_results)
        problems += [f"traced unit failed: {r.detail}" for r in t_failed]
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"
        ))
        report = tracer.metrics(
            sum(traced_raw), sum(traced_scaled) / sum(scaled)
        )
        wall_s, unattributed_s = (
            report[k][0] for k in ("trace.wall_s", "trace.unattributed_s")
        )
        if unattributed_s > UNATTRIBUTED_SHARE * wall_s:
            problems.append(
                f"{unattributed_s:.3f} s of {wall_s:.3f} s traced is in no "
                f"layer (limit {UNATTRIBUTED_SHARE:.0%})"
            )
        _print_table(
            f"{args.workload} seed={args.seed} traced "
            f"({len(tracer.spans)} spans)",
            {k: (v, unit, len(traced_results))
             for k, (v, unit) in report.items()},
            {},
        )
        out = {k: {"value": v, "unit": unit}
               for k, (v, unit) in report.items()}
        failed_count = len(failed) + len(t_failed)
        attempted += len(traced_results)
    else:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in metrics.items()
               if name in _REPORTED}
        failed_count = len(failed)

    print(f"== gate: {attempted} units, {failed_count} failed; "
          f"{compared} lanes compared, {racing} schedule-dependent "
          f"(two or more {workloads.RACING_KERNEL} threads), "
          f"{differ} of them differed")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": out,
    }))
    return 0 if correct else 1


#: The end-to-end metrics BENCHMARK.json gates: never 0 on a passing
#: run and steady across seeds.  The table prints the others too.
_REPORTED = (
    "latency_p50_s", "throughput_per_s", "code_cycles", "code_moves",
    "peak_rss_mb", "setup_s",
)

if __name__ == "__main__":
    sys.exit(main())
