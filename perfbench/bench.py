"""Set-up, timed passes, metrics and the result record of one benchmark run.

``run.py`` is the entry point; it caps the BLAS threads before this module
(and with it numpy) is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

import numpy

import checks
import spans
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
PROBE_INTERVAL_S = 0.02
PROBE_ROUNDS = 150
# the probe's best time on an idle 2-vCPU 2.1 GHz Xeon host with numpy 2.4;
# normalized times read as seconds on that host with nothing else running
PROBE_NOMINAL_S = 0.46e-3

# name -> (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "us_per_cell_step": ("us", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "adm_probes_per_s": ("1/s", "higher"),
    "hyp_dirs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_frac": ("frac", "lower"),
}
# The end-to-end metrics every workload has; the result line carries these.
GATED = ("setup_s", "wall_s", "op_ms_p50", "peak_rss_mb")
# per-layer metrics besides each span's .ms, .self_ms and .calls
LAYER_EXTRAS = {"solver.steps": "count", "solver.cell_steps": "count",
                "cli.bytes_written": "bytes", "cli.nan_fields": "count",
                "constitutive.newton_iters": "count",
                "trace.wall_ms": "ms", "trace.remainder_ms": "ms", "trace_overhead_frac": "frac"}


def per_layer_units() -> dict:
    units = {}
    for span in spans.SPANS:
        units.update({f"{span}.ms": "ms", f"{span}.self_ms": "ms", f"{span}.calls": "count"})
    units.update(LAYER_EXTRAS)
    return units


def git_sha(root: str) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import():
    """Import the package anew: its modules are dropped so their code runs again.

    numpy and other dependencies stay loaded; their import time depends on
    the host's file cache, not on this package.
    """
    for name in [n for n in sys.modules if n == "elastocons" or n.startswith("elastocons.")]:
        del sys.modules[name]
    import elastocons.cli
    return elastocons


class SpeedProbe:
    """Samples the host's speed during timed calls with a fixed reference kernel.

    On a shared host, other tenants slowed every instruction by up to 2.3
    times for minutes at a time, with no steal time to show for it.  While started, a
    timer fires every 20 ms of wall time and its SIGALRM handler, which runs
    between the program's bytecodes, times 150 numpy calls on a 3x3 matrix:
    the same mix of interpreter and small-numpy work as the package's hot
    loops.  The mean of those times over a call, against PROBE_NOMINAL_S, is
    how much slower the host ran during that call.
    """

    def __init__(self):
        self.samples = []
        self._matrix = numpy.eye(3) + 0.1

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            float(numpy.linalg.det(self._matrix))
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def time_call(cli, call, probe=None) -> dict:
    """Time one CLI call, then check its outputs outside the timed region.

    With a probe, ``seconds`` excludes the probe's own time and ``probe_s`` is
    the probe's mean time during the call (None if the call was too short).
    """
    shutil.rmtree(call.out, ignore_errors=True)
    t0 = time.perf_counter()
    if probe:
        probe.start()
    try:
        code = cli.main(call.argv())
    except Exception:  # a crash is a failed operation, not the end of the run
        code, crash = None, traceback.format_exc(limit=3)
    finally:
        if probe:
            probe.stop()
    seconds = time.perf_counter() - t0
    ticks = probe.samples if probe else []
    rec = {"label": call.label, "mode": call.mode, "seconds": seconds - sum(ticks),
           "probe_s": statistics.mean(ticks) if ticks else None,
           "exit": code, "known_defect": call.known_defect, "cells": call.cells,
           "steps": 0, "bytes": 0, "nan_fields": 0}
    if code is None:
        rec["problems"] = [f"raised: {crash}"]
        return rec
    problems = checks.check_exit(code, call.expected_exit)
    if not problems:
        try:
            problems = call.check(call.out)
            if call.mode == "simulate":
                monitors = checks.read_csv(os.path.join(call.out, "monitors.csv"))
                rec["steps"] = int(monitors["step"][-1])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    rec["problems"] = problems
    if os.path.isdir(call.out):
        rec["bytes"] = checks.bytes_written(call.out)
        rec["nan_fields"] = checks.count_nan_fields(call.out)
    return rec


def run_pass(package, workload, tracer, probe, traced: bool) -> dict:
    """One pass; traced passes run the shims and no probe, untraced the reverse."""
    t0 = time.perf_counter()
    if traced:
        tracer.install(package)
    try:
        calls = [time_call(package.cli, c, None if traced else probe) for c in workload.calls]
    finally:
        tracer.uninstall()
    return {"traced": traced, "wall_s": sum(c["seconds"] for c in calls),
            "elapsed_s": time.perf_counter() - t0, "calls": calls}


def end_to_end(passes, setups) -> tuple:
    """All nine end-to-end metrics (None where a workload has no such work).

    Every timing is normalized: a call's or set-up's time is divided by the
    host slowdown the probe saw during it, or by the run's mean slowdown when
    it was too short to be probed.  Timings are medians over the run.
    """
    calls = [c for p in passes for c in p["calls"]]
    probed = [x["probe_s"] for x in calls + setups if x["probe_s"] is not None]
    run_probe = statistics.mean(probed) if probed else PROBE_NOMINAL_S

    def normalized(seconds, probe_s):
        return seconds * PROBE_NOMINAL_S / (probe_s or run_probe)

    for c in calls:
        c["norm_s"] = normalized(c["seconds"], c["probe_s"])
    norm = [c["norm_s"] for c in calls]
    m = dict.fromkeys(END_TO_END)
    m["setup_s"] = statistics.median(normalized(x["seconds"], x["probe_s"]) for x in setups)
    m["wall_s"] = statistics.median(sum(c["norm_s"] for c in p["calls"]) for p in passes)
    m["op_ms_p50"] = statistics.median(norm) * 1e3
    if all(c["mode"] == "simulate" and c["steps"] for c in calls):
        m["us_per_cell_step"] = statistics.median(
            sum(c["norm_s"] for c in p["calls"]) / sum(c["cells"] * c["steps"] for c in p["calls"])
            for p in passes) * 1e6
    tail = stats.tail_percentile(norm)
    if tail is not None:
        m["op_ms_tail"] = tail[1] * 1e3
    adm = [c["norm_s"] for c in calls if c["mode"] == "admissibility"]
    if adm:
        m["adm_probes_per_s"] = workloads.PROBES * len(adm) / sum(adm)
    hyp = [c["norm_s"] for c in calls if c["mode"] == "hyperbolicity"]
    if hyp:
        m["hyp_dirs_per_s"] = checks.N_DIRECTIONS * len(hyp) / sum(hyp)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["fail_frac"] = sum(bool(c["problems"]) for c in calls) / len(calls)
    samples = {"passes": len(passes), "calls": len(calls),
               "host_slowdown": run_probe / PROBE_NOMINAL_S,
               "op_ms_tail_percentile": tail[0] if tail else None}
    return m, samples


def per_layer(tracer, traced, untraced) -> dict:
    """Per-pass means over the traced passes.

    The overhead compares the best traced pass with the best untraced one in
    raw seconds (without the probe's time), so it carries the host's noise.
    """
    n = len(traced)
    out = {}
    for span in spans.SPANS:
        out[f"{span}.ms"] = tracer.total[span] * 1e3 / n
        out[f"{span}.self_ms"] = tracer.self_time[span] * 1e3 / n
        out[f"{span}.calls"] = tracer.calls[span] / n
    calls = [c for p in traced for c in p["calls"]]
    out["solver.steps"] = sum(c["steps"] for c in calls) / n
    out["solver.cell_steps"] = sum(c["steps"] * c["cells"] for c in calls) / n
    out["cli.bytes_written"] = sum(c["bytes"] for c in calls) / n
    out["cli.nan_fields"] = sum(c["nan_fields"] for c in calls) / n
    out["constitutive.newton_iters"] = tracer.edges[spans.NEWTON_EDGE] / n
    wall_ms = sum(p["wall_s"] for p in traced) * 1e3 / n
    out["trace.wall_ms"] = wall_ms
    out["trace.remainder_ms"] = wall_ms - tracer.self_sum() * 1e3 / n
    out["trace_overhead_frac"] = (min(p["wall_s"] for p in traced)
                                  / min(p["wall_s"] for p in untraced) - 1.0)
    return out


def print_table(args, m, samples, failures):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {samples['passes']}  calls {samples['calls']}  "
          f"host slowdown {samples['host_slowdown']:.3f}")
    for name, (unit, _) in END_TO_END.items():
        shown = "n/a" if m[name] is None else f"{m[name]:.6g} {unit}"
        if name == "op_ms_tail":
            pct = samples["op_ms_tail_percentile"]
            shown += f"  (p{pct:g} of n={samples['calls']})" if pct else "  (n < 20)"
        print(f"  {name:<18} {shown}")
    for label, problems, known in failures:
        print(f"  {'known defect' if known else 'FAILED'}: {label}: {'; '.join(problems)}")


def run(args, blas_threads: int) -> int:
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    tracer = spans.Tracer()
    kinds = (False, True) if args.trace else (False,)
    passes, reps = [], []
    with SpeedProbe() as probe:
        # one set-up: a fresh import of the package, the configs and the warm-up
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            probe.start()
            try:
                package = fresh_import()
                wl = workloads.build(args.workload, work, args.seed)
                codes = [(c, package.cli.main(c.argv())) for c in wl.warmup]
            finally:
                probe.stop()
            reps.append({"seconds": time.perf_counter() - t0 - sum(probe.samples),
                         "probe_s": statistics.mean(probe.samples) if probe.samples else None})
            for call, code in codes:
                if code != call.expected_exit:
                    print(f"error: warm-up call {call.label} exited {code}", file=sys.stderr)
                    return 1

        start = time.perf_counter()
        while True:
            traced = kinds[len(passes) % len(kinds)]
            passes.append(run_pass(package, wl, tracer, probe, traced))
            if len(passes) < len(kinds):
                continue
            # stop when the next pass, as long as the median one of its kind, would overrun
            upcoming = kinds[len(passes) % len(kinds)]
            guess = statistics.median(p["elapsed_s"] for p in passes if p["traced"] == upcoming)
            if time.perf_counter() - start + guess > args.seconds:
                break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m, samples = end_to_end(untraced, reps)
    calls = [c for p in passes for c in p["calls"]]
    failures = list(dict.fromkeys((c["label"], tuple(c["problems"]), bool(c["known_defect"]))
                                  for c in calls if c["problems"]))
    failed = sum(bool(c["problems"]) for c in calls)
    # a failure the program is known to have (listed with its cause in
    # workloads.py) counts in `failed`; any other failure makes the run incorrect
    correct = not any(c["problems"] and not c["known_defect"] for c in calls)

    if args.trace:
        units = per_layer_units()
        values = per_layer(tracer, traced, untraced)
    else:
        units = {name: END_TO_END[name][0] for name in GATED}
        values = {name: m[name] for name in GATED}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "numpy": numpy.__version__,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "blas_threads": blas_threads,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "setup": reps,
        "end_to_end": {name: {"value": m[name], "unit": END_TO_END[name][0]}
                       for name in END_TO_END},
        "samples": samples,
        "per_layer": metrics if args.trace else None,
        "missing_shims": tracer.missing,
        "correct": correct, "attempted": len(calls), "failed": failed,
        "passes": passes,
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    print_table(args, m, samples, failures)
    if tracer.missing:
        print(f"  shims not installed (attribute gone): {', '.join(tracer.missing)}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0
