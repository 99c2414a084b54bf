#!/usr/bin/env python3
"""The lambdacol benchmark: seeded workloads, checked answers, named metrics.

    python3 bench/run.py --workload {sparse,dense,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; it measures that checkout's ``src/``.  Each
pass of a workload runs in a fresh process (a closed loop with one client),
because the library memoises shape searches and the census per process and a
run should pay the cold cost a user pays once.  ``--seconds`` sizes the run:
``sparse`` and ``dense`` solve whole rounds of instances, a few rounds to a
pass (``ROUNDS_PER_PASS``), and ``sweep`` makes whole cold passes, as many
as take about ``--seconds`` at this version of the library (``ROUND_S``); a
faster library finishes sooner.

``--trace 0`` prints the end-to-end metrics, each with its unit and sample
count: ``setup_s`` (time to import lambdacol, numpy included, in a fresh
process, taken before every pass and after the last and scaled by the time
of a fixed standard-library import taken beside it, so that the machine's
speed at the moment cancels; the raw lower quartiles go to the log),
``wall_s`` (the timed phase), ``verdict_ms.p50`` and ``verdict_ms.p90``
(per-instance time to an answer; an instance that misses its deadline counts
as the time at which the deadline stopped it), ``decided_frac`` (share
answered within the deadline), ``error_frac`` (share that raised or gave an
answer a check rejected; any error makes the exit status 1) and
``peak_rss_mb`` (ru_maxrss of a pass process, median over
passes).  ``--trace 1`` runs the same inputs once untraced and once traced,
each on half the budget, and prints the per-layer metrics, the tracing
overhead and the time no layer span covers; the spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: ``RESULT_METRICS``
without tracing, every per-layer metric with it.  Seeds 1 to 10 are the
stability seeds; seed 20261017 is held out for validating later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
import tracing
import workloads

WORKLOADS = ("sparse", "dense", "sweep")
# Per-instance deadline.  More than 10 % of sparse and dense instances miss it
# at this version, so verdict_ms.p90 reads the deadline there until the tail
# shrinks; until then a change to the solver's tail shows only in decided_frac.
DEADLINE_S = {"sparse": 0.1, "dense": 0.3, "sweep": 30.0}
# Seconds one round of instances (or one sweep pass) takes at this version.
ROUND_S = {"sparse": 1.8, "dense": 6.5, "sweep": 7.0}
# The end-to-end metrics in the result line.  The verdict percentiles are
# printed but left out: across seeds their quartile spread on sparse and dense
# exceeds the largest regression bound a result metric may have.
RESULT_METRICS = ("setup_s", "wall_s", "decided_frac", "peak_rss_mb")
# Passes of sparse and dense hold this many rounds, so that set-up is
# measured between passes throughout the run.
ROUNDS_PER_PASS = {"sparse": 4, "dense": 1}
# Import probes before each pass and after the last.
SETUP_PER_SLOT = 2
RUN_LIMIT_S = 170.0
OUT_DIR = checkout.ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# One client in one process with no extra threads: without these, numpy's
# BLAS starts a thread per core at import, which competes for the two cores.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

IMPORT_PROBE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""
# Standard-library modules that neither lambdacol nor numpy imports.  On a
# shared 2-core VM the machine's speed swings import times by up to 2x over
# minutes, and much of the swing is common to both imports: over ten runs,
# the quartile spread of lambdacol's import time was 0.30 and that of its
# ratio to this reference, timed in the same slots, 0.17.
REFERENCE_MODULES = ("asyncio", "argparse", "configparser", "csv", "decimal",
                     "difflib", "email.message", "fractions", "html.parser",
                     "http.client", "logging", "tarfile", "unittest",
                     "urllib.request", "uuid", "xml.dom.minidom")
# setup_s reads in seconds on a machine that imports REFERENCE_MODULES in a
# fresh process in this time, about what they take on a 2-core x86-64 VM.
REFERENCE_S = 0.1


class BenchmarkFailure(RuntimeError):
    """A pass process failed or ran out of time."""


def speed_probe_ms():
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for j in range(100_000):
            x += j & 7
        times.append(1000 * (time.perf_counter() - start))
    return statistics.median(times)


def environment():
    """What explains a noisy run on a shared machine; /proc is only read."""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "loadavg": loadavg,
            "speed_probe_ms": speed_probe_ms()}


def import_time(modules):
    """Seconds to import ``modules`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(checkout.SRC), *modules],
        capture_output=True, text=True, timeout=60, check=True, env=CHILD_ENV)
    return float(done.stdout.split()[-1])


def measure_setup():
    """``(lambdacol, reference)`` import times, each pair taken back to back."""
    return [(import_time(["lambdacol"]), import_time(REFERENCE_MODULES))
            for _ in range(SETUP_PER_SLOT)]


def setup_s(probes):
    """lambdacol's import time at the reference speed: the ratio of the lower
    quartiles (load only ever adds time) scaled by ``REFERENCE_S``."""
    own, reference = zip(*probes)
    return REFERENCE_S * quantile(own, 0.25) / quantile(reference, 0.25)


def plan(workload, seed, seconds, trace):
    """The passes of a run, each a list of instances."""
    budget = seconds / 2 if trace else seconds
    count = max(1, round(budget / ROUND_S[workload]))
    if workload == "sweep":
        return [workloads.sweep(seed, k) for k in range(count)]
    instances = getattr(workloads, workload)(seed, count)
    size = ROUNDS_PER_PASS[workload] * workloads.ROUND_SIZE[workload]
    return [instances[i:i + size] for i in range(0, len(instances), size)]


def run_pass(instances, deadline_s, trace, stop_at):
    """Run one pass in a fresh process and return its result."""
    spec = {"instances": [vars(i) for i in instances],
            "deadline_s": deadline_s, "trace": trace}
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(spec),
            capture_output=True, text=True, cwd=checkout.ROOT, env=CHILD_ENV,
            timeout=max(1.0, stop_at - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkFailure("a pass ran past the run's time limit") from None
    if done.returncode != 0:
        raise BenchmarkFailure(f"pass process exited {done.returncode}:\n"
                               f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def quantile(values, q):
    """Interpolated quantile, ``q`` in (0, 1), as statistics.quantiles gives."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def error_frac(records):
    """Share of instances that raised or gave an answer a check rejected."""
    return sum(r["status"] == "error" for r in records) / len(records)


def end_to_end(setup_probes, passes, every_record):
    """``{name: (value, unit, samples)}`` from the untraced passes."""
    records = [r for p in passes for r in p["records"]]
    verdicts = [r["ms"] for r in records]
    n = len(records)
    return {
        "setup_s": (setup_s(setup_probes), "s", len(setup_probes)),
        "wall_s": (sum(p["wall_s"] for p in passes), "s", len(passes)),
        "verdict_ms.p50": (quantile(verdicts, 0.5), "ms", n),
        "verdict_ms.p90": (quantile(verdicts, 0.9), "ms", n),
        "decided_frac": (sum(r["status"] == "decided" for r in records) / n,
                         "fraction", n),
        "error_frac": (error_frac(every_record), "fraction", len(every_record)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB", len(passes)),
    }


def write_spans(workload, seed, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
    with path.open("w") as fh:
        for row in spans:
            fh.write(json.dumps(dict(zip(
                ("name", "start", "end", "parent", "instance", "timed_out"),
                row))) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stop_at = time.monotonic() + RUN_LIMIT_S
    try:
        checkout.require_sources()
    except checkout.MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"env start {json.dumps(environment())}")
    passes = plan(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"inputs workload={args.workload} seed={args.seed} "
          f"passes={len(passes)} instances={sum(map(len, passes))} "
          f"sha256={workloads.digest(passes)}")

    deadline_s = DEADLINE_S[args.workload]
    untraced, traced, setup_probes = [], [], []
    try:
        for instances in passes:
            setup_probes += measure_setup()
            untraced.append(run_pass(instances, deadline_s, False, stop_at))
            if args.trace:
                traced.append(run_pass(instances, deadline_s, True, stop_at))
        setup_probes += measure_setup()
    except BenchmarkFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    records = [r for p in untraced + traced for r in p["records"]]
    errors = [r for r in records if r["status"] == "error"]
    for r in errors[:5]:
        print(f"error {r['id']}: {' | '.join(r['errors'])}", file=sys.stderr)

    own, reference = zip(*setup_probes)
    print(f"env numpy={untraced[0]['numpy']} deadline_s={deadline_s} "
          f"import_s lambdacol={quantile(own, 0.25)!r} "
          f"reference={quantile(reference, 0.25)!r}")
    metrics = end_to_end(setup_probes, untraced, records)
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value!r} {unit} samples={samples}")
    missed = sum(r["status"] == "undecided" for p in untraced for r in p["records"])
    print(f"count undecided {missed} of {metrics['decided_frac'][2]}")
    print(f"count criterion8_inner_window_failures "
          f"{sum(p['inner_window_failures'] for p in untraced)} "
          "(documented in the README, not an error)")

    if args.trace:
        spans = tracing.merge(p["spans"] for p in traced)
        points = [(i.expect["n"], i.expect["t"]) for ps in passes for i in ps
                  if i.kind == "point"]
        orders = [i.expect["n"] for ps in passes for i in ps if i.kind == "census"]
        layer = tracing.layer_metrics(
            spans, sum(p["wall_s"] for p in traced),
            sum(p["wall_s"] for p in untraced), points, orders)
        for m in layer:
            print(f"layer {m['name']} {m['value']!r} {m['unit']}")
        path = write_spans(args.workload, args.seed, spans)
        print(f"spans {len(spans)} written to {path.relative_to(checkout.ROOT)}")
        result = {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in layer}
    else:
        result = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                  for name in RESULT_METRICS}

    print(f"env end {json.dumps(environment())}")
    print(json.dumps({"correct": not errors, "attempted": len(records),
                      "failed": len(errors), "metrics": result}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
