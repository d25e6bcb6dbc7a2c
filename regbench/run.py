#!/usr/bin/env python3
"""Regret-harness benchmark for conduel.

    python3 regbench/run.py --workload duel-long --seed 0 --seconds 30 --trace 0

Run from the repository root.  Plays the workload's cells through the
library (or, for duel-grid, through ``conduel run``), checks the outputs
against computations made apart from the library, and prints one JSON object
as the last line of stdout.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
times and counts plus the tracing overhead.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

MIN_PASSES = 3  # per-unit medians need three samples; repeats are compared byte for byte
PROBES_PER_PASS = 2  # set-up timings, spread over the run; the median is reported


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: set up, play one round, print 'ready' and exit")
    return p.parse_args(argv)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its first round."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def rate(passes) -> float:
    """Rounds per second: each unit's median time over passes, summed."""
    units = {}
    for pass_units in passes:
        for name, rounds, secs in pass_units:
            units.setdefault(name, (rounds, []))[1].append(secs)
    rounds = sum(r for r, _ in units.values())
    return rounds / sum(statistics.median(s) for _, s in units.values())


def run_passes(wl, seconds, reference, around):
    """Repeat passes until the next one would end more than half a pass past
    ``seconds`` of passes and checks.  ``around(i)`` is a context manager
    entered around pass i; time spent in it outside the pass is not counted.
    Returns (per-pass units, failures, regret_final)."""
    import workloads

    passes, failures = [], []
    first = regret = None
    busy = 0.0
    while True:
        i = len(passes)
        with around(i):
            start = time.perf_counter()
            units, traces = wl.play_pass()
            busy += time.perf_counter() - start
        start = time.perf_counter()
        passes.append(units)
        digest = workloads.trace_digest(traces)
        if first is None:
            first = digest
            failures += wl.check(reference, traces)
            regret = wl.regret_final(traces)
        elif digest != first:
            failures.append(f"pass {i + 1} regret traces differ from pass 1")
        busy += time.perf_counter() - start
        if len(passes) >= MIN_PASSES and busy * (1.0 + 0.5 / len(passes)) >= seconds:
            return passes, failures, regret


def end_to_end(wl, args):
    wl.prepare()
    wl.setup()
    reference = wl.check_run()
    probes, child_kb = [], []

    @contextlib.contextmanager
    def then_probe(i):
        yield
        if i == 0:  # before any probe: the largest child so far is a pool worker
            child_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        probes.extend(time_setup(args.workload, args.seed) for _ in range(PROBES_PER_PASS))

    passes, failures, regret = run_passes(wl, args.seconds, reference, then_probe)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "rounds_per_s": (rate(passes), "1/s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": ((self_kb + child_kb[0]) / 1024.0, "MB"),
        "regret_final": (regret, "regret"),
    }
    return passes, failures, metrics


def traced(wl, args):
    import layers
    from tracing import Tracer

    spill = os.path.join(wl.out_dir, "spill")
    os.makedirs(spill, exist_ok=True)
    tracer = Tracer(spill)
    targets = layers.trace_targets()
    with tracer.tracing(targets):
        wl.prepare()
        wl.setup()
    reference = wl.check_run()
    ranges = []

    @contextlib.contextmanager
    def odd_traced(i):
        if i % 2 == 0:
            yield
            return
        lo = len(tracer.spans)
        with tracer.tracing(targets):
            yield
        tracer.collect_workers()
        ranges.append((lo, len(tracer.spans)))

    passes, failures, _ = run_passes(wl, args.seconds, reference, odd_traced)
    tracer.write(os.path.join(wl.out_dir, "spans.tsv"))
    untraced, traced_rate = rate(passes[0::2]), rate(passes[1::2])
    metrics = layers.per_layer(tracer.spans, ranges)
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced), "%")
    return passes, failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conduel", "__init__.py")):
        print("regbench: conduel sources not found under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"regbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)

    if args.probe:
        wl.setup()
        wl.first_round()
        print("ready", flush=True)
        return 0

    start = time.perf_counter()
    passes, failures, metrics = (traced if args.trace else end_to_end)(wl, args)
    pass_secs = " ".join(f"{sum(u[2] for u in p):.2f}" for p in passes)
    print(f"regbench: {args.workload} seed {args.seed}: {len(passes)} passes [{pass_secs}] s, "
          f"{time.perf_counter() - start:.1f} s in all", file=sys.stderr)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": wl.cells_per_pass * len(passes),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
