#!/usr/bin/env python3
"""Measure the flight recorder's overhead; emit BENCH_trace.json.

Runs the same golden boot + workload three ways — untraced, traced on
the default channels (branch + trap), and traced on every channel
(branch + trap + write + subsys) — and reports best-of-N wall time,
simulated cycles/second and the overhead ratio of each traced
configuration against the untraced baseline.

The acceptance bar for the tracer is an overhead ratio <= 1.5x on the
default channels; ``--gate`` makes the benchmark exit non-zero beyond
a bound so CI can enforce it.

Run from the repo root::

    PYTHONPATH=src python3 benchmarks/bench_trace.py [--smoke]
        [--gate 1.5] [--output PATH]
"""

import argparse
import sys
import time

from bench_output import write_record

#: (label, channels) measured against the untraced baseline.
_CONFIGS = (
    ("default", ("branch", "trap")),
    ("all", ("branch", "trap", "write", "subsys")),
)


def _one_run(kernel, binaries, workload, channels):
    from repro.machine.machine import Machine, build_standard_disk

    machine = Machine(kernel, build_standard_disk(binaries, workload))
    if channels is not None:
        machine.enable_trace(channels=channels)
    start = time.perf_counter()
    result = machine.run(max_cycles=120_000_000)
    elapsed = time.perf_counter() - start
    if result.status != "shutdown" or result.exit_code != 0:
        raise RuntimeError("benchmark run failed: %r" % result)
    return elapsed, result


def _best_of(repeats, kernel, binaries, workload, channels):
    best, trace = None, None
    for _ in range(repeats):
        elapsed, result = _one_run(kernel, binaries, workload, channels)
        if best is None or elapsed < best:
            best, trace = elapsed, result.trace
    return best, result.cycles, trace


def run_benchmarks(workload="syscall", repeats=3):
    from repro.kernel.build import build_kernel
    from repro.userland.build import build_all_programs

    kernel = build_kernel()
    binaries = build_all_programs()

    record = {"tool": "bench_trace", "workload": workload,
              "repeats": repeats}
    base_s, cycles, _ = _best_of(repeats, kernel, binaries, workload,
                                 None)
    base_cps = cycles / base_s
    record["cycles"] = cycles
    record["untraced_s"] = round(base_s, 4)
    record["untraced_cps"] = round(base_cps, 1)

    for label, channels in _CONFIGS:
        traced_s, traced_cycles, trace = _best_of(
            repeats, kernel, binaries, workload, channels)
        if traced_cycles != cycles:
            raise RuntimeError(
                "traced run not cycle-identical: %d vs %d"
                % (traced_cycles, cycles))
        cps = cycles / traced_s
        record["traced_%s_s" % label] = round(traced_s, 4)
        record["traced_%s_cps" % label] = round(cps, 1)
        record["overhead_%s" % label] = round(base_cps / cps, 3)
        record["events_%s" % label] = trace.total_events
        record["dropped_%s" % label] = trace.dropped_events
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="default BENCH_trace.json; with --smoke, "
                             "results/BENCH_trace.smoke.json")
    parser.add_argument("--workload", default="syscall")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="single repeat per configuration (CI)")
    parser.add_argument("--gate", type=float, default=None,
                        help="fail if the default-channel overhead "
                             "ratio exceeds this bound")
    args = parser.parse_args(argv)

    repeats = 1 if args.smoke else args.repeats
    record = run_benchmarks(workload=args.workload, repeats=repeats)
    write_record("trace", record, args.smoke, args.output)
    if args.gate is not None and record["overhead_default"] > args.gate:
        print("GATE FAILED: overhead %.3fx > %.2fx"
              % (record["overhead_default"], args.gate),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
