#!/usr/bin/env python3
"""Measure the translated fast path's speedup; emit BENCH_jit.json.

Runs the same boot + workload two ways — through the reference
interpreter and through the block-translation cache
(:mod:`repro.cpu.translate`) — asserts the two legs are
cycle/instret/console-identical, and reports best-of-N wall time,
simulated cycles/second, the speedup ratio and the translation-cache
telemetry.

The workload is the syscall exerciser lengthened to amortize
translation (the cache compiles each hot trace once and the workload
re-executes it thousands of times — the regime campaigns run in).

The acceptance bar for the fast path is a speedup >= 3x on the
syscall workload (target 10x); ``--gate`` makes the benchmark exit
non-zero below a bound so CI can enforce it.

Run from the repo root::

    PYTHONPATH=src python3 benchmarks/bench_jit.py [--smoke]
        [--gate 3.0] [--output PATH]
"""

import argparse
import sys
import time

from bench_output import write_record

#: Workload iteration overrides: long enough that per-trace compile
#: time amortizes and the measured ratio approaches the asymptotic one.
_ITERS = {"syscall": 4000, "fstime": 400, "pipe": 400}


def _fingerprint(result):
    return (result.status, result.exit_code, result.console,
            result.cycles, result.instret)


def _one_run(kernel, binaries, workload, translate):
    from repro.machine.machine import Machine, build_standard_disk

    machine = Machine(kernel, build_standard_disk(binaries, workload),
                      translate=translate)
    start = time.perf_counter()
    result = machine.run(max_cycles=600_000_000)
    elapsed = time.perf_counter() - start
    if result.status != "shutdown" or result.exit_code != 0:
        raise RuntimeError("benchmark run failed: %r" % result)
    return elapsed, result


def _best_of(repeats, kernel, binaries, workload, translate):
    best, kept = None, None
    for _ in range(repeats):
        elapsed, result = _one_run(kernel, binaries, workload,
                                   translate)
        if best is None or elapsed < best:
            best, kept = elapsed, result
    return best, kept


def run_benchmarks(workload="syscall", repeats=3):
    from repro.kernel.build import build_kernel
    from repro.userland.build import build_all_programs

    kernel = build_kernel()
    binaries = build_all_programs(
        iters_overrides={workload: _ITERS.get(workload, 1000)})

    record = {"tool": "bench_jit", "workload": workload,
              "repeats": repeats,
              "workload_iters": _ITERS.get(workload, 1000)}
    # One untimed translated run first: it both warms the in-process
    # template caches (what a campaign's steady state looks like) and
    # provides the bit-identity reference for the interpreter leg.
    _, warm = _one_run(kernel, binaries, workload, True)

    interp_s, interp = _best_of(repeats, kernel, binaries, workload,
                                False)
    if _fingerprint(interp) != _fingerprint(warm):
        raise RuntimeError(
            "translated run not bit-identical: %r vs %r"
            % (_fingerprint(warm), _fingerprint(interp)))
    xlate_s, xlate = _best_of(repeats, kernel, binaries, workload,
                              True)
    if _fingerprint(xlate) != _fingerprint(interp):
        raise RuntimeError(
            "translated run not bit-identical: %r vs %r"
            % (_fingerprint(xlate), _fingerprint(interp)))

    cycles = interp.cycles
    record["cycles"] = cycles
    record["instret"] = interp.instret
    record["interpreter_s"] = round(interp_s, 4)
    record["interpreter_cps"] = round(cycles / interp_s, 1)
    record["translated_s"] = round(xlate_s, 4)
    record["translated_cps"] = round(cycles / xlate_s, 1)
    record["speedup"] = round(interp_s / xlate_s, 3)
    for key, value in (xlate.translation or {}).items():
        record["cache_%s" % key] = value
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="default BENCH_jit.json; with --smoke, "
                             "results/BENCH_jit.smoke.json")
    parser.add_argument("--workload", default="syscall")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="two repeats per engine (CI)")
    parser.add_argument("--gate", type=float, default=None,
                        help="fail if the speedup falls below this "
                             "bound")
    args = parser.parse_args(argv)

    repeats = 2 if args.smoke else args.repeats
    record = run_benchmarks(workload=args.workload, repeats=repeats)
    write_record("jit", record, args.smoke, args.output)
    if args.gate is not None and record["speedup"] < args.gate:
        print("GATE FAILED: speedup %.3fx < %.2fx"
              % (record["speedup"], args.gate), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
