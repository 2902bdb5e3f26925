#!/usr/bin/env python3
"""Measure equivalence-class pruning; emit BENCH_equiv.json.

Runs the same seeded campaign slice twice:

* **full** — every planned site injected (the cost the paper's
  methodology pays);
* **equiv** — the equivalence-pruned campaign: only seeded pilots +
  audits boot kernels, class siblings are extrapolated from their
  pilot's outcome, classes the audit catches impure are split and
  re-piloted (see :mod:`repro.staticanalysis.equivalence`).

Reported: the measured injected fraction, the extrapolation accuracy
(fraction of sites whose equiv outcome equals the full run's — the
external ground truth, stricter than the journal's own audit), and
the wall-clock speedup of equiv over full.  The injected fraction is
gated at ``--max-fraction`` (default 0.5): the pruning must actually
prune.

The default slice is the dormancy-heavy fs function the
``equivalence_validation`` exhibit gates (``ext2_free_all_blocks``
at byte stride 1).

Run from the repo root::

    PYTHONPATH=src python3 benchmarks/bench_equiv.py [--smoke]
        [--output PATH] [--jobs N]
"""

import argparse
import os
import sys
import tempfile
import time

from bench_output import write_record

DEFAULT_FUNCTIONS = ("ext2_free_all_blocks",)


def run_benchmarks(campaign="A", seed=2003, stride=1, max_specs=None,
                   functions=DEFAULT_FUNCTIONS, jobs=1):
    from repro.injection.campaigns import select_targets
    from repro.injection.runner import InjectionHarness
    from repro.kernel.build import build_kernel
    from repro.profiling.sampler import profile_kernel
    from repro.userland.build import build_all_programs
    from repro.userland.programs import WORKLOADS

    kernel = build_kernel()
    binaries = build_all_programs()
    profile = profile_kernel(kernel, binaries, WORKLOADS)
    targets = [f for f in select_targets(kernel, profile, campaign)
               if f.name in set(functions)] or None
    workdir = tempfile.mkdtemp(prefix="bench_equiv_")

    record = {"tool": "bench_equiv", "campaign": campaign,
              "seed": seed, "byte_stride": stride,
              "max_specs": max_specs, "jobs": jobs,
              "functions": sorted(functions)}

    full_harness = InjectionHarness(kernel, binaries, profile)
    start = time.perf_counter()
    full = full_harness.run_campaign(campaign, functions=targets,
                                     seed=seed, byte_stride=stride,
                                     max_specs=max_specs, jobs=jobs)
    record["full_s"] = round(time.perf_counter() - start, 3)
    record["boots_full"] = full_harness.boots
    record["n_specs"] = len(full.results)

    # Fresh harness: the equiv run pays its own golden boots and its
    # own static analysis, so the speedup is end-to-end.
    equiv_harness = InjectionHarness(kernel, binaries, profile)
    start = time.perf_counter()
    equiv = equiv_harness.run_campaign(
        campaign, functions=targets, seed=seed, byte_stride=stride,
        max_specs=max_specs, jobs=jobs, equivalence=True,
        journal_path=os.path.join(workdir, "equiv.journal.jsonl"))
    record["equiv_s"] = round(time.perf_counter() - start, 3)
    record["boots_equiv"] = equiv_harness.boots

    matched = sum(1 for a, b in zip(equiv.results, full.results)
                  if a.outcome == b.outcome)
    meta = equiv.meta["equivalence"]
    record["injected"] = meta["injected"]
    record["injected_fraction"] = meta["injected_fraction"]
    record["extrapolated"] = meta["extrapolated"]
    record["audit_accuracy"] = meta["audit_accuracy"]
    record["impure_classes"] = meta["impure_classes"]
    record["splits"] = meta["splits"]
    record["extrapolation_accuracy"] = round(
        matched / len(full.results), 4) if full.results else 1.0
    record["speedup_equiv_vs_full"] = round(
        record["full_s"] / record["equiv_s"], 3)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="default BENCH_equiv.json; with --smoke, "
                             "results/BENCH_equiv.smoke.json")
    parser.add_argument("--campaign", default="A")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--max-specs", type=int, default=None)
    parser.add_argument("--functions", nargs="+",
                        default=list(DEFAULT_FUNCTIONS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--max-fraction", type=float, default=0.5,
                        help="injected-fraction ceiling enforced on "
                             "exit")
    parser.add_argument("--smoke", action="store_true",
                        help="the gated validation slice (CI)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.campaign, args.stride = "A", 1
        args.functions = list(DEFAULT_FUNCTIONS)
        args.max_specs = None
    record = run_benchmarks(campaign=args.campaign, seed=args.seed,
                            stride=args.stride,
                            max_specs=args.max_specs,
                            functions=tuple(args.functions),
                            jobs=args.jobs)
    write_record("equiv", record, args.smoke, args.output)
    status = 0
    if record["injected_fraction"] > args.max_fraction:
        print("GATE FAILED: injected fraction %.4f exceeds %.2f"
              % (record["injected_fraction"], args.max_fraction),
              file=sys.stderr)
        status = 1
    if record["speedup_equiv_vs_full"] < 1.0:
        print("note: equiv run slower than full on this slice "
              "(speedup %.3f)" % record["speedup_equiv_vs_full"],
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
