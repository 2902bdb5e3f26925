#!/usr/bin/env python3
"""Measure fabric shard scaling + snapshot reuse; emit BENCH_fabric.json.

Runs the same seeded campaign slice three ways and reports wall time
and kernel-boot counts:

* **serial** — the plain one-process engine (baseline);
* **fabric cold** — N shards on a worker pool with an empty
  boot-snapshot store (boots once per kernel/workload pair, freezes
  the post-boot state);
* **fabric warm** — the same N shards over the now-populated store
  (**zero** boots: every shard thaws the frozen state).

The acceptance criterion is in the boot counters: ``boots_warm`` must
be 0 and ``boots_cold`` must equal the number of distinct
kernel/workload pairs (+1 for the crash-overhead calibration boot on
the serial baseline), i.e. boot cost is paid once per pair, not once
per shard.  All three runs must serialize bit-identically; the
benchmark refuses to report timings for non-identical results.

Run from the repo root::

    PYTHONPATH=src python3 benchmarks/bench_fabric.py [--smoke]
        [--shards 3] [--output PATH]
"""

import argparse
import os
import sys
import tempfile
import time

from bench_output import write_record


def run_benchmarks(campaign="A", seed=2003, stride=40, max_specs=36,
                   shards=3, pool=2):
    from repro.injection.fabric import (
        FabricConfig,
        FabricCoordinator,
        SnapshotStore,
    )
    from repro.injection.runner import InjectionHarness
    from repro.kernel.build import build_kernel
    from repro.profiling.sampler import profile_kernel
    from repro.userland.build import build_all_programs
    from repro.userland.programs import WORKLOADS

    kernel = build_kernel()
    binaries = build_all_programs()
    profile = profile_kernel(kernel, binaries, WORKLOADS)
    workdir = tempfile.mkdtemp(prefix="bench_fabric_")
    store = SnapshotStore(os.path.join(workdir, "snapshots"))

    record = {"tool": "bench_fabric", "campaign": campaign,
              "seed": seed, "byte_stride": stride,
              "max_specs": max_specs, "shards": shards, "pool": pool}

    serial_harness = InjectionHarness(kernel, binaries, profile)
    start = time.perf_counter()
    serial = serial_harness.run_campaign(campaign, seed=seed,
                                         byte_stride=stride,
                                         max_specs=max_specs)
    record["serial_s"] = round(time.perf_counter() - start, 3)
    record["n_specs"] = len(serial.results)
    record["boots_serial"] = serial_harness.boots
    baseline = [r.to_dict() for r in serial.results]
    workloads = {r.workload for r in serial.results if r.workload}
    record["workloads"] = sorted(workloads)

    def fabric_run(label, harness):
        coordinator = FabricCoordinator(harness,
                                        FabricConfig(pool=pool))
        begin = time.perf_counter()
        results = coordinator.run_campaign(
            campaign, seed=seed, byte_stride=stride,
            max_specs=max_specs, shard_count=shards,
            workdir=os.path.join(workdir, label))
        record["%s_s" % label] = round(time.perf_counter() - begin, 3)
        record["boots_%s" % label] = harness.boots
        if [r.to_dict() for r in results] != baseline:
            raise RuntimeError(
                "%s fabric results are not bit-identical to serial; "
                "refusing to report timings" % label)

    fabric_run("cold", InjectionHarness(kernel, binaries, profile,
                                        snapshot_store=store))
    record["store_entries"] = store.misses
    fabric_run("warm", InjectionHarness(kernel, binaries, profile,
                                        snapshot_store=store))
    record["store_hits"] = store.hits
    record["speedup_warm_vs_serial"] = round(
        record["serial_s"] / record["warm_s"], 3)
    record["boot_cost_eliminated"] = record["boots_warm"] == 0
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="default BENCH_fabric.json; with --smoke, "
                             "results/BENCH_fabric.smoke.json")
    parser.add_argument("--campaign", default="A")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--stride", type=int, default=40)
    parser.add_argument("--max-specs", type=int, default=36)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--pool", type=int, default=2)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller slice (CI)")
    args = parser.parse_args(argv)

    max_specs = 12 if args.smoke else args.max_specs
    record = run_benchmarks(campaign=args.campaign, seed=args.seed,
                            stride=args.stride, max_specs=max_specs,
                            shards=args.shards, pool=args.pool)
    write_record("fabric", record, args.smoke, args.output)
    if not record["boot_cost_eliminated"]:
        print("GATE FAILED: warm-store fabric run booted %d times "
              "(want 0)" % record["boots_warm"], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
