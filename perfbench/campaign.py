"""One benchmark run's campaign process (started by ``run.py``).

Set-up (kernel and userland builds, profiling, planning, every golden
run the plan needs, crash-overhead calibration), then the campaign:
the planned specs, in an order seeded by ``--seed`` and the pass
number, go through :class:`CampaignEngine` with a fresh journal.
Writes a JSON report with ``time.monotonic()`` stamps, the results
digest and, when traced, every span.

An untraced run repeats the campaign in passes.  Each pass runs in a
child forked from the state set-up left, so every pass does the same
work from the same caches, as a user's one campaign after set-up
would; only the dispatch order within each slice differs from pass
to pass.  Passes go
on while another one fits in ``--seconds``, and there are at least
``--passes``.  A traced run makes one pass in this process.

Usage: python3 perfbench/campaign.py --workload NAME --report PATH
           --scratch DIR [--seed N] [--campaign-seed N] [--passes N]
           [--seconds S] [--trace] [--interpret]
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

from tracing import Tracer
from workloads import CAMPAIGN_SEED, WORKLOADS


def results_digest(results):
    blob = json.dumps([r.to_dict() for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def goldens_digest(harness, workloads):
    """Digest of every golden run used plus the calibrated overhead."""
    rows = []
    for name in sorted(workloads):
        run = harness.golden(name)
        rows.append([name, run.boot_cycles, run.cycles, run.exit_code,
                     run.console,
                     hashlib.sha256(run.final_disk).hexdigest()])
    rows.append(harness.crash_overhead())
    blob = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def dispatch_order(groups, seed, number):
    """Plan indices in the order pass *number* dispatches them.

    *groups* labels each planned spec with its slice.  Slices keep
    their plan order, so the workers of ``faults-jobs2`` end on the
    cheap disk and intermittent specs whatever the seed; the specs of
    one slice are shuffled.
    """
    rng = random.Random("%d/%d" % (seed, number))
    order = []
    for label in dict.fromkeys(groups):
        members = [i for i, g in enumerate(groups) if g == label]
        rng.shuffle(members)
        order.extend(members)
    return order


def peak_rss_mib():
    """Largest RSS of this process and of the children it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def run_pass(harness, workload, key, specs, order, stride, campaign_seed,
             journal_path):
    """One campaign pass; returns ``[seconds, digest, outcomes, meta,
    peak_rss_mib]``.

    *seconds* is the engine's wall time, journal included.
    """
    from repro.injection.engine import CampaignEngine, EngineConfig

    dispatched = [specs[i] for i in order]
    config = EngineConfig(jobs=workload.jobs, journal_path=journal_path)
    start = time.monotonic()
    results, meta = CampaignEngine(harness, config).execute(
        key, dispatched, seed=campaign_seed, byte_stride=stride)
    seconds = time.monotonic() - start
    ordered = [None] * len(specs)
    for position, index in enumerate(order):
        ordered[index] = results[position]
    outcomes = {}
    for result in ordered:
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    return [seconds, results_digest(ordered), outcomes, meta,
            peak_rss_mib()]


def forked_pass(*args):
    """:func:`run_pass` in a child forked from this process's state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(run_pass(*args), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        blob = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not blob:
        raise RuntimeError("campaign pass exited with %d" % code)
    return json.loads(blob)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--report", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seed", type=int, default=CAMPAIGN_SEED)
    parser.add_argument("--campaign-seed", type=int,
                        default=CAMPAIGN_SEED)
    parser.add_argument("--passes", type=int, default=1,
                        help="least number of untraced passes")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="start no further pass that would likely "
                             "end later than this after the first began")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--interpret", action="store_true",
                        help="force the interpreter (reference digests)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    translate = workload.translate and not args.interpret

    tracer = None
    spec_index = {}
    if args.trace:
        tracer = Tracer(os.path.join(args.scratch, "spans"))
        os.makedirs(tracer.worker_dir)
        tracer.install(spec_index)

    from repro.injection.runner import InjectionHarness
    from repro.kernel import build as kbuild
    from repro.profiling import sampler
    from repro.userland import build as ubuild
    from repro.userland.programs import WORKLOADS as PROGRAMS

    kernel = kbuild.build_kernel()
    binaries = ubuild.build_all_programs()
    profile = sampler.profile_kernel(kernel, binaries, PROGRAMS)
    harness = InjectionHarness(kernel, binaries, profile,
                               translate=translate)
    key, specs, stride = workload.plan(harness, args.campaign_seed)
    for spec in specs:
        harness.assign_workload(spec)
    harness.crash_overhead()
    setup_done = time.monotonic()
    setup_rss = peak_rss_mib()

    spec_index.update((id(spec), i) for i, spec in enumerate(specs))
    groups = [(getattr(spec, "fault_model", None) or {}).get("kind")
              for spec in specs]
    passes = []
    while True:
        number = len(passes)
        order = dispatch_order(groups, args.seed, number)
        journal = os.path.join(args.scratch, "journals",
                               "pass%d.jsonl" % number)
        pass_args = (harness, workload, key, specs, order, stride,
                     args.campaign_seed, journal)
        if tracer is not None:
            passes.append(run_pass(*pass_args))
            break
        passes.append(forked_pass(*pass_args))
        elapsed = time.monotonic() - setup_done
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= args.passes and \
                elapsed + typical > args.seconds:
            break
    campaign_end = time.monotonic()

    metas = [p[3] for p in passes]
    report = {
        "setup_done": setup_done,
        "campaign_end": campaign_end,
        "pass_s": [p[0] for p in passes],
        "pass_rss_mib": [p[4] for p in passes],
        "setup_rss_mib": setup_rss,
        "planned": len(specs),
        "translate": translate,
        "digests": [p[1] for p in passes],
        "goldens": goldens_digest(harness, {s.workload for s in specs}),
        "harness_errors": sum(m["harness_errors"] for m in metas),
        "outcomes": passes[-1][2],
        "engine": metas,
        "campaign": key,
        "slices": [list(part) for part in workload.slices],
    }
    if tracer is not None:
        report["spans"] = [s.to_list() for s in tracer.spans]
        report["worker_spans"] = [s.to_list()
                                  for s in tracer.worker_spans()]
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
