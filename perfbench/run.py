"""End-to-end campaign benchmark.

Runs one workload (see workloads.py) as a seeded fault-injection
campaign in a fresh process, checks its results digest against the
recorded reference, and prints every metric with its unit.  After one
set-up, an untraced run times passes of the campaign for ``--seconds``
and reports their median.  The last
line of standard output is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.

Usage (from the repository root):
    python3 perfbench/run.py --workload campC-xlate --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload campC-xlate --record
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import Span, check_metric_name, layer_metrics
from workloads import CAMPAIGN_SEED, MIN_PASSES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
#: Run outputs, journals and the run history (git-ignored).
STATE_DIR = ".perfbench"
#: The campaign process must finish within this many seconds.
CHILD_TIMEOUT = 170
#: ``prctl`` option that makes orphaned descendants this process's
#: children, so that it can wait for them.
PR_SET_CHILD_SUBREAPER = 36


class BenchError(Exception):
    """A run that must fail loudly instead of reporting numbers."""


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def source_digest(root):
    """Digest of the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                             recursive=True))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def adopt_orphans():
    """Become the subreaper of every process this one starts."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_process_group(proc):
    """Kill the campaign's process group and wait for every process."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # Pass children and engine workers left orphaned by the kill.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_campaign_process(root, args, workload, scratch):
    """Run campaign.py; returns ``(report, t0)``."""
    report_path = os.path.join(scratch, "report.json")
    env = dict(os.environ)
    # No bytecode cache either: every run compiles the sources alike.
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, os.path.join(HERE, "campaign.py"),
               "--workload", workload.name, "--report", report_path,
               "--scratch", scratch, "--seed", str(args.seed),
               "--campaign-seed", str(args.campaign_seed),
               "--passes", str(1 if args.record else MIN_PASSES),
               "--seconds", str(0 if args.record else args.seconds)]
    if args.trace:
        command.append("--trace")
    if args.record:
        command.append("--interpret")
    t0 = time.monotonic()
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("campaign process exceeded %d s" % CHILD_TIMEOUT)
    finally:
        # Also on SIGTERM (see main): never leave the campaign, its
        # pass children or their engine workers running.
        stop_process_group(proc)
    if code != 0:
        raise BenchError("campaign process exited with %d" % code)
    with open(report_path) as fh:
        return json.load(fh), t0


def check_results(report, reference):
    """Raise BenchError unless the run's results are the expected ones."""
    if len(set(report["digests"])) != 1:
        raise BenchError("passes disagree: %s" % report["digests"])
    if reference is None:
        return "no reference for this campaign seed"
    if report["planned"] != reference["specs"]:
        raise BenchError("planned %d specs, reference has %d"
                         % (report["planned"], reference["specs"]))
    if report["goldens"] != reference["goldens"]:
        raise BenchError("golden runs differ from the reference: %s != %s"
                         % (report["goldens"], reference["goldens"]))
    if report["digests"][0] != reference["results"]:
        raise BenchError("results digest %s != reference %s (%s)"
                         % (report["digests"][0], reference["results"],
                            reference["engine"]))
    return "matched %s reference" % reference["engine"]


def history_path(root):
    return os.path.join(root, STATE_DIR, "history.jsonl")


def untraced_median(root, key, baseline):
    """Median untraced ``total_s`` of earlier runs of this source and
    slice in this checkout, else the recorded baseline."""
    values = []
    path = history_path(root)
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                if row["key"] == key:
                    values.append(row["total_s"])
    if values:
        return statistics.median(values), "history(%d)" % len(values)
    return baseline, "baseline"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CAMPAIGN_SEED,
                        help="seeds the spec dispatch order")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int,
                        default=CAMPAIGN_SEED,
                        help="seeds the campaign plan (default %(default)s)")
    parser.add_argument("--record", action="store_true",
                        help="record the interpreter's digests as the "
                             "reference for this workload and campaign "
                             "seed in references.json")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: run from the repository root (no src/repro "
              "in %s)" % root, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    adopt_orphans()
    references = load_references()
    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=state)
    try:
        report, t0 = run_campaign_process(
            root, args, workload, scratch)
    except BenchError as exc:
        print("perfbench: FAILED: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    seed_key = str(args.campaign_seed)
    if args.record:
        entry = {"results": report["digests"][0],
                 "goldens": report["goldens"],
                 "specs": report["planned"],
                 "engine": "interpreter",
                 "outcomes": report["outcomes"]}
        references["digests"].setdefault(workload.name, {})[seed_key] = \
            entry
        with open(REFERENCES, "w") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("recorded %s seed %s: %s" % (workload.name, seed_key,
                                           entry["results"]),
              file=sys.stderr)
        return 0
    reference = references["digests"].get(workload.name, {}).get(seed_key)
    try:
        verdict = check_results(report, reference)
    except BenchError as exc:
        print("perfbench: RESULTS WRONG: %s" % exc, file=sys.stderr)
        return 1

    setup_s = report["setup_done"] - t0
    pass_s = statistics.median(report["pass_s"])
    # Largest RSS of the set-up process and, in a typical pass, of the
    # pass process and the engine workers it forked.
    peak_rss = max(report["setup_rss_mib"],
                   statistics.median(report["pass_rss_mib"]))
    # The wait for one campaign's journal, setup included.
    total_s = setup_s + pass_s
    executed = report["planned"] * len(report["pass_s"])
    history_key = [workload.name, report["slices"], args.campaign_seed,
                   source_digest(root)]
    if args.trace:
        base, base_source = untraced_median(
            root, history_key,
            references["baseline"][workload.name]["total_s"])
        metrics = layer_metrics(
            [Span.from_list(row) for row in report["spans"]],
            [Span.from_list(row) for row in report["worker_spans"]],
            total_s)
        metrics["trace.overhead"] = (total_s / base, "ratio")
    else:
        base_source = None
        metrics = {
            "setup_s": (setup_s, "s"),
            "specs_per_s": (report["planned"] / pass_s, "specs/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        with open(history_path(root), "a") as fh:
            fh.write(json.dumps({"key": history_key,
                                 "total_s": total_s}) + "\n")

    provenance = {
        "workload": workload.name,
        "commit": git_commit(root),
        "source_digest": history_key[-1],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "campaign_seed": args.campaign_seed,
        "campaign": report["campaign"],
        "slices": report["slices"],
        "seconds": args.seconds,
        "pass_s": report["pass_s"],
        "total_s": total_s,
        "jobs": workload.jobs,
        "translate": report["translate"],
        "check": verdict,
        "outcomes": report["outcomes"],
    }
    if base_source is not None:
        provenance["overhead_base"] = base_source
    result = {
        "correct": report["harness_errors"] == 0,
        "attempted": executed,
        "failed": report["harness_errors"],
        "metrics": {check_metric_name(name): {"value": value,
                                              "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    out_dir = os.path.join(state, "runs")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "%s-seed%d-trace%d-%d.json" % (
        workload.name, args.seed, args.trace, time.time_ns()))
    with open(out_path, "w") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "engine": report["engine"],
                   "spans": report.get("spans"),
                   "worker_spans": report.get("worker_spans")}, fh)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-34s %16.6f %s" % (name, value, unit))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
