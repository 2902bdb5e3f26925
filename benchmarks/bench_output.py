"""Where the ``bench_*.py`` scripts write their records.

A full run writes the committed ``BENCH_<name>.json`` at the repository
root.  A ``--smoke`` run (the CI leg) writes
``results/BENCH_<name>.smoke.json`` instead, so smoke-scale numbers
never overwrite the committed ones.  ``--output`` overrides both.

Every record is stamped with a ``provenance`` object: the commit (when
git is available; ``-dirty`` marks uncommitted changes), the Python
version, ``nproc`` and whether it was a smoke run.
"""

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def default_output(name, smoke):
    if smoke:
        return os.path.join("results", "BENCH_%s.smoke.json" % name)
    return "BENCH_%s.json" % name


def git_commit():
    """The checkout's ``HEAD`` commit, or ``None`` without git."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(smoke):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "smoke": bool(smoke),
    }


def write_record(name, record, smoke, output=None):
    """Stamp *record* with its provenance, write it as JSON and echo it
    to stdout; returns the path."""
    record = dict(record, provenance=provenance(smoke))
    path = output or default_output(name, smoke)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    print("wrote %s" % path, file=sys.stderr)
    return path
