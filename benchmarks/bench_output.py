"""Where the ``bench_*.py`` scripts write their records.

A full run writes the committed ``BENCH_<name>.json`` at the repository
root.  A ``--smoke`` run (the CI leg) writes
``results/BENCH_<name>.smoke.json`` instead, so smoke-scale numbers
never overwrite the committed ones.  ``--output`` overrides both.
"""

import json
import os
import sys


def default_output(name, smoke):
    if smoke:
        return os.path.join("results", "BENCH_%s.smoke.json" % name)
    return "BENCH_%s.json" % name


def write_record(name, record, smoke, output=None):
    """Write *record* as JSON, echo it to stdout; returns the path."""
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
