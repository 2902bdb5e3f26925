"""Spans around the calls the benchmark makes into each ``repro`` layer.

A traced run installs wrappers (:meth:`Tracer.install`) on the public
functions of the layers it times; nothing inside ``src/`` changes.
Every wrapper records one span ``(id, name, start, end, parent, spec,
attrs)`` in memory.  Forked engine workers inherit the wrappers and
append their own spans to a per-process file after every spec, so the
``faults-jobs2`` breakdown covers the workers too.

:func:`layer_metrics` turns the spans into the per-layer metrics named
in ``BENCHMARK.json``; :func:`self_time` and :func:`tail_rank` are the
two rules those metrics rest on.
"""

import builtins
import functools
import json
import os
import re
import statistics
import time

#: Metric names the benchmark may print.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Outcomes a fail-stop harness can produce (``outcome.<o>.*``).
OUTCOMES = ("not_activated", "not_manifested", "fail_silence_violation",
            "crash_dumped", "crash_unknown", "hang", "harness_error")

#: Pluggable fault models (``faults.<kind>.*``).
FAULT_KINDS = ("mem", "reg_trap", "intermittent", "disk")

#: The translator's ``compile()`` filename (``repro.cpu.translate``).
TRANSLATED_FILENAME = "<translated-block>"

#: At least this many samples lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


def check_metric_name(name):
    """Raise ValueError unless *name* fits the metric-name charset."""
    if not METRIC_NAME.match(name):
        raise ValueError("bad metric name %r" % (name,))
    return name


def tail_rank(n):
    """1-based rank of the tail sample among *n* sorted samples.

    The highest rank with at least :data:`TAIL_SAMPLES` samples beyond
    it; with too few samples for that, the lowest rank (1).
    """
    if n < 1:
        raise ValueError("no samples")
    return max(1, n - TAIL_SAMPLES)


def tail_percentile(samples):
    """``(value, percentile)`` of the tail sample of *samples*."""
    ordered = sorted(samples)
    rank = tail_rank(len(ordered))
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, children):
    """Duration of ``[start, end]`` not covered by any child interval.

    Overlapping children are counted once, so the result is never
    negative.
    """
    return (end - start) - covered_length(children, start, end)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "spec", "attrs")

    def __init__(self, id, name, start, parent, spec):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.spec = spec
        self.attrs = {}

    def to_list(self):
        return [self.id, self.name, self.start, self.end, self.parent,
                self.spec, self.attrs]

    @classmethod
    def from_list(cls, row):
        span = cls(row[0], row[1], row[2], row[4], row[5])
        span.end = row[3]
        span.attrs = row[6]
        return span


class Tracer:
    """In-memory span recorder plus the layer wrappers that feed it."""

    def __init__(self, worker_dir):
        self.spans = []
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self._stack = []
        self._next = 0
        self._flushed = 0
        self._in_worker = False
        self._spec_ids = {}

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        spec = parent.spec if parent is not None else None
        span = Span("%d:%d" % (self.pid, self._next), name,
                    time.monotonic(), parent.id if parent else None,
                    spec)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.monotonic()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def parent_name(self):
        return self._stack[-1].name if self._stack else None

    def _after_fork(self):
        # A forked engine worker: its own spans start here, and it
        # flushes them itself because the engine may terminate it.
        self.pid = os.getpid()
        self._in_worker = True
        self._flushed = len(self.spans)

    def flush_worker(self):
        if self._in_worker and self._flushed < len(self.spans):
            done = [s for s in self.spans[self._flushed:]
                    if s.end is not None]
            path = os.path.join(self.worker_dir,
                                "worker-%d.jsonl" % self.pid)
            with open(path, "a") as fh:
                for span in done:
                    fh.write(json.dumps(span.to_list()) + "\n")
            self._flushed = len(self.spans)

    def worker_spans(self):
        """Spans the forked workers flushed to disk."""
        spans = []
        for name in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, name)) as fh:
                spans.extend(Span.from_list(json.loads(line))
                             for line in fh)
        return spans

    # -- wrappers ----------------------------------------------------------------

    @staticmethod
    def _patch(owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr,
                functools.update_wrapper(make(original), original))

    def _timed(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
            return wrapper
        return make

    def install(self, spec_index):
        """Wrap the layer entry points; *spec_index* maps ``id(spec)``
        to the spec's plan index (the span id shared per spec)."""
        import multiprocessing.connection as mpconn

        from repro.injection import engine, faultmodels, runner, severity
        from repro.kernel import build as kbuild
        from repro.machine import machine
        from repro.profiling import sampler
        from repro.userland import build as ubuild

        self._spec_ids = spec_index
        os.register_at_fork(after_in_child=self._after_fork)
        tracer = self

        self._patch(kbuild, "build_kernel", self._timed("kernel.build"))
        self._patch(ubuild, "build_all_programs",
                    self._timed("userland.build"))
        self._patch(sampler, "profile_kernel",
                    self._timed("profiling.profile"))
        self._patch(runner.InjectionHarness, "plan_specs",
                    self._timed("campaigns.plan"))
        self._patch(faultmodels, "plan_fault_model_campaign",
                    self._timed("campaigns.plan"))
        self._patch(machine.MachineSnapshot, "clone",
                    self._timed("machine.clone"))
        self._patch(runner, "grade_severity",
                    self._timed("severity.grade"))
        self._patch(severity, "fsck", self._timed("severity.fsck"))
        self._patch(engine.CampaignJournal, "record",
                    self._timed("engine.journal"))
        self._patch(mpconn, "wait", self._timed("engine.wait"))

        def golden(original):
            def wrapper(harness, workload):
                if workload in harness._golden:
                    return original(harness, workload)
                return tracer.span("runner.golden", original, harness,
                                   workload)
            return wrapper

        def calibrate(original):
            def wrapper(harness):
                if harness._crash_overhead is not None:
                    return original(harness)
                return tracer.span("runner.calibrate", original,
                                   harness)
            return wrapper

        def run_spec(original):
            def wrapper(harness, spec, grade=True):
                span = tracer._open("runner.run_spec")
                span.spec = tracer._spec_ids.get(id(spec))
                model = getattr(spec, "fault_model", None)
                span.attrs["kind"] = model["kind"] if model else "flip"
                # The engine turns an exception escaping run_spec into a
                # HARNESS_ERROR result.
                span.attrs["outcome"] = "harness_error"
                try:
                    result = original(harness, spec, grade=grade)
                    span.attrs["outcome"] = result.outcome
                    return result
                finally:
                    tracer._close(span)
                    tracer.flush_worker()
            return wrapper

        def execute(original):
            def wrapper(eng, *args, **kwargs):
                span = tracer._open("engine.execute")
                span.attrs["jobs"] = eng.config.jobs
                try:
                    results, meta = original(eng, *args, **kwargs)
                    span.attrs["worker_failures"] = meta["worker_failures"]
                    return results, meta
                finally:
                    tracer._close(span)
            return wrapper

        def arm_breakpoint(original):
            def wrapper(m, vaddr, callback):
                def traced_callback(mach):
                    if getattr(mach, "_bench_trigger", None) is None:
                        mach._bench_trigger = (time.monotonic(),
                                               mach.cpu.cycles)
                    return callback(mach)
                return original(m, vaddr, traced_callback)
            return wrapper

        def run(original):
            def wrapper(m, *args, **kwargs):
                role = {"runner.run_spec": "spec",
                        "severity.grade": "reboot"}.get(
                            tracer.parent_name(), "other")
                span = tracer._open("machine.run")
                span.attrs["role"] = role
                cycles0 = m.cpu.cycles
                try:
                    result = original(m, *args, **kwargs)
                finally:
                    tracer._close(span)
                trigger = getattr(m, "_bench_trigger", None)
                span.attrs["cycles"] = result.cycles - cycles0
                if trigger is not None:
                    span.attrs["trigger"] = [trigger[0],
                                             trigger[1] - cycles0]
                if result.translation is not None:
                    span.attrs["translation"] = dict(result.translation)
                return result
            return wrapper

        def compile_(original):
            def wrapper(source, filename, *args, **kwargs):
                if filename != TRANSLATED_FILENAME:
                    return original(source, filename, *args, **kwargs)
                return tracer.span("translate.compile", original, source,
                                   filename, *args, **kwargs)
            return wrapper

        self._patch(runner.InjectionHarness, "golden", golden)
        self._patch(runner.InjectionHarness, "crash_overhead", calibrate)
        self._patch(runner.InjectionHarness, "run_spec", run_spec)
        self._patch(engine.CampaignEngine, "execute", execute)
        self._patch(machine.Machine, "arm_breakpoint", arm_breakpoint)
        self._patch(machine.Machine, "run", run)
        self._patch(builtins, "compile", compile_)


# -- aggregation ------------------------------------------------------------------


def _sum(values):
    return float(sum(values))


def layer_metrics(parent_spans, worker_spans, wall_s):
    """Per-layer metrics (name -> (value, unit)) from a traced run.

    *parent_spans* are the campaign process's spans, *worker_spans* those
    the forked engine workers flushed; *wall_s* is the traced run's
    ``total_s``.
    """
    spans = list(parent_spans) + list(worker_spans)
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return _sum(s.end - s.start for s in named(name))

    def own(span, kids):
        return self_time(span.start, span.end,
                         [(c.start, c.end) for c in kids.get(span.id, ())])

    out = {}

    def put(name, value, unit):
        out[check_metric_name(name)] = (value, unit)

    put("kernel.build_s", total("kernel.build"), "s")
    put("userland.build_s", total("userland.build"), "s")
    put("profiling.profile_s", total("profiling.profile"), "s")
    put("campaigns.plan_s", total("campaigns.plan"), "s")
    put("runner.golden_s", total("runner.golden"), "s")
    put("runner.golden_boots", len(named("runner.golden")), "count")
    put("runner.calibrate_s", total("runner.calibrate"), "s")

    put("machine.clone_s", total("machine.clone"), "s")
    put("machine.clones", len(named("machine.clone")), "count")
    prefix_s = post_s = 0.0
    prefix_cycles = post_cycles = 0
    translation = {"blocks": 0, "hits": 0, "single_steps": 0,
                   "invalidations": 0}
    reboot_s = 0.0
    for run in named("machine.run"):
        role = run.attrs.get("role")
        if role == "spec":
            trigger = run.attrs.get("trigger")
            if trigger is None:
                prefix_s += run.end - run.start
                prefix_cycles += run.attrs["cycles"]
            else:
                prefix_s += trigger[0] - run.start
                post_s += run.end - trigger[0]
                prefix_cycles += trigger[1]
                post_cycles += run.attrs["cycles"] - trigger[1]
        elif role == "reboot":
            reboot_s += run.end - run.start
        for key, value in run.attrs.get("translation", {}).items():
            if key in translation:
                translation[key] += value
    put("machine.prefix_s", prefix_s, "s")
    put("machine.prefix_cycles", prefix_cycles, "cycles")
    put("machine.post_s", post_s, "s")
    put("machine.post_cycles", post_cycles, "cycles")
    cycles = prefix_cycles + post_cycles
    put("cpu.host_ns_per_cycle",
        (prefix_s + post_s) / cycles * 1e9 if cycles else 0.0, "ns/cycle")

    put("translate.compiles", len(named("translate.compile")), "count")
    put("translate.compile_s", total("translate.compile"), "s")
    for key in ("blocks", "hits", "single_steps", "invalidations"):
        put("translate." + key, translation[key], "count")
    dispatches = (translation["hits"] + translation["blocks"]
                  + translation["single_steps"])
    put("translate.hit_frac",
        translation["hits"] / dispatches if dispatches else 0.0, "ratio")

    put("severity.grade_s", total("severity.grade"), "s")
    put("severity.grades", len(named("severity.grade")), "count")
    put("severity.fsck_s", total("severity.fsck"), "s")
    put("severity.reboot_s", reboot_s, "s")

    specs = named("runner.run_spec")
    durations = [s.end - s.start for s in specs]
    put("runner.specs", len(specs), "count")
    if durations:
        tail, pct = tail_percentile(durations)
        put("runner.spec_p50_s", statistics.median(durations), "s")
    else:
        tail = pct = 0.0
        put("runner.spec_p50_s", 0.0, "s")
    put("runner.spec_tail_s", tail, "s")
    put("runner.spec_tail_pct", pct, "%")
    put("runner.self_s", _sum(own(s, children) for s in specs), "s")
    n_errors = 0
    for outcome in OUTCOMES:
        times = [s.end - s.start for s in specs
                 if s.attrs.get("outcome") == outcome]
        if outcome == "harness_error":
            n_errors = len(times)
        put("outcome.%s.n" % outcome, len(times), "count")
        put("outcome.%s.mean_s" % outcome,
            _sum(times) / len(times) if times else 0.0, "s")
    put("harness_error_frac", n_errors / len(specs) if specs else 0.0,
        "ratio")
    for kind in FAULT_KINDS:
        times = [s.end - s.start for s in specs
                 if s.attrs.get("kind") == kind]
        put("faults.%s.n" % kind, len(times), "count")
        put("faults.%s.mean_s" % kind,
            _sum(times) / len(times) if times else 0.0, "s")

    executes = named("engine.execute")
    capacity = _sum((s.end - s.start) * s.attrs.get("jobs", 1)
                    for s in executes)
    put("engine.execute_s", total("engine.execute"), "s")
    put("engine.journal_s", total("engine.journal"), "s")
    put("engine.journal_writes", len(named("engine.journal")), "count")
    put("engine.wait_s", total("engine.wait"), "s")
    put("engine.worker_busy_frac",
        _sum(durations) / capacity if capacity else 0.0, "ratio")
    put("engine.worker_failures",
        sum(s.attrs.get("worker_failures", 0) for s in executes),
        "count")

    parent_children = {}
    for span in parent_spans:
        if span.parent is not None:
            parent_children.setdefault(span.parent, []).append(span)
    accounted = _sum(own(s, parent_children) for s in parent_spans)
    put("trace.unaccounted_s", wall_s - accounted, "s")
    return out
