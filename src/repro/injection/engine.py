"""Fault-tolerant campaign execution engine.

The paper's rig survives >35,000 injections because the *harness* is
hardened, not just the target: a hardware watchdog reboots wedged
machines, remote power control recovers dead ones, and the worst
crashes trigger an automated reformat/reinstall (Figure 3, §7.1).
This module is the software analogue for the simulated rig:

* **process-isolated workers** — experiments run in forked worker
  processes, each owning its own golden-snapshot clones.  A worker
  that wedges (per-experiment wall-clock watchdog) or dies (SIGKILL,
  interpreter fault) costs one experiment, which is retried with
  backoff in a fresh worker — the watchdog → reboot rungs of the
  paper's recovery ladder.
* **harness-fault containment** — any exception escaping
  ``run_spec`` (e.g. a decoder bug provoked by a corrupted opcode) is
  classified as a :data:`~repro.injection.outcomes.HARNESS_ERROR`
  outcome carrying a serialized repro bundle instead of aborting the
  campaign.
* **journaling + resume** — every completed experiment is appended to
  a JSONL journal keyed by spec index; an interrupted campaign
  restarts from the journal and re-runs only in-flight work.
* **graceful degradation** — after repeated worker failures the
  engine abandons the parallel rig and finishes serially in-process,
  recording the degradation (the reformat/reinstall rung: rebuild the
  rig in its most conservative configuration and carry on).

Specs are planned deterministically up front and results are
journaled with their spec index and reassembled in order, so serial
and parallel execution produce bit-identical result lists for the
same seed.
"""

import hashlib
import json
import os
import tempfile
import time
import traceback

from repro.injection.outcomes import HARNESS_ERROR, InjectionResult

#: Per-experiment wall-clock watchdog (seconds).  Generous: a single
#: simulated experiment is seconds of host time; minutes means the
#: interpreter itself is wedged.
DEFAULT_TIMEOUT = 300.0

#: Seconds to wait for an idle worker to exit at shutdown.
SHUTDOWN_JOIN = 2.0

#: How a worker failure is reported in the HARNESS_ERROR repro bundle.
KIND_EXCEPTION = "harness_exception"
KIND_WORKER_DIED = "worker_died"
KIND_WORKER_TIMEOUT = "worker_timeout"


class EngineConfig:
    """Tuning knobs for :class:`CampaignEngine`."""

    __slots__ = ("jobs", "timeout", "retries", "backoff",
                 "max_worker_failures", "journal_path", "resume")

    def __init__(self, jobs=1, timeout=None, retries=2, backoff=0.25,
                 max_worker_failures=3, journal_path=None, resume=False):
        self.jobs = max(1, int(jobs))
        self.timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_worker_failures = max(1, int(max_worker_failures))
        self.journal_path = journal_path
        self.resume = resume


def _spec_coords(spec):
    """The fingerprint coordinates of one spec.

    The ``fault_model`` dict is appended only when set, so plans of
    the default instruction-stream model keep the exact pre-framework
    fingerprint and old journals still resume.
    """
    coords = [spec.function, spec.instr_addr, spec.byte_offset,
              spec.bit]
    fault_model = getattr(spec, "fault_model", None)
    if fault_model is not None:
        coords.append(fault_model)
    return coords


def plan_fingerprint(campaign_key, specs, seed, byte_stride):
    """Stable digest of a planned campaign (guards ``--resume``)."""
    payload = {
        "campaign": campaign_key,
        "seed": seed,
        "byte_stride": byte_stride,
        "specs": [_spec_coords(s) for s in specs],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def harness_error_result(spec, kind, tb, seed):
    """Build the HARNESS_ERROR result for a failed experiment."""
    return InjectionResult(
        outcome=HARNESS_ERROR,
        activated=False,
        campaign=spec.campaign,
        function=spec.function,
        subsystem=spec.subsystem,
        addr=spec.instr_addr,
        byte_offset=spec.byte_offset,
        bit=spec.bit,
        mnemonic=spec.mnemonic,
        workload=spec.workload,
        detail=kind,
        repro={"kind": kind, "spec": spec.to_dict(),
               "traceback": tb, "seed": seed},
    )


def run_spec_contained(harness, spec, grade, seed):
    """``run_spec`` with harness-fault containment.

    A corrupted instruction stream can provoke bugs in the simulator
    itself; the paper's answer to a broken rig is to recover and move
    on, never to lose the campaign.
    """
    try:
        return harness.run_spec(spec, grade=grade)
    except Exception:
        return harness_error_result(spec, KIND_EXCEPTION,
                                    traceback.format_exc(), seed)


class JournalMismatch(RuntimeError):
    """The on-disk journal belongs to a different campaign plan."""


def read_journal_lines(path):
    """Parse a JSONL journal tolerantly.

    Returns ``(records, clean_size)``: every complete record in file
    order, and the byte offset just past the last complete line.  A
    torn trailing line — the write that was in flight when its writer
    was SIGKILLed — parses as garbage (or as JSON missing its
    terminating newline); it and anything after it is excluded rather
    than raised on, and ``clean_size`` points before it so a writer can
    physically truncate the tear instead of gluing new records onto it.
    """
    records = []
    clean = 0
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for raw in data.splitlines(keepends=True):
        line = raw.strip()
        if line:
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            if not raw.endswith(b"\n"):
                # Complete JSON whose newline never made it to disk:
                # still a tear (an append would corrupt the line), so
                # the record is re-run rather than trusted.
                break
            records.append(record)
        offset += len(raw)
        clean = offset
    return records, clean


def prefer_result(first, second):
    """The canonical result among duplicates journaled for one index.

    Replayed work is deterministic, so duplicates are normally
    byte-identical and the first write wins; the one asymmetry is a
    HARNESS_ERROR placeholder (a retried shard's worker died), which a
    real replayed result displaces.  Deduplication lives here — in the
    journal/merge layer — and nowhere else; the engine *asserts* it
    never completes an index twice instead of quietly tolerating it.
    """
    if first.outcome == HARNESS_ERROR and second.outcome != HARNESS_ERROR:
        return second
    return first


class CampaignJournal:
    """Append-only JSONL record of completed experiments.

    Line 1 is a header binding the journal to a plan fingerprint;
    every further line is ``{"index": i, "result": {...}}``.  Records
    are flushed and fsynced as written, so the journal survives a
    SIGKILL of the whole campaign; a torn final line (the write that
    was in flight) is truncated away on the next ``start`` and simply
    re-run, never raised on and never appended onto.

    Loading deduplicates replayed indices with :func:`prefer_result`
    (exactly-once semantics: retried shards and resumed runs may
    legally replay work; the journal is the single place duplicates
    are resolved).

    The header also records ``schema_version``
    (:data:`~repro.injection.campaigns.SPEC_SCHEMA_VERSION`).  Loading
    tolerates headers without the field (v1, pre-fault-model journals)
    and any version whose records still parse — result fields added
    since simply come back ``None``, so old journals resume cleanly
    under newer code.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._clean_size = None
        self._seen = set()

    # -- reading ------------------------------------------------------------

    def load(self, fingerprint):
        """Return {index: InjectionResult} for a matching journal.

        Raises :class:`JournalMismatch` if the journal on disk was
        written for a different plan.  Returns ``{}`` when no journal
        exists yet.  A journal whose *header* is torn (the writer died
        inside its very first write) counts as empty and is rewritten.
        """
        if not os.path.exists(self.path):
            return {}
        records, self._clean_size = read_journal_lines(self.path)
        if not records:
            return {}
        self._check_header(records[0], fingerprint)
        completed = {}
        for record in records[1:]:
            if record.get("type") != "result":
                continue
            index = self._local_index(record["index"])
            if index is None:
                continue
            result = InjectionResult.from_dict(record["result"])
            if index in completed:
                completed[index] = prefer_result(completed[index],
                                                 result)
            else:
                completed[index] = result
        self._note_loaded(completed)
        return completed

    def _check_header(self, header, fingerprint):
        if header.get("type") != "header" \
                or header.get("fingerprint") != fingerprint:
            raise JournalMismatch(
                "journal %s was written for a different campaign plan "
                "(fingerprint %r, expected %r)"
                % (self.path, header.get("fingerprint"), fingerprint))

    def _local_index(self, stored_index):
        """Map a journaled index to the engine's index space."""
        return stored_index

    def _note_loaded(self, completed):
        self._seen.update(completed)

    # -- writing ------------------------------------------------------------

    def start(self, fingerprint, campaign_key, seed, n_specs,
              fresh=False):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        mode = "a"
        if fresh or not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0:
            mode = "w"
        if mode == "a":
            if self._clean_size is None:
                _, self._clean_size = read_journal_lines(self.path)
            if self._clean_size < os.path.getsize(self.path):
                # Physically drop the torn tail so the next record
                # starts on a fresh line instead of gluing onto the
                # interrupted one (which would poison every later
                # resume past this point).
                with open(self.path, "r+b") as fh:
                    fh.truncate(self._clean_size)
            if self._clean_size == 0:
                mode = "w"
        self._fh = open(self.path, mode)
        if mode == "w":
            self._seen = set()
            self._write(self._header(fingerprint, campaign_key, seed,
                                     n_specs))

    def _header(self, fingerprint, campaign_key, seed, n_specs):
        from repro.injection.campaigns import SPEC_SCHEMA_VERSION
        return {"type": "header", "fingerprint": fingerprint,
                "campaign": campaign_key, "seed": seed,
                "n_specs": n_specs,
                "schema_version": SPEC_SCHEMA_VERSION}

    def _stored_index(self, index):
        """Map an engine index to the journaled index space."""
        return index

    def record(self, index, result):
        stored = self._stored_index(index)
        if stored in self._seen:
            return          # exactly-once: replays never re-journal
        self._seen.add(stored)
        self._write({"type": "result", "index": stored,
                     "result": result.to_dict()})

    def record_carried(self, index, result, provenance):
        """Journal a result carried forward from another campaign's
        journal (see :mod:`repro.staticanalysis.delta`).

        The envelope is a normal result record plus a ``carried``
        provenance block (source journal fingerprint, base/new kernel
        fingerprints); loaders ignore the extra key, so resume and
        shard-merge treat carried results exactly like locally
        executed ones and the exactly-once invariant is shared.
        """
        stored = self._stored_index(index)
        if stored in self._seen:
            return
        self._seen.add(stored)
        self._write({"type": "result", "index": stored,
                     "result": result.to_dict(),
                     "carried": dict(provenance)})

    def record_extrapolated(self, index, result, provenance):
        """Journal a result extrapolated from a class pilot's outcome
        (see :mod:`repro.staticanalysis.equivalence`).

        Same contract as :meth:`record_carried`: a normal result
        record plus an ``extrapolated`` provenance block
        (``{pilot_index, class_fp, n_members}``).  Loaders ignore the
        extra key, so resume and shard-merge treat extrapolated
        results exactly like executed ones and the exactly-once
        invariant is shared.
        """
        stored = self._stored_index(index)
        if stored in self._seen:
            return
        self._seen.add(stored)
        self._write({"type": "result", "index": stored,
                     "result": result.to_dict(),
                     "extrapolated": dict(provenance)})

    def _write(self, record):
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _worker_main(harness, specs, grade, seed, conn):
    """Worker loop: receive a spec index, send back a result dict.

    Runs in a forked child; the harness (kernel, golden snapshots) is
    inherited copy-on-write, so each worker clones golden snapshots
    privately and cannot perturb its siblings.
    """
    try:
        while True:
            index = conn.recv()
            if index is None:
                break
            result = run_spec_contained(harness, specs[index], grade,
                                        seed)
            conn.send((index, result.to_dict()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _Worker:
    """Bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "current", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.current = None     # in-flight spec index
        self.deadline = None

    def assign(self, index, timeout):
        self.current = index
        self.deadline = time.monotonic() + timeout
        self.conn.send(index)

    def kill(self):
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)


class CampaignEngine:
    """Executes a planned campaign resiliently (see module docstring)."""

    def __init__(self, harness, config=None):
        self.harness = harness
        self.config = config or EngineConfig()

    # -- public entry point --------------------------------------------------

    def execute(self, campaign_key, specs, seed, byte_stride, grade=True,
                progress=None, journal=None):
        """Run *specs*; returns ``(results, engine_meta)``.

        ``results`` is ordered by spec index regardless of completion
        order; ``engine_meta`` describes how the run actually went
        (mode, worker failures, degradation, resume) and is the only
        part of a campaign's output that may differ between serial and
        parallel execution.

        *journal* lets a caller supply a pre-built journal object (the
        fabric's :class:`~repro.injection.fabric.ShardJournal` records
        global plan indices under a shard header); by default one is
        constructed from ``config.journal_path``.
        """
        config = self.config
        fingerprint = plan_fingerprint(campaign_key, specs, seed,
                                       byte_stride)
        completed = {}
        if journal is None and config.journal_path is not None:
            journal = CampaignJournal(config.journal_path)
        if journal is not None:
            if config.resume:
                completed = journal.load(fingerprint)
                completed = {i: r for i, r in completed.items()
                             if 0 <= i < len(specs)}
            journal.start(fingerprint, campaign_key, seed, len(specs),
                          fresh=not config.resume)
        meta = {
            "jobs": config.jobs,
            "mode": "parallel" if config.jobs > 1 else "serial",
            "journal": config.journal_path,
            "resumed_results": len(completed),
            "worker_failures": 0,
            "harness_errors": 0,
            "degraded": False,
        }
        pending = [i for i in range(len(specs)) if i not in completed]
        # Deterministic up-front workload assignment; also builds each
        # workload's golden snapshot once in the parent so forked
        # workers inherit it copy-on-write instead of re-booting it.
        for spec in specs:
            self.harness.assign_workload(spec)
        results = dict(completed)
        try:
            if config.jobs > 1 and pending and self._fork_available():
                self._run_parallel(specs, pending, grade, seed, results,
                                   journal, progress, meta)
            else:
                if config.jobs > 1 and pending:
                    meta["degraded"] = True
                    meta["degraded_reason"] = "fork unavailable"
                self._run_serial(specs, pending, grade, seed, results,
                                 journal, progress, meta)
        finally:
            if journal is not None:
                journal.close()
        ordered = [results[i] for i in range(len(specs))]
        meta["harness_errors"] = sum(
            1 for r in ordered if r.outcome == HARNESS_ERROR)
        return ordered, meta

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, specs, pending, grade, seed, results, journal,
                    progress, meta):
        for index in pending:
            result = run_spec_contained(self.harness, specs[index],
                                        grade, seed)
            self._complete(index, result, specs, results, journal,
                           progress)

    # -- parallel path -------------------------------------------------------

    @staticmethod
    def _fork_available():
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()

    def _spawn_worker(self, ctx, specs, grade, seed):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(self.harness, specs, grade, seed, child_conn),
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _run_parallel(self, specs, pending, grade, seed, results,
                      journal, progress, meta):
        from multiprocessing.connection import wait as conn_wait
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        config = self.config
        queue = list(pending)            # indices awaiting a worker
        not_before = {}                  # index -> earliest retry time
        attempts = {}                    # index -> failed attempts
        n_workers = min(config.jobs, max(1, len(pending)))
        workers = [self._spawn_worker(ctx, specs, grade, seed)
                   for _ in range(n_workers)]
        outstanding = set(pending)
        try:
            while outstanding:
                if meta["worker_failures"] >= config.max_worker_failures:
                    # The parallel rig is unhealthy; reformat/reinstall:
                    # tear it down and finish serially in-process.
                    meta["degraded"] = True
                    meta["degraded_reason"] = (
                        "%d worker failures" % meta["worker_failures"])
                    for worker in workers:
                        if worker.current is not None:
                            queue.append(worker.current)
                        worker.kill()
                    workers = []
                    remaining = sorted(set(queue))
                    self._run_serial(specs, remaining, grade, seed,
                                     results, journal, progress, meta)
                    outstanding.clear()
                    break
                self._assign_idle(workers, queue, not_before, config)
                busy = [w for w in workers if w.current is not None]
                if not busy:
                    # Everything runnable is in backoff; wait it out.
                    time.sleep(min(0.05, config.backoff or 0.05))
                    continue
                ready = conn_wait([w.conn for w in busy], timeout=0.1)
                for conn in ready:
                    worker = next(w for w in busy if w.conn is conn)
                    self._drain_worker(worker, specs, results, journal,
                                       progress, outstanding)
                now = time.monotonic()
                for worker in list(workers):
                    if not worker.process.is_alive():
                        # A worker that died *after* sending its result
                        # leaves it sitting in the pipe.  Harvest it
                        # before deciding anything: the experiment is
                        # done and journaled exactly once; re-enqueueing
                        # it would run (and journal) it twice.  An idle
                        # dead worker is retired too — assigning to it
                        # would hit a broken pipe.
                        self._drain_worker(worker, specs, results,
                                           journal, progress,
                                           outstanding)
                        if worker.current is None:
                            self._retire(worker, meta, workers, ctx,
                                         specs, grade, seed)
                        else:
                            self._fail(worker, KIND_WORKER_DIED, specs,
                                       results, journal, progress,
                                       queue, attempts, not_before,
                                       outstanding, meta, workers, ctx,
                                       grade, seed)
                    elif worker.current is not None \
                            and now > worker.deadline:
                        self._fail(worker, KIND_WORKER_TIMEOUT, specs,
                                   results, journal, progress, queue,
                                   attempts, not_before, outstanding,
                                   meta, workers, ctx, grade, seed)
        finally:
            for worker in workers:
                try:
                    if worker.current is None and worker.process.is_alive():
                        worker.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
            for worker in workers:
                if worker.current is None:
                    # An idle worker exits on the sentinel.  One that
                    # died right after delivering the last result may
                    # have ended the loop before the liveness check saw
                    # it; its exit code still counts the death.
                    worker.process.join(timeout=SHUTDOWN_JOIN)
                    if worker.process.exitcode not in (None, 0):
                        meta["worker_failures"] += 1
                worker.kill()

    def _assign_idle(self, workers, queue, not_before, config):
        now = time.monotonic()
        for worker in workers:
            if worker.current is not None or not queue:
                continue
            for position, index in enumerate(queue):
                if not_before.get(index, 0) <= now:
                    queue.pop(position)
                    try:
                        worker.assign(index, config.timeout)
                    except OSError:
                        # Died between the liveness check and the
                        # send; requeue and let the next liveness pass
                        # retire the body.
                        worker.current = None
                        queue.append(index)
                    break

    def _drain_worker(self, worker, specs, results, journal, progress,
                      outstanding):
        try:
            if not worker.conn.poll():
                return          # nothing delivered (yet, or ever)
            index, payload = worker.conn.recv()
        except (EOFError, OSError):
            return              # death; the liveness check handles it
        worker.current = None
        worker.deadline = None
        if index in outstanding:
            result = InjectionResult.from_dict(payload)
            self._complete(index, result, specs, results, journal,
                           progress)
            outstanding.discard(index)

    def _retire(self, worker, meta, workers, ctx, specs, grade, seed):
        """Replace a worker that died *after* delivering its result.

        The death still counts against the failure budget (the rig is
        unhealthy), but the completed experiment is never re-enqueued —
        that is the exactly-once half of the worker-death ladder.
        """
        meta["worker_failures"] += 1
        worker.kill()
        workers.remove(worker)
        if meta["worker_failures"] < self.config.max_worker_failures:
            workers.append(self._spawn_worker(ctx, specs, grade, seed))

    def _fail(self, worker, kind, specs, results, journal, progress,
              queue, attempts, not_before, outstanding, meta, workers,
              ctx, grade, seed):
        """One rung down the recovery ladder for a failed worker."""
        index = worker.current
        meta["worker_failures"] += 1
        worker.kill()
        workers.remove(worker)
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] <= self.config.retries:
            # Retry in a fresh worker after a short backoff.
            not_before[index] = time.monotonic() \
                + self.config.backoff * attempts[index]
            queue.append(index)
        else:
            tb = ("worker failed %d times (last: %s); retries exhausted"
                  % (attempts[index], kind))
            result = harness_error_result(specs[index], kind, tb, seed)
            self._complete(index, result, specs, results, journal,
                           progress)
            outstanding.discard(index)
        if meta["worker_failures"] < self.config.max_worker_failures:
            workers.append(self._spawn_worker(ctx, specs, grade, seed))

    # -- shared plumbing -----------------------------------------------------

    def _complete(self, index, result, specs, results, journal,
                  progress):
        # Exactly-once invariant: deduplication of replayed work lives
        # in the journal/merge layer alone; a second completion here
        # means the dispatch bookkeeping double-ran an experiment.
        if index in results:
            raise RuntimeError(
                "spec index %d completed twice; duplicate indices must "
                "never reach CampaignResults" % index)
        results[index] = result
        if journal is not None:
            journal.record(index, result)
        if progress is not None:
            progress(len(results), len(specs), result)


def atomic_write_json(path, payload):
    """Write *payload* as JSON atomically (temp file + ``os.replace``).

    An interrupted writer can never leave a truncated file behind: the
    replace is atomic on POSIX, so readers see either the old complete
    file or the new complete one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
