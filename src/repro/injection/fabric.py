"""Distributed campaign fabric: shards, coordinator, exactly-once merge.

The paper's characterization rests on >35,000 injections on one rig;
the ROADMAP's north star is millions of sites across many hosts.  This
module is the distribution layer that gets there without giving up the
repo's core invariant — *bit-identical results no matter how the
campaign was executed*:

* **shard planner** — a deterministic campaign plan is split into N
  **content-addressed shards**: shard *i/N* owns the round-robin index
  slice ``{i, i+N, i+2N, ...}`` and is named by a fingerprint derived
  from the plan fingerprint plus ``i/N``.  Any host that can rebuild
  the plan (same kernel, seed, stride) rebuilds the identical shard —
  ``kfabric run --shard i/N`` needs no coordination, just GNU parallel
  or a CI matrix.
* **shard journals** — each shard appends to its own JSONL journal
  whose header binds it to both fingerprints; records carry *global*
  plan indices so journals merge without translation.
* **exactly-once merger** — :func:`merge_shard_journals` combines any
  set of shard journals (including overlapping retries of the same
  shard) into one canonical journal: replayed indices deduplicate via
  :func:`~repro.injection.engine.prefer_result`, torn trailing lines
  from SIGKILLed writers are dropped, and journals from a different
  plan or with a forged shard fingerprint are rejected.  A merged
  N-shard run is bit-identical to the 1-host serial run.
* **coordinator** — :class:`FabricCoordinator` dispatches shards to a
  local worker pool with heartbeat files, lease timeouts, bounded
  retry/backoff, and work stealing (a revoked lease puts the shard
  back on the queue where the next idle worker picks it up and
  *resumes* its journal).  Repeated worker deaths degrade the whole
  fabric to in-process serial execution — the same reformat/reinstall
  rung the per-experiment engine already has, one level up.
* **boot-snapshot store** — :class:`SnapshotStore` content-addresses
  post-boot golden state on (kernel fingerprint, workload, harness
  config) so every shard process — including ones on other hosts
  sharing the directory — skips kernel boot entirely.

See docs/fabric.md for the on-disk formats and protocol details.
"""

import hashlib
import json
import os
import pickle
import random
import signal
import time
import traceback

from repro.injection.engine import (
    CampaignEngine,
    CampaignJournal,
    EngineConfig,
    JournalMismatch,
    plan_fingerprint,
    prefer_result,
    read_journal_lines,
    run_spec_contained,
)
from repro.injection.outcomes import HARNESS_ERROR, InjectionResult

#: Version of the shard-journal header layout.
SHARD_SCHEMA_VERSION = 1

#: Version of the boot-snapshot store's pickle payload (2: golden-run
#: checkpoints and the first-hit map replace the coverage list).
STORE_VERSION = 2

#: How a shard failure is reported in coordinator telemetry.
SHARD_DIED = "shard_died"
SHARD_STALLED = "shard_stalled"


class MergeError(RuntimeError):
    """A shard journal cannot be merged (wrong plan, forged shard)."""


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------

def shard_fingerprint(plan_fp, index, count):
    """Content address of shard *index*/*count* of a plan.

    Folding the shard coordinates into the plan fingerprint means two
    journals merge iff they slice the *same* plan the *same* way; a
    shard of a different campaign, seed, stride or shard count can
    never be mistaken for this one.
    """
    blob = ("%s:%d/%d" % (plan_fp, index, count)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ShardSpec:
    """One shard's identity: which plan, which slice, which name."""

    __slots__ = ("index", "count", "plan_fingerprint", "fingerprint",
                 "n_specs", "indices")

    def __init__(self, index, count, plan_fp, n_specs):
        self.index = index
        self.count = count
        self.plan_fingerprint = plan_fp
        self.fingerprint = shard_fingerprint(plan_fp, index, count)
        self.n_specs = n_specs
        self.indices = tuple(range(index, n_specs, count))

    def __repr__(self):
        return ("ShardSpec(%d/%d of %s: %d specs)"
                % (self.index, self.count, self.plan_fingerprint,
                   len(self.indices)))


def plan_shards(plan_fp, n_specs, count):
    """Split a plan of *n_specs* into *count* content-addressed shards.

    Round-robin assignment: prioritized plans front-load interesting
    sites, so striding balances them across shards instead of handing
    shard 0 all the crashes.  A shard may be empty when
    ``count > n_specs`` — it still has a fingerprint and journals a
    header, so a CI matrix of fixed width handles any plan size.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1, not %d" % count)
    return [ShardSpec(i, count, plan_fp, n_specs)
            for i in range(count)]


# ---------------------------------------------------------------------------
# shard journals
# ---------------------------------------------------------------------------

class ShardJournal(CampaignJournal):
    """A shard's journal: shard header, *global* plan indices.

    Duck-types :class:`~repro.injection.engine.CampaignJournal` for the
    engine (which runs the shard's spec subset under local indices 0..k
    and never sees the mapping).  Inherits the torn-tail truncation,
    exactly-once ``record`` and duplicate-tolerant ``load``.
    """

    def __init__(self, path, shard):
        CampaignJournal.__init__(self, path)
        self.shard = shard
        self._to_local = {g: l for l, g in enumerate(shard.indices)}

    def _check_header(self, header, fingerprint):
        if header.get("type") != "shard_header" \
                or header.get("fingerprint") != fingerprint \
                or header.get("shard_fingerprint") != \
                self.shard.fingerprint:
            raise JournalMismatch(
                "journal %s was written for a different shard "
                "(shard fingerprint %r, expected %r)"
                % (self.path, header.get("shard_fingerprint"),
                   self.shard.fingerprint))

    def _local_index(self, stored_index):
        return self._to_local.get(stored_index)

    def _note_loaded(self, completed):
        self._seen.update(self.shard.indices[i] for i in completed)

    def _header(self, fingerprint, campaign_key, seed, n_specs):
        from repro.injection.campaigns import SPEC_SCHEMA_VERSION
        shard = self.shard
        return {"type": "shard_header",
                "fingerprint": fingerprint,
                "plan_fingerprint": shard.plan_fingerprint,
                "shard_fingerprint": shard.fingerprint,
                "shard_index": shard.index,
                "shard_count": shard.count,
                "shard_size": len(shard.indices),
                "n_specs": shard.n_specs,
                "campaign": campaign_key, "seed": seed,
                "schema_version": SPEC_SCHEMA_VERSION,
                "shard_schema_version": SHARD_SCHEMA_VERSION}

    def _stored_index(self, index):
        return self.shard.indices[index]


def run_shard(harness, campaign_key, specs, seed, byte_stride, shard,
              journal_path, grade=True, jobs=1, resume=True,
              progress=None, timeout=None, retries=2,
              max_worker_failures=3):
    """Execute one shard of a planned campaign; returns
    ``(results, engine_meta)`` with *results* ordered by the shard's
    local index.

    *specs* is the **full** plan (every participant re-plans it
    deterministically); the shard's subset is carved here so a shard
    run on another host journals exactly the same global indices.  By
    default the shard *resumes* its journal, so retrying a killed
    shard re-runs only what is missing.
    """
    subset = [specs[i] for i in shard.indices]
    journal = ShardJournal(journal_path, shard)
    config = EngineConfig(jobs=jobs, timeout=timeout, retries=retries,
                          max_worker_failures=max_worker_failures,
                          journal_path=journal_path, resume=resume)
    engine = CampaignEngine(harness, config)
    return engine.execute(campaign_key, subset, seed, byte_stride,
                          grade=grade, progress=progress,
                          journal=journal)


# ---------------------------------------------------------------------------
# exactly-once merge
# ---------------------------------------------------------------------------

class MergedCampaign:
    """The result of merging shard journals back into one campaign."""

    def __init__(self, plan_fp, campaign, seed, n_specs):
        self.plan_fingerprint = plan_fp
        self.campaign = campaign
        self.seed = seed
        self.n_specs = n_specs
        self.results = {}       # global index -> InjectionResult
        self.replayed = 0       # duplicate records deduplicated away
        self.shards_seen = []   # (shard_index, shard_count) pairs
        self.journals = 0

    @property
    def missing(self):
        return sorted(set(range(self.n_specs)) - set(self.results))

    @property
    def complete(self):
        return not self.missing

    def ordered(self):
        """Results by plan index; raises MergeError when incomplete."""
        if not self.complete:
            raise MergeError(
                "merge is missing %d of %d results (first missing "
                "index %d)" % (len(self.missing), self.n_specs,
                               self.missing[0]))
        return [self.results[i] for i in range(self.n_specs)]

    def write_journal(self, path):
        """Write the canonical merged journal.

        The output is a plain :class:`CampaignJournal` bound to the
        *plan* fingerprint with results in index order — loadable (and
        resumable, should the merge be partial) by the engine exactly
        as if one host had run the whole campaign.
        """
        journal = CampaignJournal(path)
        journal.start(self.plan_fingerprint, self.campaign, self.seed,
                      self.n_specs, fresh=True)
        try:
            for index in sorted(self.results):
                journal.record(index, self.results[index])
        finally:
            journal.close()


def _add_record(merged, global_index, result):
    if global_index in merged.results:
        merged.replayed += 1
        merged.results[global_index] = prefer_result(
            merged.results[global_index], result)
    else:
        merged.results[global_index] = result


def merge_shard_journals(paths, plan_fp=None, n_specs=None):
    """Merge shard journals into one :class:`MergedCampaign`.

    Tolerates: overlapping journals (two attempts of the same shard),
    replayed indices inside one journal, torn trailing lines, empty
    files and header-only journals (a shard that never got to work, or
    an empty shard of an over-sharded plan).  A plain (non-shard)
    campaign journal is accepted as the degenerate 1/1 shard.

    Rejects with :class:`MergeError`: journals of a different plan
    fingerprint, a shard fingerprint that does not derive from its
    claimed coordinates (forged or corrupted header), a record whose
    index does not belong to its shard's slice, and inconsistent
    ``n_specs`` across headers.
    """
    merged = None
    for path in paths:
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            continue
        records, _ = read_journal_lines(path)
        if not records:
            continue            # torn header: the shard wrote nothing
        header = records[0]
        kind = header.get("type")
        if kind == "header":
            index, count = 0, 1
            journal_plan = header.get("fingerprint")
        elif kind == "shard_header":
            index = header.get("shard_index")
            count = header.get("shard_count")
            journal_plan = header.get("plan_fingerprint")
            if header.get("shard_fingerprint") != \
                    shard_fingerprint(journal_plan, index, count):
                raise MergeError(
                    "%s: shard fingerprint %r does not derive from "
                    "plan %r shard %s/%s"
                    % (path, header.get("shard_fingerprint"),
                       journal_plan, index, count))
        else:
            raise MergeError("%s: not a campaign journal (first "
                             "record type %r)" % (path, kind))
        if plan_fp is None:
            plan_fp = journal_plan
        if journal_plan != plan_fp:
            raise MergeError(
                "%s belongs to plan %r, expected %r"
                % (path, journal_plan, plan_fp))
        total = header.get("n_specs")
        if n_specs is None:
            n_specs = total
        if total is not None and total != n_specs:
            raise MergeError("%s: plan has %s specs, expected %s"
                             % (path, total, n_specs))
        if merged is None:
            merged = MergedCampaign(plan_fp, header.get("campaign"),
                                    header.get("seed"), n_specs or 0)
        merged.journals += 1
        merged.shards_seen.append((index, count))
        for record in records[1:]:
            if record.get("type") != "result":
                continue
            global_index = record["index"]
            if global_index % count != index \
                    or not 0 <= global_index < (n_specs or 0):
                raise MergeError(
                    "%s: record index %d does not belong to shard "
                    "%d/%d" % (path, global_index, index, count))
            _add_record(merged, global_index,
                        InjectionResult.from_dict(record["result"]))
    if merged is None:
        if plan_fp is None or n_specs is None:
            raise MergeError("no journals to merge and no plan "
                             "fingerprint/size given")
        merged = MergedCampaign(plan_fp, None, None, n_specs)
    return merged


# ---------------------------------------------------------------------------
# boot-snapshot store
# ---------------------------------------------------------------------------

def kernel_fingerprint(kernel):
    """Stable content address of a built kernel image."""
    digest = hashlib.sha256()
    digest.update(bytes(kernel.code))
    digest.update(("@%d" % kernel.base).encode())
    return digest.hexdigest()[:16]


class SnapshotStore:
    """Content-addressed store of post-boot golden state.

    Booting to the injection point dominates a shard's startup cost;
    the store keys frozen :class:`~repro.injection.runner.GoldenRun`
    bundles (post-boot machine snapshot and the golden run's
    checkpoints, golden workload result, first-hit map, boot cycle
    count) on ``(kernel fingerprint, workload,
    recovery, disk_retries)`` so a kernel/workload pair boots **once**
    per store, not once per shard process.  Entries are written
    atomically and verified against the live kernel on load; a
    corrupt or stale entry silently falls back to a real boot.

    Layout: ``<root>/<key>.golden`` (pickled state bundle) and
    ``<root>/<key>.const.json`` (small calibration constants such as
    the crash-handler overhead).
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------------

    def key(self, kernel, workload, recovery=False, disk_retries=0):
        blob = json.dumps({
            "v": STORE_VERSION,
            "kernel": kernel_fingerprint(kernel),
            "workload": workload,
            "recovery": bool(recovery),
            "disk_retries": int(disk_retries),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def _path(self, key, suffix=".golden"):
        return os.path.join(self.root, key + suffix)

    # -- golden bundles -----------------------------------------------------

    def load(self, key, kernel):
        """Thaw a GoldenRun for *kernel*, or ``None`` on any mismatch."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ValueError):
            return None
        if payload.get("version") != STORE_VERSION \
                or payload.get("kernel") != kernel_fingerprint(kernel):
            return None
        self.hits += 1
        return _thaw_golden(payload, kernel)

    def save(self, key, golden_run):
        """Freeze *golden_run* under *key* (first writer wins)."""
        path = self._path(key)
        if os.path.exists(path):
            return
        os.makedirs(self.root, exist_ok=True)
        self.misses += 1
        payload = _freeze_golden(golden_run)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- calibration constants ----------------------------------------------

    def load_constant(self, kernel, name):
        path = self._path(self.key(kernel, "__%s__" % name),
                          suffix=".const.json")
        try:
            with open(path) as fh:
                return json.load(fh)["value"]
        except (OSError, ValueError, KeyError):
            return None

    def save_constant(self, kernel, name, value):
        from repro.injection.engine import atomic_write_json
        os.makedirs(self.root, exist_ok=True)
        path = self._path(self.key(kernel, "__%s__" % name),
                          suffix=".const.json")
        atomic_write_json(path, {"value": value})


#: MachineSnapshot attributes the store serializes per checkpoint.  The
#: RAM and disk images are stored once (every checkpoint shares the
#: boot snapshot's); the kernel/layout references are re-attached on
#: thaw.  Pickling the checkpoints in one payload keeps the page
#: objects they share shared.
_SNAP_STATE = ("cr3", "paging_enabled", "console", "regs", "segs", "dr",
               "fields", "disk_regs", "pages", "blocks")

#: Golden RunResult fields the store round-trips (a golden run shut
#: down cleanly, so there are no crash records and no trace).
_RESULT_STATE = ("status", "exit_code", "console", "cycles", "instret",
                 "disk_image", "detail")


def _freeze_golden(run):
    boot = run.snapshot
    return {
        "version": STORE_VERSION,
        "kernel": kernel_fingerprint(boot.kernel),
        "workload": run.workload,
        "boot_cycles": run.boot_cycles,
        "first_index": run.first_index,
        "disk_image": bytes(run.disk_image.image)
        if hasattr(run.disk_image, "image") else bytes(run.disk_image),
        "ram": boot.ram,
        "disk": boot.disk,
        "checkpoints": [{name: getattr(snap, name)
                         for name in _SNAP_STATE}
                        for snap in run.checkpoints],
        "result": {name: getattr(run.result, name)
                   for name in _RESULT_STATE},
    }


def _thaw_golden(payload, kernel):
    from repro.machine.machine import MachineSnapshot, RunResult
    from repro.injection.runner import GoldenRun

    checkpoints = []
    for state in payload["checkpoints"]:
        snap = MachineSnapshot.__new__(MachineSnapshot)
        snap.kernel = kernel
        snap.layout = kernel.layout
        snap.ram = payload["ram"]
        snap.disk = payload["disk"]
        for name in _SNAP_STATE:
            setattr(snap, name, state[name])
        checkpoints.append(snap)
    fields = payload["result"]
    result = RunResult(fields["status"], fields["exit_code"],
                       fields["console"], None, fields["cycles"],
                       fields["instret"], fields["disk_image"],
                       detail=fields["detail"])
    return GoldenRun(payload["workload"], result, payload["first_index"],
                     payload["disk_image"], payload["boot_cycles"],
                     checkpoints)


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

class FabricConfig:
    """Tuning knobs for :class:`FabricCoordinator`."""

    __slots__ = ("pool", "shard_jobs", "lease_timeout", "retries",
                 "backoff", "max_worker_failures", "chaos_kills",
                 "chaos_after", "chaos_seed")

    def __init__(self, pool=2, shard_jobs=1, lease_timeout=120.0,
                 retries=2, backoff=0.25, max_worker_failures=None,
                 chaos_kills=0, chaos_after=1, chaos_seed=0):
        self.pool = max(1, int(pool))
        self.shard_jobs = max(1, int(shard_jobs))
        self.lease_timeout = lease_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_worker_failures = max_worker_failures
        #: Chaos mode: SIGKILL this many shard workers mid-run (each
        #: victim dies after journaling *chaos_after* results on its
        #: first attempt), exercising lease revocation, retry-with-
        #: resume and the merger's replay tolerance end to end.
        self.chaos_kills = int(chaos_kills)
        self.chaos_after = max(1, int(chaos_after))
        self.chaos_seed = chaos_seed


def write_heartbeat(path, done, total):
    """Stamp a shard's lease file (atomic: readers never see a tear)."""
    payload = {"time": time.time(), "done": done, "total": total}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def read_heartbeat(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _shard_worker_main(harness, campaign_key, specs, seed, byte_stride,
                       shard, journal_path, heartbeat_path, grade,
                       shard_jobs, chaos_after, conn):
    """One coordinator worker: run a shard, heartbeat as it goes.

    Forked, so the harness (kernel, golden snapshots, snapshot store)
    is inherited copy-on-write.  *chaos_after* arms the self-SIGKILL
    used by the validation exhibit's chaos mode: the worker dies for
    real, mid-run, right after fsyncing its n-th record — the
    coordinator must revoke the lease and a retry must resume the
    journal for the campaign to come out bit-identical.
    """
    try:
        total = len(shard.indices)
        write_heartbeat(heartbeat_path, 0, total)

        def beat(done, _total, result):
            write_heartbeat(heartbeat_path, done, total)
            if chaos_after is not None and done >= chaos_after:
                os.kill(os.getpid(), signal.SIGKILL)

        results, meta = run_shard(
            harness, campaign_key, specs, seed, byte_stride, shard,
            journal_path, grade=grade, jobs=shard_jobs, resume=True,
            progress=beat)
        conn.send(("done", shard.index, len(results),
                   meta.get("worker_failures", 0)))
    except BaseException:
        try:
            conn.send(("failed", shard.index, 0,
                       traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class _ShardTask:
    """Coordinator bookkeeping for one shard."""

    __slots__ = ("shard", "journal_path", "heartbeat_path", "attempts",
                 "chaos_after")

    def __init__(self, shard, workdir):
        self.shard = shard
        name = "shard_%d_of_%d" % (shard.index, shard.count)
        self.journal_path = os.path.join(workdir, name + ".jsonl")
        self.heartbeat_path = os.path.join(workdir, name + ".heartbeat")
        self.attempts = 0
        self.chaos_after = None


class _ShardWorker:
    """A leased shard running in a forked process."""

    __slots__ = ("process", "conn", "task", "leased_at")

    def __init__(self, process, conn, task):
        self.process = process
        self.conn = conn
        self.task = task
        self.leased_at = time.time()

    def last_beat(self):
        beat = read_heartbeat(self.task.heartbeat_path)
        if beat is not None and beat["time"] >= self.leased_at:
            return beat["time"]
        return self.leased_at

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


class FabricCoordinator:
    """Crash-tolerant dispatch of campaign shards to a worker pool."""

    def __init__(self, harness, config=None):
        self.harness = harness
        self.config = config or FabricConfig()

    # -- public entry points -------------------------------------------------

    def run_campaign(self, campaign_key, seed=2003, byte_stride=1,
                     shard_count=3, workdir=None, functions=None,
                     max_per_function=None, max_specs=None, grade=True,
                     static_verdicts=False):
        """Plan a campaign and run it sharded; returns CampaignResults.

        The drop-in fabric counterpart of
        :meth:`~repro.injection.runner.InjectionHarness.run_campaign`:
        identical planning, bit-identical results, different execution
        telemetry under ``meta["engine"]``.
        """
        functions, specs = self.harness.plan_specs(
            campaign_key, functions=functions, seed=seed,
            byte_stride=byte_stride, max_per_function=max_per_function,
            max_specs=max_specs, static_verdicts=static_verdicts)
        results, engine_meta = self.run(campaign_key, specs, seed,
                                        byte_stride, shard_count,
                                        workdir, grade=grade)
        from repro.injection.runner import CampaignResults
        meta = {
            "campaign": campaign_key,
            "functions": sorted({f.name for f in functions}),
            "n_functions": len(functions),
            "seed": seed,
            "byte_stride": byte_stride,
            "injected": len(specs),
            "fingerprint": plan_fingerprint(campaign_key, specs, seed,
                                            byte_stride),
            "engine": engine_meta,
        }
        return CampaignResults(campaign_key, results, meta)

    def run(self, campaign_key, specs, seed, byte_stride, shard_count,
            workdir, grade=True):
        """Run *specs* as *shard_count* shards; returns
        ``(ordered_results, fabric_meta)``."""
        config = self.config
        os.makedirs(workdir, exist_ok=True)
        plan_fp = plan_fingerprint(campaign_key, specs, seed,
                                   byte_stride)
        shards = plan_shards(plan_fp, len(specs), shard_count)
        tasks = {s.index: _ShardTask(s, workdir) for s in shards}
        # Warm the golden runs once in the parent: forked workers
        # inherit the booted snapshots copy-on-write, and a shared
        # snapshot store is populated for out-of-process shards.
        for spec in specs:
            self.harness.assign_workload(spec)
        for workload in sorted({s.workload for s in specs
                                if s.workload}):
            self.harness.golden(workload)
        meta = {
            "mode": "fabric",
            "shards": shard_count,
            "pool": config.pool,
            "plan_fingerprint": plan_fp,
            "worker_failures": 0,
            "stalled_leases": 0,
            "stolen_shards": 0,
            "chaos_killed": [],
            "shard_failures": {},
            "degraded": False,
            "replayed_records": 0,
            "serial_completions": 0,
        }
        self._choose_chaos_victims(shards, tasks, meta)
        if config.pool > 1 and self._fork_available() and shards:
            self._run_pooled(campaign_key, specs, seed, byte_stride,
                             shards, tasks, grade, meta)
        else:
            meta["mode"] = "fabric-serial"
            for shard in shards:
                self._run_shard_inline(campaign_key, specs, seed,
                                       byte_stride, tasks[shard.index],
                                       grade)
        ordered = self._merge_and_backfill(campaign_key, specs, seed,
                                           byte_stride, plan_fp, tasks,
                                           grade, meta)
        meta["harness_errors"] = sum(
            1 for r in ordered if r.outcome == HARNESS_ERROR)
        return ordered, meta

    # -- setup helpers -------------------------------------------------------

    @staticmethod
    def _fork_available():
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()

    def _max_worker_failures(self, shard_count):
        configured = self.config.max_worker_failures
        if configured is not None:
            return max(1, int(configured))
        # Leave headroom for every chaos kill plus the retry budget
        # before the fabric gives up on the pool.
        return (self.config.chaos_kills
                + max(4, 2 * shard_count))

    def _choose_chaos_victims(self, shards, tasks, meta):
        config = self.config
        if not config.chaos_kills:
            return
        eligible = [s.index for s in shards
                    if len(s.indices) > config.chaos_after]
        rng = random.Random("fabric-chaos:%s" % config.chaos_seed)
        victims = sorted(rng.sample(
            eligible, min(config.chaos_kills, len(eligible))))
        for index in victims:
            tasks[index].chaos_after = config.chaos_after
        meta["chaos_killed"] = victims

    # -- serial paths --------------------------------------------------------

    def _run_shard_inline(self, campaign_key, specs, seed, byte_stride,
                          task, grade):
        """Run (or finish) one shard in-process, resuming its journal."""
        run_shard(self.harness, campaign_key, specs, seed, byte_stride,
                  task.shard, task.journal_path, grade=grade, jobs=1,
                  resume=True)

    # -- pooled dispatch -----------------------------------------------------

    def _spawn(self, ctx, task, campaign_key, specs, seed, byte_stride,
               grade):
        chaos_after = task.chaos_after if task.attempts == 0 else None
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_shard_worker_main,
            args=(self.harness, campaign_key, specs, seed, byte_stride,
                  task.shard, task.journal_path, task.heartbeat_path,
                  grade, self.config.shard_jobs, chaos_after,
                  child_conn),
            daemon=True)
        process.start()
        child_conn.close()
        task.attempts += 1
        return _ShardWorker(process, parent_conn, task)

    def _run_pooled(self, campaign_key, specs, seed, byte_stride,
                    shards, tasks, grade, meta):
        from multiprocessing.connection import wait as conn_wait
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        config = self.config
        max_failures = self._max_worker_failures(len(shards))
        queue = [s.index for s in shards]
        not_before = {}
        outstanding = set(queue)
        workers = []
        pool = min(config.pool, max(1, len(queue)))
        try:
            while outstanding:
                if meta["worker_failures"] >= max_failures:
                    # The pool is unhealthy; reformat/reinstall one
                    # level up: tear it down and finish every
                    # unfinished shard serially in-process, resuming
                    # the journals the dead workers left behind.
                    meta["degraded"] = True
                    meta["degraded_reason"] = (
                        "%d worker failures"
                        % meta["worker_failures"])
                    for worker in workers:
                        worker.kill()
                    workers = []
                    for index in sorted(outstanding):
                        self._run_shard_inline(campaign_key, specs,
                                               seed, byte_stride,
                                               tasks[index], grade)
                    outstanding.clear()
                    break
                now = time.monotonic()
                while len(workers) < pool and queue:
                    pick = None
                    for position, index in enumerate(queue):
                        if not_before.get(index, 0) <= now:
                            pick = position
                            break
                    if pick is None:
                        break
                    index = queue.pop(pick)
                    if tasks[index].attempts > 0:
                        # A previously-leased shard going to a new
                        # worker: the idle worker steals the
                        # unfinished journal and resumes it.
                        meta["stolen_shards"] += 1
                    workers.append(self._spawn(ctx, tasks[index],
                                               campaign_key, specs,
                                               seed, byte_stride,
                                               grade))
                if not workers:
                    if queue:
                        time.sleep(min(0.05, config.backoff or 0.05))
                        continue
                    break       # retries exhausted; backfill handles it
                ready = conn_wait([w.conn for w in workers],
                                  timeout=0.1)
                for conn in ready:
                    worker = next(w for w in workers if w.conn is conn)
                    self._drain(worker, workers, outstanding, queue,
                                not_before, meta)
                wall = time.time()
                for worker in list(workers):
                    if not worker.process.is_alive():
                        # Harvest a done message that raced the death.
                        self._drain(worker, workers, outstanding,
                                    queue, not_before, meta,
                                    final=True)
                        if worker in workers:
                            self._shard_fail(worker, SHARD_DIED,
                                             workers, outstanding,
                                             queue, not_before, meta)
                    elif wall - worker.last_beat() \
                            > config.lease_timeout:
                        meta["stalled_leases"] += 1
                        self._shard_fail(worker, SHARD_STALLED,
                                         workers, outstanding, queue,
                                         not_before, meta)
        finally:
            for worker in workers:
                worker.kill()

    def _drain(self, worker, workers, outstanding, queue, not_before,
               meta, final=False):
        try:
            if not worker.conn.poll():
                return
            message = worker.conn.recv()
        except (EOFError, OSError):
            return
        kind, shard_index = message[0], message[1]
        if kind == "done":
            outstanding.discard(shard_index)
            worker.kill()
            if worker in workers:
                workers.remove(worker)
        elif kind == "failed" and not final:
            self._shard_fail(worker, SHARD_DIED, workers, outstanding,
                             queue, not_before, meta,
                             detail=message[3])

    def _shard_fail(self, worker, kind, workers, outstanding, queue,
                    not_before, meta, detail=None):
        """Revoke a shard's lease: retry with backoff or give it up.

        A given-up shard's completed prefix still merges from its
        journal; whatever is missing is backfilled serially at the
        end, so a shard failure can cost wall-clock but never results.
        """
        task = worker.task
        meta["worker_failures"] += 1
        worker.kill()
        if worker in workers:
            workers.remove(worker)
        if task.attempts <= self.config.retries:
            not_before[task.shard.index] = time.monotonic() \
                + self.config.backoff * task.attempts
            queue.append(task.shard.index)
        else:
            failures = meta["shard_failures"]
            failures[str(task.shard.index)] = \
                detail or ("%s after %d attempts"
                           % (kind, task.attempts))
            outstanding.discard(task.shard.index)

    # -- merge + backfill ----------------------------------------------------

    def _merge_and_backfill(self, campaign_key, specs, seed,
                            byte_stride, plan_fp, tasks, grade, meta):
        paths = [tasks[i].journal_path for i in sorted(tasks)]
        merged = merge_shard_journals(paths, plan_fp=plan_fp,
                                      n_specs=len(specs))
        meta["replayed_records"] = merged.replayed
        missing = merged.missing
        if missing:
            # Last rung: whatever no shard delivered runs serially
            # right here, with the engine's harness-fault containment.
            meta["serial_completions"] = len(missing)
            for index in missing:
                merged.results[index] = run_spec_contained(
                    self.harness, specs[index], grade, seed)
        return merged.ordered()
