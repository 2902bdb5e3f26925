"""The benchmark's workloads: which campaign slice, which engine, how
many engine workers.

A workload's plan is fixed by its campaign seed (default
:data:`CAMPAIGN_SEED`, the paper-reproduction default) and its strides;
the benchmark's ``--seed`` only permutes the order in which the planned
specs are dispatched (see README.md for why).
"""

#: Campaign seed every workload plans with unless told otherwise.
CAMPAIGN_SEED = 2003

#: An untraced run makes at least this many passes of its slice.
MIN_PASSES = 3


class Workload:
    """One named workload: a single engine campaign.

    *slices* is a tuple of ``(kind, stride)``: an instruction campaign
    key (``"A"``/``"C"``, stride = ``byte_stride``) or a fault-model kind
    (stride = every n-th spec of the model's plan).  Several fault-model
    slices run as one campaign, so the engine's workers drain a single
    queue.
    """

    def __init__(self, name, slices, translate, jobs, why):
        self.name = name
        self.slices = slices
        self.translate = translate
        self.jobs = jobs
        self.why = why

    def plan(self, harness, campaign_seed):
        """``(campaign_key, specs, byte_stride)`` of the campaign."""
        from repro.injection import faultmodels

        if len(self.slices) == 1 and \
                self.slices[0][0] not in faultmodels.CAMPAIGN_KEYS:
            key, stride = self.slices[0]
            _, specs = harness.plan_specs(key, seed=campaign_seed,
                                          byte_stride=stride)
            return key, specs, stride
        specs = []
        for kind, stride in self.slices:
            specs.extend(faultmodels.plan_fault_model_campaign(
                harness.kernel, harness.profile, kind,
                seed=campaign_seed)[::stride])
        return "F", specs, 1


WORKLOADS = {w.name: w for w in (
    Workload("campC-xlate", (("C", 32),), translate=True, jobs=1,
             why="campaign C translated, serial: cold trace compiles, "
                 "fail-silence violations and fsck grading; the golden "
                 "prefix re-run on every spec"),
    Workload("faults-jobs2",
             (("mem", 32), ("reg_trap", 20), ("intermittent", 16),
              ("disk", 6)),
             translate=False, jobs=2,
             why="every fault model, interpreter, two forked engine "
                 "workers: data/register/disk faults at function "
                 "entries; dispatch and journal on the hot path"),
)}
