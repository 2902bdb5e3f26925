"""Golden-run checkpoints: an injection cloned from the last checkpoint
before its trigger must be bit-identical to one cloned from boot.

The reference harnesses here keep only the boot checkpoint (their golden
runs go in one chunk), which is the pre-checkpoint protocol: every
injection replays the whole golden prefix from the post-boot snapshot.
"""

import pytest

from repro.cpu.devices import DiskDevice
from repro.injection import runner
from repro.injection.campaigns import InjectionSpec, select_targets
from repro.injection.faultmodels import FAULT_KINDS, \
    plan_fault_model_campaign
from repro.injection.register_campaign import plan_register_campaign
from repro.injection.runner import BOOT_MARKER, InjectionHarness
from repro.machine.machine import CheckpointRecorder, Machine, \
    MachineSnapshot, build_standard_disk

SEED = 7


def boot_clone_harness(kernel, binaries, profile, workloads, translate):
    """A harness whose goldens keep only checkpoint 0.

    Every golden it will use is run here, under the patch, including
    the one crash-overhead calibration runs.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "TIMER_INTERVAL", None)
        harness = InjectionHarness(kernel, binaries, profile,
                                   translate=translate)
        for workload in sorted(workloads):
            harness.golden(workload)
        harness.crash_overhead()
    return harness


def first_index(harness, spec):
    return harness.golden(spec.workload).first_index[spec.instr_addr]


def campaign_specs(harness):
    """Seeded campaign-A and campaign-C slices."""
    specs = []
    for key in ("A", "C"):
        _, planned = harness.plan_specs(key, seed=SEED, byte_stride=24,
                                        max_specs=8)
        specs.extend(planned)
    return specs


def fault_model_specs(harness):
    """One activated spec per fault model, triggered after boot's
    chunk so a later checkpoint is used."""
    kernel, profile = harness.kernel, harness.profile
    plans = {kind: plan_fault_model_campaign(kernel, profile, kind,
                                             seed=SEED)
             for kind in FAULT_KINDS}
    functions = select_targets(kernel, profile, "C")
    plans["reg"] = [s.to_injection_spec() for s in
                    plan_register_campaign(kernel, functions, seed=SEED)]
    plans["instr"] = []
    for spec in campaign_specs(harness):
        spec = InjectionSpec.from_dict(spec.to_dict())
        spec.fault_model = {"kind": "instr", "v": 1,
                            "bits": [[0, spec.bit], [0, (spec.bit + 3) % 8]]}
        plans["instr"].append(spec)
    chosen = {}
    for kind, specs in sorted(plans.items()):
        for spec in specs:
            if harness.assign_workload(spec) \
                    and first_index(harness, spec) > 0:
                chosen[kind] = spec
                break
    return chosen


@pytest.fixture(scope="module", params=["interp", "translate"])
def pair(request, kernel, binaries, profile):
    """(checkpointed harness, boot-clone harness, specs) per engine."""
    translate = request.param == "translate"
    harness = request.getfixturevalue(
        "translated_harness" if translate else "harness")
    specs = campaign_specs(harness)
    models = fault_model_specs(harness)
    specs.extend(models[kind] for kind in sorted(models))
    for spec in specs:
        harness.assign_workload(spec)
    workloads = {spec.workload for spec in specs}
    boot = boot_clone_harness(kernel, binaries, profile, workloads,
                              translate)
    return harness, boot, specs, models


class TestCheckpointedCloning:
    def test_every_fault_model_is_covered(self, pair):
        _, _, _, models = pair
        assert sorted(models) == sorted(
            ("instr", "mem", "reg", "reg_trap", "intermittent", "disk"))

    def test_slices_start_from_later_checkpoints(self, pair):
        harness, _, specs, _ = pair
        indices = [first_index(harness, spec) for spec in specs
                   if harness.assign_workload(spec)]
        assert max(indices) >= 3
        assert sum(1 for i in indices if i > 0) >= len(indices) // 2

    def test_results_match_boot_clones(self, pair):
        harness, boot, specs, _ = pair
        for spec in specs:
            got = harness.run_spec(spec, grade=False).to_dict()
            want = boot.run_spec(spec, grade=False).to_dict()
            assert got == want, spec

    def test_goldens_match_unchunked_runs(self, pair):
        harness, boot, _, _ = pair
        for workload in boot._golden:
            chunked = harness.golden(workload)
            whole = boot.golden(workload)
            assert len(whole.checkpoints) == 1
            assert len(chunked.checkpoints) > 1
            assert chunked.cycles == whole.cycles
            assert chunked.result.instret == whole.result.instret
            assert chunked.boot_cycles == whole.boot_cycles
            assert chunked.console == whole.console
            assert chunked.final_disk == whole.final_disk
            assert set(chunked.coverage) == set(whole.coverage)
            assert set(whole.first_index.values()) == {0}


class TestCheckpointState:
    def test_hang_keeps_its_watchdog_deadline(self, kernel, binaries,
                                              profile, harness):
        # A campaign-C site whose flip hangs context1 well after boot's
        # chunk: the watchdog must fire at the same cycle whichever
        # checkpoint the run started from.
        _, specs = harness.plan_specs("C", seed=SEED, byte_stride=5)
        spec = specs[69]
        assert harness.assign_workload(spec)
        assert first_index(harness, spec) > 0
        golden = harness.golden(spec.workload)
        boot = boot_clone_harness(kernel, binaries, profile,
                                  {spec.workload}, False)
        got = harness.run_spec(spec, grade=False)
        want = boot.run_spec(spec, grade=False)
        assert got.outcome == "hang"
        assert got.to_dict() == want.to_dict()
        budget = golden.boot_cycles \
            + golden.workload_cycles * harness.watchdog_factor \
            + harness.watchdog_slack
        assert budget <= got.run_cycles < budget + runner.TIMER_INTERVAL

    def test_disk_controller_survives_a_checkpoint(self, harness):
        # Fail the first read after boot, stop between the command and
        # the driver's status read, checkpoint there: the clone must
        # see the error status and finish exactly as the original.
        boot = harness.golden("fstime").snapshot
        faulted = []
        original = boot.clone()
        original.disk.arm_fault(
            DiskDevice.FAULT_TRANSIENT,
            notify=lambda: faulted.append(original.cpu.cycles))
        want = original.run(max_cycles=10_000_000)
        assert faulted
        machine = boot.clone()
        machine.disk.arm_fault(DiskDevice.FAULT_TRANSIENT)
        recorder = CheckpointRecorder(machine, None)
        machine.run(max_cycles=faulted[0] + 1)
        assert machine.disk.status == DiskDevice.STATUS_TRANSIENT
        clone = recorder.take().clone()
        for name in MachineSnapshot.DISK_FIELDS:
            assert getattr(clone.disk, name) == getattr(machine.disk, name)
        got = clone.run(max_cycles=10_000_000)
        assert (got.status, got.exit_code, got.console, got.cycles,
                got.instret, got.disk_image) == \
            (want.status, want.exit_code, want.console, want.cycles,
             want.instret, want.disk_image)

    def test_checkpoints_store_only_changed_pages(self, harness):
        golden = harness.golden("fstime")
        boot = golden.checkpoints[0]
        for previous, current in zip(golden.checkpoints,
                                     golden.checkpoints[1:]):
            assert current.ram is boot.ram
            assert current.disk is boot.disk
            assert len(current.pages) < 64
            for index, page in current.pages.items():
                start = index * len(page)
                assert page != boot.ram[start:start + len(page)]
                if previous.pages.get(index) == page:
                    assert previous.pages[index] is page

    def test_tlb_is_coherent_at_every_checkpoint(self, kernel,
                                                 binaries):
        # Checkpoints do not capture the TLB (clones start cold, as
        # boot clones always have); that is exact only while every
        # cached translation equals a fresh page-table walk.
        class Checked(CheckpointRecorder):
            taken = 0

            def take(self):
                bus = self.machine.bus
                for vpn, entry in bus.tlb.items():
                    assert bus._walk(vpn << 12, False, False) == entry
                Checked.taken += 1
                return super().take()

        machine = Machine(kernel, build_standard_disk(binaries, "spawn"))
        machine.run_until_console(BOOT_MARKER, max_cycles=10_000_000)
        result = machine.run(max_cycles=120_000_000,
                             checkpoints=Checked(machine,
                                                 runner.TIMER_INTERVAL))
        assert result.status == "shutdown"
        assert Checked.taken > 1
