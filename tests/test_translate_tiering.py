"""Tiered translation: a head is interpreted until it is hot.

``BlockCache.run`` interprets a missed dispatch key through
``_step_one`` (a verbatim copy of the interpreter loop body) until the
key has missed ``HOT_THRESHOLD`` times, and only then translates it.
These tests pin the tier boundary exactly, show that a flip landing
while a head is cold is seen by the block compiled when it turns hot,
and check that the threshold never changes a campaign result.
"""

import sys

import pytest

from repro.cpu import translate
from repro.cpu.cpu import WatchdogExpired
from repro.isa.assembler import assemble
from repro.machine.machine import Machine
from tests.test_translate_invalidate import (
    BASE,
    LOOP_SRC,
    both_engines,
    build,
)

SPIN_SRC = """
_start:
spin:
    jmp spin
"""


@pytest.fixture()
def fresh_templates(monkeypatch):
    """Empty process-wide template and code caches, so a test sees
    exactly the compiles its own cache makes."""
    monkeypatch.setattr(translate, "_TEMPLATES", {})
    monkeypatch.setattr(translate, "_MAKE_CACHE", {})


def _run(cache, cpu, budget):
    try:
        cache.run(cpu, budget)
    except WatchdogExpired:
        pass


class TestTierBoundary:
    def test_head_compiles_on_first_miss_after_threshold(
            self, fresh_templates):
        # `spin: jmp spin` dispatches one key per cycle.
        hot = translate.HOT_THRESHOLD
        cpu, _, cache = build(SPIN_SRC, translate=True)
        _run(cache, cpu, hot)
        stats = cache.stats()
        assert stats["blocks"] == 0
        assert stats["cold_steps"] == hot
        assert stats["single_steps"] == hot
        assert stats["compiles"] == 0
        assert not cache.page_ranges
        _run(cache, cpu, hot + 1)
        stats = cache.stats()
        assert stats["blocks"] == 1
        assert stats["compiles"] == 1
        assert stats["template_hits"] == 0
        assert stats["cold_steps"] == hot
        assert list(cache.blocks) == [(cpu.bus.tlb_gen, BASE, 0)]

    def test_second_cache_binds_the_template(self, fresh_templates):
        hot = translate.HOT_THRESHOLD
        for expected in ({"compiles": 1, "template_hits": 0},
                         {"compiles": 0, "template_hits": 1}):
            cpu, _, cache = build(SPIN_SRC, translate=True)
            _run(cache, cpu, hot + 1)
            stats = cache.stats()
            assert stats["blocks"] == 1
            assert {k: stats[k] for k in expected} == expected

    def test_flush_clears_heat(self):
        cpu, _, cache = build(SPIN_SRC, translate=True)
        _run(cache, cpu, 3)
        assert cache.heat == {(cpu.bus.tlb_gen, BASE, 0): 3}
        cache.flush()
        assert cache.heat == {}


class TestColdFlip:
    def test_flip_while_cold_is_seen_when_hot(self):
        # Flip the `add eax, 1` immediate to 3 at cycle 40, in the
        # tenth pass of the four-instruction loop, long before it turns
        # hot: no block exists to invalidate, so the flip reaches the
        # compiled block only through discovery.
        program = assemble(LOOP_SRC, base=BASE)
        target = program.symbols["target"]
        assert 10 < translate.HOT_THRESHOLD < 200
        fp_i, fp_t, cache = both_engines(
            LOOP_SRC, [(40, [(target + 2, 1, 3)])])
        assert fp_i == fp_t
        stats = cache.stats()
        assert stats["invalidations"] == 0
        assert stats["blocks"] > 0 and stats["hits"] > 0
        assert fp_i[0][0] > 200


def _dicts(results):
    return [r.to_dict() for r in results]


class TestCampaignResults:
    def test_threshold_never_changes_results(self, translated_harness,
                                             monkeypatch):
        # The campaign-C slice perfbench's campC-xlate workload runs.
        runs = {}
        for label, hot in (("zero", 0),
                           ("default", translate.HOT_THRESHOLD),
                           ("never", sys.maxsize)):
            monkeypatch.setattr(translate, "HOT_THRESHOLD", hot)
            runs[label] = _dicts(translated_harness.run_campaign(
                "C", seed=2003, byte_stride=32, max_specs=8))
        assert len(runs["default"]) == 8
        assert runs["zero"] == runs["default"] == runs["never"]

    def test_acceptance_slice_runs_generated_code(
            self, translated_harness, monkeypatch):
        # The campaign-A leg of test_translate_differential's seeded
        # slice runs in forked workers; replay every 14th spec here to
        # see that the default threshold still sends it through
        # translated blocks.
        totals = {"blocks": 0, "hits": 0}
        run = Machine.run

        def counting_run(machine, *args, **kwargs):
            result = run(machine, *args, **kwargs)
            for key in totals:
                totals[key] += result.translation[key]
            return result

        _, specs = translated_harness.plan_specs(
            "A", seed=2003, byte_stride=18, max_specs=140)
        sample = specs[::14]
        # Goldens and the calibration run first, so that only the
        # injected runs are counted.
        for spec in sample:
            translated_harness.assign_workload(spec)
        translated_harness.crash_overhead()
        monkeypatch.setattr(Machine, "run", counting_run)
        for spec in sample:
            translated_harness.run_spec(spec, grade=False)
        assert totals["blocks"] > 0
        assert totals["hits"] > 0
