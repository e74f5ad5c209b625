"""Cross-engine differential fuzzer: generation, checking, bug detection."""

from dataclasses import replace

import pytest

from repro.coproc.metrics import Metrics
from repro.core.engine import FULL_ENGINE
from repro.validation.difftest import (
    BASELINE_ENGINE,
    DEFAULT_POLICIES,
    FAST_ENGINES,
    CaseSpec,
    CompiledCase,
    EngineSpec,
    PhaseSpec,
    check_case,
    fuzz_seeds,
    generate_case,
)
from repro.validation.fingerprint import fingerprint_sections


class TestGeneration:
    def test_deterministic(self):
        assert generate_case(42) == generate_case(42)

    def test_distinct_seeds_distinct_cases(self):
        specs = {generate_case(seed) for seed in range(20)}
        assert len(specs) > 1

    def test_cases_compile(self):
        for seed in range(5):
            compiled = CompiledCase(generate_case(seed))
            assert any(program is not None for program in compiled.programs)

    def test_engine_matrix_is_complete(self):
        # 2^6 combinations minus the baseline: sixty-three fast variants,
        # no dupes, every axis on in half of the product.
        assert len(FAST_ENGINES) == 63
        assert BASELINE_ENGINE not in FAST_ENGINES
        assert len(set(FAST_ENGINES)) == 63
        assert sum(1 for engine in FAST_ENGINES if engine.event_wheel) == 32
        assert sum(1 for engine in FAST_ENGINES if engine.batch_exec) == 32
        assert sum(1 for engine in FAST_ENGINES if engine.lane_shards) == 32

    def test_key_engines_are_valid_matrix_members(self):
        from repro.validation.difftest import KEY_ENGINES

        # The full stack plus one leave-one-out per layer.
        assert len(KEY_ENGINES) == 7
        assert len(set(KEY_ENGINES)) == len(KEY_ENGINES)
        assert KEY_ENGINES[0] == FULL_ENGINE
        for engine in KEY_ENGINES:
            assert engine in FAST_ENGINES

    def test_default_policies_cover_every_sharing_mode(self):
        from repro.core.policies import POLICIES_BY_KEY

        modes = {POLICIES_BY_KEY[key].mode for key in DEFAULT_POLICIES}
        assert len(modes) == 3


class TestCleanEngines:
    def test_fuzz_seeds_clean(self):
        # A small always-on slice of the CI sweep: every engine must be
        # bit-identical to the interpreter on these cases.
        report = fuzz_seeds(range(3))
        assert report.clean, "\n".join(str(d) for d in report.divergences)
        assert report.cases == 3
        assert report.runs == 3 * len(DEFAULT_POLICIES) * (len(FAST_ENGINES) + 1)

    def test_audited_run_matches_unaudited(self):
        compiled = CompiledCase(generate_case(11))
        plain = fingerprint_sections(compiled.run("occamy", BASELINE_ENGINE))
        audited = fingerprint_sections(
            compiled.run("occamy", BASELINE_ENGINE, audit=True)
        )
        assert plain == audited


#: Shrunk regression case: under CTS, the quantum switch lands on a cycle
#: the event wheel had skipped — one component is asleep when
#: ``_cts_arbitrate`` rotates ownership, forcing the mid-cycle wake-all
#: path.  An early wheel engine dropped the re-slept component's
#: switch-cycle overhead from its frozen journal, shorting ``overhead`` by
#: one entry per re-sleep; this spec reproduced it in all eight wheel
#: engines.
CTS_SWITCH_DURING_SKIP = CaseSpec(
    seed=0,
    cores=(
        (PhaseSpec(comp=17, reads=1, extra_loads=0, stores=3, trip=96, repeats=2),),
        (PhaseSpec(comp=14, reads=1, extra_loads=0, stores=1, trip=96, repeats=2),),
    ),
)

WHEEL_ENGINES = tuple(engine for engine in FAST_ENGINES if engine.event_wheel)


class TestCtsSwitchDuringSkip:
    def test_spec_exercises_a_mid_skip_switch(self, monkeypatch):
        """The pinned case really does switch quantum while a component
        sleeps — otherwise it regresses nothing."""
        from repro.core.machine import Machine
        from repro.core.policies import policy

        sleeper_counts = []
        original = Machine._wake_all_mid_cycle

        def spy(self, cycle):
            sleeper_counts.append(sum(1 for a in self._awake if not a))
            return original(self, cycle)

        monkeypatch.setattr(Machine, "_wake_all_mid_cycle", spy)
        compiled = CompiledCase(CTS_SWITCH_DURING_SKIP)
        machine = Machine(
            compiled.config,
            policy("cts"),
            compiled.jobs(),
            engine=replace(FULL_ENGINE, pre_decode=False),
        )
        machine.run()
        assert machine.coproc.cts_switches > 0
        assert any(count > 0 for count in sleeper_counts)

    def test_wheel_engines_stay_bit_exact(self):
        divergences = check_case(
            CTS_SWITCH_DURING_SKIP, policies=("cts",), engines=WHEEL_ENGINES
        )
        assert not divergences, "\n".join(str(d) for d in divergences)


#: Pinned hard case for the batch-execute backend.  The 30-seed sweep came
#: up clean, so this spec was crafted rather than shrunk: under FTS the
#: rename-hungry core and the store-flooding core together drive the batch
#: planner through every mid-scan abort it models with shadow state —
#: shared-pool RENAME exhaustion, STORE_QUEUE saturation, ISSUE_BUDGET
#: splits and DEPENDENCY head-blocks — the paths where a planner that
#: peeked at live state (or replayed the scan out of order) would diverge.
BATCH_PLANNER_PRESSURE = CaseSpec(
    seed=0,
    cores=(
        (PhaseSpec(comp=12, reads=6, extra_loads=6, stores=8, trip=512, repeats=1),),
        (PhaseSpec(comp=1, reads=1, extra_loads=0, stores=14, trip=512, repeats=1),),
    ),
)

BATCH_ENGINES = tuple(engine for engine in FAST_ENGINES if engine.batch_exec)


class TestBatchPlannerPressure:
    def test_spec_exercises_the_planner_abort_paths(self):
        """The pinned case really does hit rename and store-queue walls
        while dispatching in batches — otherwise it regresses nothing."""
        from repro.coproc.metrics import StallReason
        from repro.core.machine import Machine
        from repro.core.policies import policy

        compiled = CompiledCase(BATCH_PLANNER_PRESSURE)
        machine = Machine(
            compiled.config,
            policy("fts"),
            compiled.jobs(),
            engine=replace(FULL_ENGINE, event_wheel=False),
        )
        machine.run()

        stalls = {}
        for core in range(machine.config.num_cores):
            for reason, count in machine.metrics.stalls[core].items():
                stalls[reason] = stalls.get(reason, 0) + count
        assert stalls.get(StallReason.RENAME, 0) > 0
        assert stalls.get(StallReason.STORE_QUEUE, 0) > 0
        assert machine.profile.batched_dispatch_calls > 0
        # Nothing in this spec is irregular: the backend must never have
        # had to fall back to per-lane dispatch.
        assert machine.profile.scalar_dispatch_calls == 0

    def test_batch_engines_stay_bit_exact(self):
        divergences = check_case(
            BATCH_PLANNER_PRESSURE, policies=("fts",), engines=BATCH_ENGINES
        )
        assert not divergences, "\n".join(str(d) for d in divergences)

    def test_audited_batch_run_matches_unaudited(self):
        # The invariant auditor walks renamer/scoreboard state after every
        # batched commit and allocation; it must observe nothing the scalar
        # path would not have produced.
        all_on = EngineSpec(
            pre_decode=True,
            fast_forward=True,
            fast_path=True,
            event_wheel=True,
            batch_exec=True,
        )
        compiled = CompiledCase(BATCH_PLANNER_PRESSURE)
        plain = fingerprint_sections(compiled.run("fts", all_on))
        audited = fingerprint_sections(compiled.run("fts", all_on, audit=True))
        assert plain == audited


class TestBugDetection:
    @pytest.fixture()
    def lossy_fast_forward(self, monkeypatch):
        """Inject a bug: the idle fast-forward forgets the elided cycles'
        metric increments, so every fast-forwarding engine diverges from
        the interpreter in the stall/overhead accounting."""
        monkeypatch.setattr(
            Metrics, "replay_idle_cycles", lambda self, times: None
        )

    def test_fuzzer_catches_injected_bug(self, lossy_fast_forward):
        spec = generate_case(0)
        divergences = check_case(spec, policies=("occamy",))
        assert divergences, "injected metrics bug went undetected"
        labels = {d.engine for d in divergences}
        # Every engine that fast-forwards must trip; the pure pre-decode
        # engine does not fast-forward and must stay bit-identical.
        assert any("ff" in label for label in labels)
        assert "decode" not in labels
        for divergence in divergences:
            assert divergence.sections, str(divergence)
            assert divergence.detail

    def test_divergence_names_the_broken_section(self, lossy_fast_forward):
        divergences = check_case(
            generate_case(0),
            policies=("occamy",),
            engines=(EngineSpec(pre_decode=False, fast_forward=True, fast_path=False),),
        )
        assert divergences
        sections = set(divergences[0].sections)
        # Lost idle increments corrupt the stall/overhead books but not the
        # architectural results: cycles and memory images must still agree.
        assert sections & {"stalls", "overhead"}
        assert "total_cycles" not in sections
        assert "memory_images" not in sections

    def test_divergence_report_is_json_ready(self, lossy_fast_forward):
        report = fuzz_seeds([0], policies=("occamy",))
        assert not report.clean
        import json

        payload = json.dumps(report.to_json())
        assert "stalls" in payload


class TestCli:
    def test_diff_fuzz_clean_exit_and_report(self, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                "diff-fuzz",
                "--seeds",
                "1",
                "--policies",
                "occamy",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        import json

        report = json.loads(report_path.read_text())
        assert report["clean"] is True
        assert report["runs"] == len(FAST_ENGINES) + 1

    def test_diff_fuzz_rejects_unknown_policy(self):
        from repro.cli import main

        assert main(["diff-fuzz", "--seeds", "1", "--policies", "bogus"]) == 2

    def test_audit_flag_sets_env(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        main(["diff-fuzz", "--seeds", "1", "--policies", "occamy", "--audit"])
        import os

        assert os.environ.get("REPRO_AUDIT") == "1"


class TestCaseSpecEvalRoundTrip:
    def test_repr_reconstructs_spec(self):
        spec = generate_case(3)
        clone = eval(  # noqa: S307 - controlled input, repr round-trip
            repr(spec),
            {"CaseSpec": CaseSpec, "PhaseSpec": PhaseSpec},
        )
        assert clone == spec
