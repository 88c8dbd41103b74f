"""Unit tests for the fault-injection harness itself.

The harness is test infrastructure — if its spec matching, attempt
counting, or stream perturbations are wrong, the chaos tests prove
nothing. So it gets its own direct tests.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys

import pytest

from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_lines,
    drop_events,
    duplicate_events,
    inject,
    reorder_within_slack,
)
from repro.resilience.faultinject import (
    COMPACT_CRASH_POINTS,
    ENV_VAR,
    SEAL_CRASH_POINTS,
    crash_point,
    maybe_inject,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
POINT = SEAL_CRASH_POINTS[1]


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", times=0)

    def test_matches_any_by_default(self):
        spec = FaultSpec(kind="raise")
        assert spec.matches(0, "search")
        assert spec.matches(99, "batch")

    def test_matches_filters_shard_and_kind(self):
        spec = FaultSpec(kind="raise", shards=(1, 3), task_kinds=("count",))
        assert spec.matches(1, "count")
        assert not spec.matches(2, "count")
        assert not spec.matches(1, "search")

    def test_crash_point_matches_only_by_name(self):
        assert not FaultSpec(kind="raise").matches(None, POINT)
        assert FaultSpec(kind="raise", task_kinds=(POINT,)).matches(None, POINT)
        assert not FaultSpec(
            kind="raise", shards=(0,), task_kinds=(POINT,)
        ).matches(None, POINT)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="delay", shards=(0,), delay=0.5, times=3)],
            state_dir=str(tmp_path),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.specs == plan.specs
        assert restored.state_dir == plan.state_dir
        assert restored.owner_pid == plan.owner_pid

    def test_attempt_counter_is_cross_process_safe(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="raise")], state_dir=str(tmp_path))
        claims = [plan._claim_attempt(0, 7) for _ in range(5)]
        assert claims == [0, 1, 2, 3, 4]
        # A "different process" (fresh plan object, same state dir)
        # continues the same sequence.
        other = FaultPlan.from_json(plan.to_json())
        assert other._claim_attempt(0, 7) == 5

    def test_fires_exactly_times_then_clean(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="raise", times=2, only_workers=False)],
            state_dir=str(tmp_path),
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire(0, "search")
        plan.fire(0, "search")  # attempt 2 >= times: clean

    def test_only_workers_skips_the_owner_process(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="kill", only_workers=True)], state_dir=str(tmp_path)
        )
        plan.fire(0, "search")  # must not kill or raise in the owner

    def test_kill_downgrades_to_raise_in_owner(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="kill", only_workers=False)], state_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            plan.fire(0, "search")

    def test_inject_sets_and_restores_env(self, tmp_path):
        assert os.environ.get(ENV_VAR) is None
        with inject(FaultSpec(kind="raise", only_workers=False)) as plan:
            assert FaultPlan.from_json(os.environ[ENV_VAR]).specs == plan.specs
            with pytest.raises(InjectedFault):
                maybe_inject(3, "search", os.environ.get(ENV_VAR))
        assert os.environ.get(ENV_VAR) is None
        maybe_inject(3, "search", os.environ.get(ENV_VAR))  # disarmed: no-op

    def test_maybe_inject_noop_without_plan(self):
        maybe_inject(0, "search", None)


class TestCrashPoints:
    """Crash points are sites of the same plan, under shard ``None``."""

    def test_named_point_fires_once_then_passes(self):
        with inject(FaultSpec("raise", task_kinds=(POINT,), only_workers=False)):
            with pytest.raises(InjectedFault):
                crash_point(POINT)
            crash_point(POINT)  # times=1 is spent
            crash_point(SEAL_CRASH_POINTS[0])  # other points never fired

    def test_shard_wide_spec_never_fires_at_crash_point(self):
        specs = (
            FaultSpec("raise", only_workers=False),
            FaultSpec("raise", shards=(0,), task_kinds=(POINT,),
                      only_workers=False),
        )
        with inject(*specs):
            for point in SEAL_CRASH_POINTS + COMPACT_CRASH_POINTS:
                crash_point(point)
            with pytest.raises(InjectedFault):
                maybe_inject(0, "search", os.environ[ENV_VAR])

    def test_crash_point_spec_never_fires_in_shard_task(self):
        with inject(FaultSpec("raise", task_kinds=(POINT,), only_workers=False)):
            for kind in ("search", "count", "top_k", "batch"):
                maybe_inject(0, kind, os.environ[ENV_VAR])

    def test_kill_in_arming_process_raises(self):
        with inject(FaultSpec("kill", task_kinds=(POINT,), only_workers=False)):
            with pytest.raises(InjectedFault):
                crash_point(POINT)

    @pytest.mark.parametrize(
        "site",
        [f"crash_point({POINT!r})", "maybe_inject(0, 'search', PLAN)"],
        ids=["crash-point", "shard-task"],
    )
    def test_kill_sigkills_another_process(self, tmp_path, site):
        plan = FaultPlan(
            [FaultSpec("kill", task_kinds=(POINT, "search"))], str(tmp_path)
        )
        code = (
            "import os\n"
            "from repro.resilience.faultinject import crash_point, maybe_inject\n"
            f"PLAN = os.environ[{ENV_VAR!r}]\n"
            f"{site}\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        env[ENV_VAR] = plan.to_json()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr


class TestStreamPerturbations:
    def _events(self, n=50):
        return [("a", "b", float(t), 1.0) for t in range(n)]

    def test_drop_events_rate_zero_and_one(self):
        events = self._events()
        rng = random.Random(0)
        assert drop_events(events, 0.0, rng) == events
        assert drop_events(events, 1.0, rng) == []

    def test_duplicate_events_adjacent_same_time(self):
        events = self._events(20)
        out = duplicate_events(events, 0.5, random.Random(1))
        assert len(out) > len(events)
        # Every duplicate sits immediately after its original.
        for i in range(1, len(out)):
            if out[i] == out[i - 1]:
                assert out[i][2] == out[i - 1][2]
        # Stream stays time-ordered.
        times = [e[2] for e in out]
        assert times == sorted(times)

    def test_reorder_within_slack_bounds_lateness(self):
        events = self._events(200)
        slack = 5.0
        shuffled = reorder_within_slack(events, slack, random.Random(2))
        assert sorted(shuffled) == events  # permutation, nothing lost
        assert shuffled != events  # actually perturbed at this size
        watermark = float("-inf")
        for _, _, time, _ in shuffled:
            watermark = max(watermark, time)
            assert time >= watermark - slack  # lateness never exceeds slack

    def test_reorder_with_zero_slack_is_identity(self):
        events = self._events(50)
        assert reorder_within_slack(events, 0.0, random.Random(3)) == events

    def test_corrupt_lines_counts_and_breaks_parsing(self):
        from io import StringIO

        from repro.graph.io import iter_csv_interactions

        lines = ["a,b,%d,1.0" % t for t in range(100)]
        corrupted, count = corrupt_lines(lines, 0.3, random.Random(4))
        assert len(corrupted) == len(lines)
        assert 0 < count < len(lines)
        # Every clean line parses; the reader quarantines exactly the rest.
        sink_calls = []
        parsed = list(
            iter_csv_interactions(
                StringIO("\n".join(corrupted) + "\n"),
                delimiter=",",
                on_error="skip",
                error_sink=lambda n, msg, raw: sink_calls.append(n),
            )
        )
        assert len(parsed) + len(sink_calls) == len(lines)
        assert len(parsed) == len(lines) - count
