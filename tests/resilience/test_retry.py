"""Unit tests for retry policies and failure classification."""

from __future__ import annotations

import pickle

import pytest

from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.resilience import (
    DispatchReport,
    RetryPolicy,
    ShardTimeoutError,
    classify_error,
)


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.degrade is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
            {"max_delay": -1.0},
            {"backoff_factor": 0.5},
            {"backoff_factor": 0.999},
            {"base_delay": 1.0, "max_delay": -1e-9},
            {"timeout": 0.0},
            {"timeout": -3.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_accepts_boundary_values(self):
        policy = RetryPolicy(
            max_retries=0, base_delay=0.0, backoff_factor=1.0, max_delay=0.0
        )
        assert policy.delay_for(0) == policy.delay_for(4) == 0.0

    def test_frozen(self):
        policy = RetryPolicy()
        with pytest.raises(Exception):
            policy.max_retries = 5


class TestDelaySchedule:
    def test_deterministic_across_instances(self):
        """Two runs with equal policies sleep the same schedule."""
        a = RetryPolicy(base_delay=0.03, backoff_factor=3.0, max_delay=1.0)
        b = RetryPolicy(base_delay=0.03, backoff_factor=3.0, max_delay=1.0)
        assert a == b
        assert [a.delay_for(k) for k in range(6)] == [
            b.delay_for(k) for k in range(6)
        ]

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0, max_delay=100.0)
        assert policy.delay_for(0) == pytest.approx(0.1)
        assert policy.delay_for(1) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.8)

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=10.0, max_delay=2.5)
        assert policy.delay_for(5) == 2.5

    def test_unit_factor_is_a_constant_delay(self):
        policy = RetryPolicy(base_delay=0.25, backoff_factor=1.0, max_delay=1.0)
        assert [policy.delay_for(k) for k in range(5)] == [0.25] * 5


class TestClassifyError:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (FuturesTimeoutError(), "timeout"),
            (ShardTimeoutError("late"), "timeout"),
            (TimeoutError(), "timeout"),
            (BrokenExecutor("pool died"), "worker-crash"),
            (pickle.PicklingError("nope"), "serialization"),
            (FileNotFoundError("/psm_gone"), "shared-memory"),
            (OSError("cannot map shared memory segment"), "shared-memory"),
            (ValueError("shared memory truncated"), "shared-memory"),
            (RuntimeError("boom"), "task-error"),
            (ValueError("bad motif"), "task-error"),
        ],
    )
    def test_categories(self, exc, expected):
        assert classify_error(exc) == expected


class TestDispatchReport:
    def test_record_classifies_and_retains(self):
        report = DispatchReport(backend="process", final_backend="process")
        event = report.record(3, "process", 1, RuntimeError("boom"))
        assert event.category == "task-error"
        assert event.shard_index == 3
        assert report.fault_categories == ("task-error",)
        assert "shard 3" in str(event)
        assert "boom" in str(event)
