"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import zlib

import pytest
from shm_faults import fail_shm_export

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.datasets.fixtures import (
    figure1_graph,
    figure2_graph,
    figure7_match_graph,
)

#: Single knob behind every randomized (non-hypothesis) test. The default
#: keeps CI deterministic; override to explore or reproduce:
#:
#:     REPRO_TEST_SEED=12345 pytest tests/property tests/parallel
BASE_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "20260729"))


@pytest.fixture
def base_seed(request):
    """Per-test reproducible seed, printed so failures carry it.

    Derived from ``REPRO_TEST_SEED`` and the test's node id, so each test
    (and each parametrization) gets a distinct but reproducible stream.
    The print lands in "Captured stdout setup" of any failure report;
    rerunning with the same ``REPRO_TEST_SEED`` reproduces it exactly.
    """
    return _derive_seed(request.node.nodeid)


def _derive_seed(nodeid: str) -> int:
    derived = zlib.crc32(nodeid.encode("utf-8")) ^ BASE_TEST_SEED
    print(
        f"[seeded-rng] REPRO_TEST_SEED={BASE_TEST_SEED} "
        f"derived_seed={derived} nodeid={nodeid}"
    )
    return derived


@pytest.fixture
def seeded_rng(base_seed):
    """A ``random.Random`` seeded from :func:`base_seed`."""
    return random.Random(base_seed)


@pytest.fixture
def shm_unavailable():
    """:func:`fail_shm_export` for one test; yields the mock."""
    with fail_shm_export() as failing:
        yield failing


@pytest.fixture(scope="module")
def module_seeded_rng(request):
    """:func:`seeded_rng` for module-scoped fixtures: one stream per test
    module, derived from ``REPRO_TEST_SEED`` and the module's node id."""
    return random.Random(_derive_seed(request.node.nodeid))


@pytest.fixture
def fig2_graph():
    """The running-example bitcoin user graph (Figures 2/5)."""
    return figure2_graph()


@pytest.fixture
def fig7_graph():
    """The Figure 7 / Table 2 triangle-match graph."""
    return figure7_match_graph()


@pytest.fixture
def fig1_graph():
    """The introduction's toy multigraph (Figure 1)."""
    return figure1_graph()


@pytest.fixture
def fig2_engine(fig2_graph):
    return FlowMotifEngine(fig2_graph)


@pytest.fixture
def fig7_engine(fig7_graph):
    return FlowMotifEngine(fig7_graph)


@pytest.fixture
def triangle():
    """M(3,3) with the Figure 4 constraints (δ=10, φ=7)."""
    return Motif.cycle(3, delta=10, phi=7)


@pytest.fixture
def triangle_phi0():
    """M(3,3) with δ=10 and no flow constraint (Figure 7 walkthrough)."""
    return Motif.cycle(3, delta=10, phi=0)
