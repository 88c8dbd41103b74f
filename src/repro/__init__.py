"""repro — a full reproduction of "Flow Motifs in Interaction Networks"
(Kosyfaki, Mamoulis, Pitoura, Tsaparas; EDBT 2019).

Quick start
-----------
>>> from repro import InteractionGraph, Motif, FlowMotifEngine
>>> g = InteractionGraph.from_tuples([
...     ("u3", "u1", 10, 10), ("u1", "u2", 13, 5),
...     ("u1", "u2", 15, 7),  ("u2", "u3", 18, 20),
... ])
>>> engine = FlowMotifEngine(g)
>>> triangle = Motif.cycle(3, delta=10, phi=7)
>>> result = engine.find_instances(triangle)
>>> result.count
1
>>> result.instances[0].flow
10.0

Public API
----------
* :class:`InteractionGraph`, :class:`TimeSeriesGraph`, :class:`EdgeSeries`,
  :class:`Interaction` — the network substrate (:mod:`repro.graph`).
* :class:`Motif`, :func:`paper_motifs` — motif model and the Figure 3
  catalog (:mod:`repro.core.motif`).
* :class:`FlowMotifEngine` — two-phase search, top-k, DP top-1
  (:mod:`repro.core.engine`).
* :class:`MotifInstance`, :func:`is_valid_instance`, :func:`is_maximal` —
  instances and ground-truth checkers (:mod:`repro.core.instance`).
* :mod:`repro.datasets` — scaled synthetic Bitcoin / Facebook / Passenger
  generators and the paper's worked examples.
* :mod:`repro.significance` — flow-permutation randomization and z-scores.
* :mod:`repro.baselines` — the join-algorithm baseline and a flow-agnostic
  temporal-motif counter.
* :class:`StreamingDetector` — exactly-once online detection with fully
  incremental per-edge maintenance (:mod:`repro.core.streaming`,
  :mod:`repro.core.incremental`); grows a
  :class:`GrowableTimeSeriesGraph` in place, never rebuilds.
* :class:`GeneralMotif` — DAG motifs with forks/joins (:mod:`repro.core.dag`);
  a :class:`Motif`, so the engines above search it unchanged.
* :mod:`repro.analysis` — per-match activity grouping and timelines.
* :class:`ParallelFlowMotifEngine`, :class:`BatchRunner` — δ-overlap
  time-sharded multi-worker search and multi-motif batch grids
  (:mod:`repro.parallel`), on a process pool or an in-process loop.
* :class:`ColumnStore`, :func:`columnarize` — columnar zero-copy storage
  with one-block shared-memory export/attach (:mod:`repro.graph.columnar`);
  the process backend's fan-out transport.
"""

from repro.core.dag import GeneralMotif
from repro.core.engine import FlowMotifEngine, SearchResult
from repro.core.incremental import IncrementalMatcher
from repro.core.streaming import StreamingDetector
from repro.core.instance import MotifInstance, Run, is_maximal, is_valid_instance
from repro.core.matching import StructuralMatch, find_structural_matches
from repro.core.motif import Motif, PAPER_MOTIF_PATHS, paper_motifs
from repro.graph.columnar import (
    ColumnarEdgeSeries,
    ColumnStore,
    GrowableColumnStore,
    columnarize,
)
from repro.graph.events import Interaction
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import (
    EdgeSeries,
    GrowableTimeSeriesGraph,
    TimeSeriesGraph,
)
from repro.parallel import (
    BatchRunner,
    MotifConfig,
    ParallelFlowMotifEngine,
    TimeShard,
    partition_time_range,
)

__version__ = "1.0.0"

__all__ = [
    "BatchRunner",
    "MotifConfig",
    "ParallelFlowMotifEngine",
    "TimeShard",
    "partition_time_range",
    "FlowMotifEngine",
    "GeneralMotif",
    "StreamingDetector",
    "IncrementalMatcher",
    "SearchResult",
    "MotifInstance",
    "Run",
    "is_maximal",
    "is_valid_instance",
    "StructuralMatch",
    "find_structural_matches",
    "Motif",
    "PAPER_MOTIF_PATHS",
    "paper_motifs",
    "Interaction",
    "InteractionGraph",
    "EdgeSeries",
    "TimeSeriesGraph",
    "GrowableTimeSeriesGraph",
    "ColumnStore",
    "ColumnarEdgeSeries",
    "GrowableColumnStore",
    "columnarize",
    "__version__",
]
