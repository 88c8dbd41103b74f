"""The paper's primary contribution: flow-motif search.

Layout (matching the paper's sections):

* :mod:`repro.core.motif` — flow motifs ``M = (G_M, δ, φ)`` and the Figure 3
  catalog (Section 3).
* :mod:`repro.core.instance` — motif instances, Definition 3.2 validation and
  Definition 3.3 maximality checking.
* :mod:`repro.core.matching` — phase P1: structural matches, one DFS over
  the motif edges in label order for path and fork/join motifs.
* :mod:`repro.core.windows` — the one maximal δ-window walk: skip rule, tied
  anchors, shard ownership and streaming resumption.
* :mod:`repro.core.enumeration` — phase P2: Algorithm 1 (``FindInstances``)
  and its one prefix-branch step, ``window_branches``.
* :mod:`repro.core.counting` — instance counting without construction, a
  memo over the same branch step.
* :mod:`repro.core.topk` — top-k search with a floating threshold (Section 5),
  a depth-first search over the same branch step.
* :mod:`repro.core.dp` — the dynamic-programming top-1 module (Section 5.1).
* :mod:`repro.core.dag` — DAG-motif generalization (Section 7 future work):
  :class:`~repro.core.dag.GeneralMotif`, a motif without the path rule.
* :mod:`repro.core.engine` — the :class:`FlowMotifEngine` facade.
"""

from repro.core.motif import Motif, paper_motifs
from repro.core.instance import MotifInstance, Run, is_valid_instance, is_maximal
from repro.core.matching import StructuralMatch, find_structural_matches
from repro.core.engine import FlowMotifEngine

__all__ = [
    "Motif",
    "paper_motifs",
    "MotifInstance",
    "Run",
    "is_valid_instance",
    "is_maximal",
    "StructuralMatch",
    "find_structural_matches",
    "FlowMotifEngine",
]
