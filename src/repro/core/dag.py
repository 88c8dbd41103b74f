"""DAG motifs with forks and joins (Section 7 future work).

The paper's motifs require the edge labels to trace a single path. Its
future-work section proposes generalizing to *"other graph structures
besides paths (e.g., directed acyclic graphs with forks and joins)"*. This
module implements that generalization:

* :class:`GeneralMotif` — any small directed multigraph whose edges carry
  the total label order ``1..m`` (no path requirement).
* Semantics — the natural extension of Definition 3.2: the bijection and
  per-edge non-empty edge-sets are unchanged, and the label order is
  enforced *globally*: every interaction assigned to edge ``i`` strictly
  precedes every interaction assigned to edge ``j`` for ``i < j``. (For
  path motifs this coincides with the paper's pairwise condition by
  transitivity, so ``GeneralMotif`` searches reproduce ``Motif`` searches
  exactly — tested.)
* Search — a ``GeneralMotif`` is a :class:`~repro.core.motif.Motif`, so
  every engine serves it unchanged. Phase P1's DFS
  (:mod:`repro.core.matching`) fills the edges in label order and binds
  a free endpoint from the out- or in-series of a bound one, or from
  every series when neither endpoint is bound yet. Because the order is
  total, edge-sets still tile a window in label order, so phase P2
  (:mod:`repro.core.windows` / :mod:`repro.core.enumeration`) runs
  verbatim on the per-edge series of a DAG match.
* Path-only code — streaming and its checkpoints, the join baseline and
  :attr:`~repro.core.matching.StructuralMatch.walk` read the spanning
  path, which a ``GeneralMotif`` does not have (``spanning_path`` is
  None).
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from repro.core.motif import Motif


class GeneralMotif(Motif):
    """A flow motif whose labelled edges need not form a path.

    Vertices are normalized to integers by first appearance across the
    label-ordered edge list.

    Example — a fork-join ("u pays v and w, both pay x"):

    >>> m = GeneralMotif([("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")],
    ...                  delta=10, phi=1)
    >>> m.num_vertices, m.num_edges, m.display_name
    (4, 4, 'G(4,4)')
    """

    __slots__ = ()

    def __init__(
        self,
        edges: Sequence[Tuple[Hashable, Hashable]],
        delta: float,
        phi: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if not edges:
            raise ValueError("a motif needs at least one edge")
        self._set_shape(edges, delta, phi, name)
        self._path = None

    @property
    def display_name(self) -> str:
        return self.name or f"G({self.num_vertices},{self.num_edges})"

    def __repr__(self) -> str:
        return (
            f"GeneralMotif({self.display_name}, edges={self.edges}, "
            f"delta={self.delta:g}, phi={self.phi:g})"
        )
