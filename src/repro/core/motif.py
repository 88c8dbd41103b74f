"""Flow motifs ``M = (G_M, δ, φ)`` (Definition 3.1) and the Figure 3 catalog.

A motif is a small directed graph whose ``m`` edges carry unique labels
``1..m``; the label order must trace a *spanning path* through the motif
graph (the target of edge ``i`` is the source of edge ``i+1``). The path
need not be simple — repeated vertices express cycles, e.g. the triangle
``M(3,3)`` has spanning path ``v0 → v1 → v2 → v0``.

The motif also carries its duration constraint ``δ`` (maximum time span of
an instance) and flow constraint ``φ`` (minimum aggregated flow per motif
edge). Engine methods accept per-call overrides of both.

Vertices are normalized to integers ``0..n-1`` in order of first appearance
on the spanning path, so two motifs built from differently-labelled paths of
the same shape compare equal.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.utils.validation import require_non_negative


class Motif:
    """A network flow motif (Definition 3.1).

    Parameters
    ----------
    path:
        The spanning path as a vertex sequence ``[p0, p1, ..., pm]``;
        edge ``i`` (label ``i+1`` in the paper's 1-based notation) goes
        from ``p_i`` to ``p_{i+1}``. Vertices may be any hashables and are
        normalized to first-appearance integers.
    delta:
        Duration constraint ``δ`` — upper bound on the time difference
        between any two interactions of an instance. Must be >= 0.
    phi:
        Flow constraint ``φ`` — lower bound on the aggregated flow of every
        motif edge in an instance. Must be >= 0.
    name:
        Optional display name, e.g. ``"M(3,3)"``.

    Example
    -------
    >>> m = Motif.cycle(3, delta=10, phi=7)
    >>> m.spanning_path
    (0, 1, 2, 0)
    >>> m.num_edges, m.num_vertices, m.is_cyclic
    (3, 3, True)
    """

    __slots__ = ("_path", "_edges", "_num_vertices", "delta", "phi", "name")

    def __init__(
        self,
        path: Sequence[Hashable],
        delta: float,
        phi: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if len(path) < 2:
            raise ValueError(
                f"a motif needs at least one edge; path {list(path)!r} is too short"
            )
        self._set_shape(list(zip(path, path[1:])), delta, phi, name)
        self._path: Optional[Tuple[int, ...]] = (self._edges[0][0],) + tuple(
            dst for _, dst in self._edges
        )

    def _set_shape(
        self,
        edges: Sequence[Tuple[Hashable, Hashable]],
        delta: float,
        phi: float,
        name: Optional[str],
    ) -> None:
        """Normalize label-ordered ``edges`` (vertex ids by first
        appearance) and set the constraints."""
        require_non_negative(delta, "delta")
        require_non_negative(phi, "phi")
        mapping: Dict[Hashable, int] = {}
        normalized: List[Tuple[int, int]] = []
        for src, dst in edges:
            for vertex in (src, dst):
                if vertex not in mapping:
                    mapping[vertex] = len(mapping)
            normalized.append((mapping[src], mapping[dst]))
        self._edges: Tuple[Tuple[int, int], ...] = tuple(normalized)
        self._num_vertices = len(mapping)
        self.delta = float(delta)
        self.phi = float(phi)
        self.name = name

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def chain(cls, num_vertices: int, delta: float, phi: float = 0.0) -> "Motif":
        """The simple chain motif on ``num_vertices`` vertices.

        ``chain(3)`` is the paper's ``M(3,2)``: ``v0 → v1 → v2``.
        """
        if num_vertices < 2:
            raise ValueError("a chain needs at least 2 vertices")
        path = list(range(num_vertices))
        return cls(path, delta, phi, name=f"M({num_vertices},{num_vertices - 1})")

    @classmethod
    def cycle(cls, num_vertices: int, delta: float, phi: float = 0.0) -> "Motif":
        """The simple cycle motif on ``num_vertices`` vertices.

        ``cycle(3)`` is the paper's ``M(3,3)``: ``v0 → v1 → v2 → v0``.
        """
        if num_vertices < 2:
            raise ValueError("a cycle needs at least 2 vertices")
        path = list(range(num_vertices)) + [0]
        return cls(path, delta, phi, name=f"M({num_vertices},{num_vertices})")

    @classmethod
    def from_string(
        cls, spec: str, delta: float, phi: float = 0.0
    ) -> "Motif":
        """Parse a motif from a catalog name or dashed vertex path.

        ``spec`` is either a Figure 3 catalog name (``"M(3,3)"``) or a
        spanning path written as dash-separated vertex tokens
        (``"0-1-2-0"``; tokens are arbitrary labels, e.g. ``"a-b-a"``).

        Raises
        ------
        ValueError
            If the spec is neither a known catalog name nor a dashed path
            with at least two vertices.
        """
        spec = spec.strip()
        if spec in PAPER_MOTIF_PATHS:
            return cls(PAPER_MOTIF_PATHS[spec], delta, phi, name=spec)
        tokens = [t for t in spec.split("-") if t != ""]
        if len(tokens) < 2:
            raise ValueError(
                f"motif spec {spec!r} is neither a catalog name "
                f"({', '.join(PAPER_MOTIF_PATHS)}) nor a dashed path like "
                f"'0-1-2-0'"
            )
        return cls(tokens, delta, phi)

    @classmethod
    def from_labeled_edges(
        cls,
        edges: Sequence[Tuple[Hashable, Hashable]],
        delta: float,
        phi: float = 0.0,
        name: Optional[str] = None,
    ) -> "Motif":
        """Build from edges given in label order, checking the path property.

        Raises
        ------
        ValueError
            If consecutive edges do not chain (target of edge ``i`` must be
            the source of edge ``i+1``), which Definition 3.1 requires.
        """
        if not edges:
            raise ValueError("a motif needs at least one edge")
        path: List[Hashable] = [edges[0][0], edges[0][1]]
        for i in range(1, len(edges)):
            src, dst = edges[i]
            if src != path[-1]:
                raise ValueError(
                    f"motif edges must form a path: edge {i + 1} starts at "
                    f"{src!r} but edge {i} ends at {path[-1]!r}"
                )
            path.append(dst)
        return cls(path, delta, phi, name=name)

    def with_constraints(
        self, delta: Optional[float] = None, phi: Optional[float] = None
    ) -> "Motif":
        """A copy of this motif with replaced δ and/or φ."""
        clone = copy.copy(self)
        clone._set_shape(
            self._edges,
            self.delta if delta is None else delta,
            self.phi if phi is None else phi,
            self.name,
        )
        return clone

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def spanning_path(self) -> Optional[Tuple[int, ...]]:
        """The normalized spanning path ``SP_M`` as a vertex-id sequence
        (None for a :class:`~repro.core.dag.GeneralMotif`)."""
        return self._path

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Motif edges ``(src, dst)`` in label order ``e_1 .. e_m`` — the
        motif's shape, and the key P1 results are cached under."""
        return self._edges

    @property
    def num_edges(self) -> int:
        """``m = |E_M|``."""
        return len(self._edges)

    @property
    def num_vertices(self) -> int:
        """``|V_M|``."""
        return self._num_vertices

    @property
    def is_cyclic(self) -> bool:
        """Whether the motif has no more vertices than edges; for a path
        motif, whether the spanning path revisits any vertex."""
        return self._num_vertices <= len(self._edges)

    @property
    def display_name(self) -> str:
        """The given name, or a canonical ``M(|V|,|E|)/path`` fallback."""
        if self.name:
            return self.name
        path = "".join(str(v) for v in self._path)
        return f"M({self.num_vertices},{self.num_edges})/{path}"

    def edge(self, index: int) -> Tuple[int, int]:
        """The 0-based ``index``-th motif edge (paper's ``e_{index+1}``)."""
        return self._edges[index]

    # ------------------------------------------------------------------
    # Equality / hashing: structural shape plus constraints
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Motif):
            return NotImplemented
        return (
            self._edges == other._edges
            and self.delta == other.delta
            and self.phi == other.phi
        )

    def __hash__(self) -> int:
        return hash((self._edges, self.delta, self.phi))

    def __repr__(self) -> str:
        return (
            f"Motif({self.display_name}, path={'→'.join(map(str, self._path))}, "
            f"delta={self.delta:g}, phi={self.phi:g})"
        )


#: Spanning paths of the ten motifs of Figure 3. The figure itself is not
#: machine-readable in the source dump; DESIGN.md §5 documents the
#: reconstruction: chains, simple cycles, and for the A/B/C variants the
#: three possible placements of the single repeated spanning-path vertex.
PAPER_MOTIF_PATHS: Dict[str, Tuple[int, ...]] = {
    "M(3,2)": (0, 1, 2),
    "M(3,3)": (0, 1, 2, 0),
    "M(4,3)": (0, 1, 2, 3),
    "M(4,4)A": (0, 1, 2, 3, 0),
    "M(4,4)B": (0, 1, 2, 0, 3),
    "M(4,4)C": (0, 1, 2, 3, 1),
    "M(5,4)": (0, 1, 2, 3, 4),
    "M(5,5)A": (0, 1, 2, 3, 4, 0),
    "M(5,5)B": (0, 1, 2, 3, 0, 4),
    "M(5,5)C": (0, 1, 2, 3, 4, 1),
}


def paper_motifs(delta: float, phi: float = 0.0) -> Dict[str, Motif]:
    """The Figure 3 motif catalog with the given constraints.

    Returns an insertion-ordered dict (paper order: M(3,2) .. M(5,5)C).
    """
    return {
        name: Motif(path, delta, phi, name=name)
        for name, path in PAPER_MOTIF_PATHS.items()
    }
