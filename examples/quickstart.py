#!/usr/bin/env python3
"""Quickstart: find flow motifs in a small interaction network.

Reproduces the paper's running example (Figure 2): a four-user bitcoin
graph in which the triangle motif M(3,3) with δ=10 and φ=7 has exactly one
maximal instance (Figure 4a). Also shows the top-k and DP top-1 variants.

Run:  python examples/quickstart.py
"""

from repro import FlowMotifEngine, InteractionGraph, Motif


def build_graph() -> InteractionGraph:
    """The paper's Figure 2 graph: users exchanging bitcoin."""
    graph = InteractionGraph()
    for src, dst, time, flow in [
        ("u1", "u2", 13, 5), ("u1", "u2", 15, 7),
        ("u2", "u3", 18, 20), ("u3", "u1", 10, 10),
        ("u3", "u4", 1, 2), ("u3", "u4", 3, 5),
        ("u4", "u3", 19, 5), ("u4", "u3", 21, 4),
        ("u4", "u2", 23, 7), ("u2", "u4", 11, 10),
    ]:
        graph.add_interaction(src, dst, time, flow)
    return graph


def main() -> None:
    graph = build_graph()
    print(f"graph: {graph}")

    engine = FlowMotifEngine(graph)

    # A flow motif = shape + duration constraint δ + flow constraint φ.
    triangle = Motif.cycle(3, delta=10, phi=7)
    print(f"\nsearching for {triangle!r}")

    result = engine.find_instances(triangle)
    print(
        f"phase P1 found {result.num_matches} temporally feasible "
        f"structural matches; phase P2 found {result.count} maximal "
        f"instance(s)"
    )
    for instance in result.instances:
        print(f"\n  instance with flow {instance.flow:g} "
              f"(span {instance.span:g} time units):")
        for label, run in enumerate(instance.runs, start=1):
            events = ", ".join(f"(t={t:g}, f={f:g})" for t, f in run.items())
            print(
                f"    e{label}: {run.series.src} -> {run.series.dst}: "
                f"{events}  [aggregated flow {run.flow:g}]"
            )

    # Relaxing φ and ranking by flow instead (Section 5 of the paper):
    top = engine.top_k(triangle.with_constraints(phi=0), k=3)
    print("\ntop-3 instances by flow (phi dropped):")
    for i, instance in enumerate(top, start=1):
        walk = "->".join(str(v) for v in instance.vertex_map)
        print(f"  #{i}: flow {instance.flow:g} on {walk}")

    # The dynamic-programming module finds the single best instance faster:
    best = engine.top_one_dp(triangle.with_constraints(phi=0))
    print(f"\nDP top-1 flow: {best.flow:g} "
          f"(window [{best.window.start:g}, {best.window.end:g}])")


if __name__ == "__main__":
    main()
