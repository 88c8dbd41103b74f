#!/usr/bin/env python3
"""Custom motifs: beyond the Figure 3 catalog.

Three extension points of the library:

1. **Custom path motifs** — any spanning path defines a motif
   (e.g. a "ping-pong" u -> v -> u -> v).
2. **DAG motifs with forks and joins** — the paper's future-work
   generalization (Section 7), e.g. a split payment: one payer funds two
   mules who both forward to the same collector. A ``GeneralMotif`` is a
   ``Motif``, so the same engine searches it.
3. **Edge-list I/O** — load your own data from CSV, search, export
   instances as JSON.

Run:  python examples/custom_motifs.py
"""

import io
import json

from repro import FlowMotifEngine, GeneralMotif, InteractionGraph, Motif
from repro.graph.io import read_csv, write_csv


def main() -> None:
    # --- 1. a custom path motif: ping-pong ----------------------------
    graph = InteractionGraph.from_tuples(
        [
            ("alice", "bob", 1, 10.0),
            ("bob", "alice", 2, 9.5),
            ("alice", "bob", 3, 9.0),
            ("carol", "bob", 2, 1.0),
        ]
    )
    ping_pong = Motif(["u", "v", "u", "v"], delta=10, phi=5)
    engine = FlowMotifEngine(graph)
    result = engine.find_instances(ping_pong)
    print("[1] ping-pong motif u->v->u->v (phi=5):")
    for inst in result.instances:
        print(
            f"    {inst.vertex_map[0]} <-> {inst.vertex_map[1]}: "
            f"flow {inst.flow:g}"
        )

    # --- 2. a fork-join DAG motif --------------------------------------
    payments = InteractionGraph.from_tuples(
        [
            ("payer", "mule1", 10, 500.0),
            ("payer", "mule2", 20, 480.0),
            ("mule1", "collector", 30, 495.0),
            ("mule2", "collector", 40, 470.0),
            ("noise", "mule1", 5, 3.0),
        ]
    )
    split_payment = GeneralMotif(
        [
            ("payer", "mule1"), ("payer", "mule2"),
            ("mule1", "collector"), ("mule2", "collector"),
        ],
        delta=60,
        phi=400,
    )
    print("\n[2] split-payment fork/join motif (DAG extension):")
    for inst in FlowMotifEngine(payments).find_instances(split_payment).instances:
        names = dict(zip(("payer", "m1", "m2", "collector"), inst.vertex_map))
        print(
            f"    {names['payer']} splits through {names['m1']}/{names['m2']}"
            f" into {names['collector']}: min hop flow {inst.flow:g}"
        )

    # --- 3. CSV round trip ---------------------------------------------
    print("\n[3] edge-list I/O:")
    buffer = io.StringIO()
    write_csv(payments, buffer)
    print("    CSV preview:")
    for line in buffer.getvalue().splitlines()[:3]:
        print(f"      {line}")
    buffer.seek(0)
    reloaded = read_csv(buffer)
    engine = FlowMotifEngine(reloaded)
    chain = Motif.chain(3, delta=60, phi=400)
    result = engine.find_instances(chain)
    print(f"    reloaded graph: {reloaded}")
    print(f"    3-chains moving >=400 units: {result.count}")
    print("    first instance as JSON:")
    print(
        "      "
        + json.dumps(result.instances[0].as_dict())[:100]
        + " ..."
    )


if __name__ == "__main__":
    main()
