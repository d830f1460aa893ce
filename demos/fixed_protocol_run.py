"""Narrate one treasure hunt step by step on a padded path graph.

The agent is oblivious: at each node it sees only the degree and whether a
pebble is present. It asks the pebble for n fresh qubits per basis, keeps
the bases whose n outcomes all agree, and walks the decoded port only when
exactly one basis produced a uniform run.
"""

from qpebble import (
    EncodingScheme,
    FixedN,
    RngStream,
    decide_fixed,
    gen_padded_path,
    measure_node_fixed,
    neighbor_via_port,
    place_pebbles,
    required_n,
    run_trial,
    shortest_path,
)


def main() -> None:
    dist, delta, eps = 6, 4, 0.01
    g = gen_padded_path(dist, delta, seed=11)
    n = required_n(dist, delta, eps)
    print(f"padded path: {g.node_count} nodes, start={g.start}, "
          f"treasure={g.treasure}, interior degree {delta}")
    print(f"target failure {eps} over {dist} hops needs n={n} "
          f"samples per basis\n")

    placement = place_pebbles(g, EncodingScheme.GENERAL)
    d, ports = shortest_path(g, g.start, g.treasure)
    print(f"true port sequence along the {d}-hop geodesic: {ports}\n")

    rng = RngStream(seed=2024, stream_id=0)
    node = g.start
    for step in range(1, d + 1):
        pebble = placement.pebbles[node]
        tallies = measure_node_fixed(
            pebble.emitted_state, delta, n, rng, EncodingScheme.GENERAL
        )
        draws = n * len(tallies)
        uniform = [
            i for i, t in enumerate(tallies)
            if abs(int(t.sum())) == n
        ]
        port = decide_fixed(tallies, delta)
        print(f"step {step}: node {node} (pebble says exit port "
              f"{pebble.exit_port}), {draws} qubits measured, "
              f"uniform bases {uniform} -> decoded port {port}")
        node = neighbor_via_port(g, node, port - 1)[0]
    print(f"\narrived at node {node}, treasure is at {g.treasure}: "
          f"{'found it' if node == g.treasure else 'missed'}\n")

    print("same protocol end to end through run_trial:")
    result = run_trial(
        g, placement, FixedN(n=n), step_budget=d,
        rng=RngStream(seed=2024, stream_id=1),
    )
    print(f"  success={result.success}, steps={result.steps_taken}, "
          f"measurements={result.measurements_total}, "
          f"failure={result.failure_kind.value}")


if __name__ == "__main__":
    main()
