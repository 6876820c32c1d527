"""What-if analysis: hypothetical cluster scaling with the global model.

Paper Section 6.1 proposes using the transferable global model for
hypothetical reasoning — "what if the cluster adds 3 nodes?".  Because
the global model conditions on *public* instance features (node count,
hardware class, memory), predicting under a modified instance profile
answers the what-if question without executing anything.

This example trains a global model on a fleet, then sweeps the node
count of one instance and reports the predicted exec-time of its
heaviest queries — alongside the generator's true scaling law, which an
operator would not have.

Run:  python examples/what_if_scaling.py
"""

import dataclasses

from repro import FleetConfig, FleetGenerator
from repro.core.config import GlobalModelConfig
from repro.global_model import GlobalModelTrainer
from repro.harness.reporting import render_simple_table


def main() -> None:
    generator = FleetGenerator(FleetConfig(seed=23, volume_scale=0.35))
    print("training the global model on 10 instances...")
    train = generator.generate_fleet_traces(10, 2.0, start_index=700)
    model = GlobalModelTrainer(
        GlobalModelConfig(hidden_dim=48, n_conv_layers=4, epochs=20)
    ).train(train)

    instance = generator.sample_instance(4)
    trace = generator.generate_trace(instance, 1.0)
    # the heaviest few queries are the ones a resize decision hinges on
    heavy = sorted(trace, key=lambda r: r.exec_time, reverse=True)[:5]
    print(
        f"\ninstance {instance.instance_id}: {instance.hardware.name} "
        f"x{instance.n_nodes} nodes; asking: what if we resize?\n"
    )

    node_options = sorted({max(2, instance.n_nodes // 2), instance.n_nodes, instance.n_nodes * 2})
    rows = []
    for record in heavy:
        row = [f"q{record.query_id} ({record.exec_time:.0f}s actual)"]
        for n_nodes in node_options:
            hypothetical = dataclasses.replace(instance, n_nodes=n_nodes)
            pred = model.predict(record.plan, hypothetical).exec_time
            row.append(f"{pred:.1f}s")
        rows.append(row)

    headers = ["query"] + [
        f"{n} nodes{' (now)' if n == instance.n_nodes else ''}"
        for n in node_options
    ]
    print(render_simple_table("Predicted exec-time under resize", headers, rows))

    # sanity: the generator's ground truth says exec ~ 1/nodes^0.8
    speedup_true = (node_options[-1] / node_options[0]) ** 0.8
    print(
        f"\n(generator ground truth: {node_options[-1]} vs {node_options[0]} nodes "
        f"=> ~{speedup_true:.1f}x speedup; the model learned its own "
        "estimate of this from cross-fleet data)"
    )


if __name__ == "__main__":
    main()
