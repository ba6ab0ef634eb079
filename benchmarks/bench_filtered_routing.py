"""Filtered subscriptions: the split router sends each shard only its slice.

Not a paper figure: the paper's deployments never fan one stream out to
parallel consumers of disjoint slices.  The sharded scale-out does, and its
split router evaluates each shard's slice predicate at the producer
(filtered subscriptions), so a shard replica only ever receives its 1/N of
the data.

Measured for shard(4) at one seed:

* **no multicast** -- every data tuple the split puts on the wire reaches
  exactly one shard group, and every shard group receives every boundary
  (punctuation must still reach all of them);
* **split egress** -- tuples put on the wire by the split replicas and
  (batch, receiver) sends;
* **throughput** -- wall-clock tuples/sec (informational) and the
  deterministic event / Proc_new / delivered-tuple metrics tracked against
  ``BENCH_baseline.json``.

A second benchmark closes the control loop: a zipfian hot-key workload, a
mid-run ``Deployment.apply(plan)`` bucket handoff, and the merged ledger
staying gap-free / duplicate-free / ordered across seeds.
"""

from __future__ import annotations

import time
from collections import defaultdict

from conftest import print_results

from repro.core.protocol import DataBatch
from repro.experiments import rebalance_run
from repro.runtime import ScenarioSpec

RATE = 1200.0
DURATION = 15.0
SHARDS = 4
SEED = 1
REBALANCE_SEEDS = (1, 2, 3)
#: Availability bound X (DPCConfig default) for the routing runs.
BOUND_X = 3.0


def watch_split_egress(runtime):
    """Record what the split sends: data tuple id -> shard groups, group -> boundary ids."""
    placement = runtime.deployment.placement
    group_of = {
        node.endpoint: name
        for name in placement.shard_fragments
        for node in runtime.node_group(name)
    }
    split = {node.endpoint for node in runtime.node_group(placement.shard_producer)}
    data_groups: dict[int, set[str]] = defaultdict(set)
    boundaries: dict[str, set[int]] = defaultdict(set)
    send_many = runtime.network.send_many

    def watched(sender, receivers, kind, payload):
        delivered = send_many(sender, receivers, kind, payload)
        if sender in split and isinstance(payload, DataBatch):
            for receiver in delivered:
                for item in payload.tuples:
                    if item.is_data:
                        data_groups[item.tuple_id].add(group_of[receiver])
                    elif item.is_boundary:
                        boundaries[group_of[receiver]].add(item.tuple_id)
        return delivered

    runtime.network.send_many = watched
    return data_groups, boundaries


def routing_run() -> dict:
    spec = ScenarioSpec.sharded(
        shards=SHARDS,
        aggregate_rate=RATE,
        replicas_per_node=1,
        warmup=DURATION,
        settle=0.0,
        seed=SEED,
    )
    runtime = spec.build()
    data_groups, boundaries = watch_split_egress(runtime)
    started = time.perf_counter()
    runtime.run()
    wall = time.perf_counter() - started
    split = runtime.node_group("split")
    summary = runtime.client.summary()
    return {
        "egress_tuples": sum(node.tuples_sent for node in split),
        "egress_batches": sum(node.batches_sent for node in split),
        "events_fired": runtime.simulator.events_fired,
        "stable_tuples": summary["total_stable"],
        "proc_new": summary["proc_new"],
        "tuples_per_second": summary["total_stable"] / wall if wall > 0 else float("inf"),
        "consistent": runtime.eventually_consistent(),
        "data_groups": data_groups,
        "boundaries": boundaries,
        "shards": runtime.deployment.placement.shard_fragments,
    }


def test_filtered_routing_split_egress(run_once, benchmark):
    row = run_once(routing_run)
    data_groups, boundaries = row["data_groups"], row["boundaries"]
    multicast = sum(1 for groups in data_groups.values() if len(groups) > 1)
    every_boundary = set().union(*boundaries.values())
    print_results(
        f"Filtered subscriptions: shard({SHARDS}) split egress",
        [
            f"egress_tuples={row['egress_tuples']:>7} sends={row['egress_batches']:>5} "
            f"events={row['events_fired']:>6} tuples/s={row['tuples_per_second']:>8.0f} "
            f"Proc_new={row['proc_new']:.3f}s consistent={'yes' if row['consistent'] else 'NO'}",
            f"data tuples sent={len(data_groups)} reaching >1 shard group={multicast}; "
            f"boundaries={len(every_boundary)} reaching every shard group="
            f"{all(boundaries[name] == every_boundary for name in row['shards'])}",
        ],
    )

    benchmark.extra_info["filtered_split_egress_tuples"] = row["egress_tuples"]
    benchmark.extra_info["filtered_events"] = row["events_fired"]
    benchmark.extra_info["filtered_proc_new"] = round(row["proc_new"], 6)
    benchmark.extra_info["filtered_stable_tuples"] = row["stable_tuples"]

    # The split does not multicast: each data tuple reaches one shard group...
    assert data_groups
    assert multicast == 0, f"{multicast} data tuple(s) reached more than one shard group"
    # ...while punctuation still reaches every shard group.
    assert every_boundary
    for name in row["shards"]:
        assert boundaries[name] == every_boundary, f"{name} missed boundaries"
    assert row["consistent"]
    assert row["proc_new"] < BOUND_X, f"{row['proc_new']:.3f}"


def test_live_rebalance_consistency(run_once, benchmark):
    results = run_once(
        lambda: [rebalance_run(seed, shards=SHARDS) for seed in REBALANCE_SEEDS]
    )
    lines = []
    for seed, result in zip(REBALANCE_SEEDS, results):
        rebalance = result.extra["rebalance"]
        lines.append(result.row())
        lines.append(
            f"    seed={seed} moves={rebalance['moves']} "
            f"imbalance {rebalance['imbalance_before']:.3f} -> {rebalance['imbalance_after']:.3f} "
            f"shipped={rebalance['state_tuples_shipped']} completed={rebalance['completed']}"
        )
    print_results(
        "Live rebalance: skewed hot-key load, mid-run bucket handoff between shards",
        lines,
    )

    for seed, result in zip(REBALANCE_SEEDS, results):
        label = f"rebalance seed={seed}"
        rebalance = result.extra["rebalance"]
        assert not rebalance["noop"], label
        assert rebalance["moves"] > 0, label
        assert rebalance["imbalance_after"] < rebalance["imbalance_before"], label
        assert rebalance["completed"], label
        # The handoff neither loses nor duplicates anything: the merged
        # ledger reconciles gap-free, duplicate-free, and ordered.
        assert result.eventually_consistent, label
        # Every replica group ends the run STABLE (the handoff is not a failure).
        for name, states in result.extra["shard_states"].items():
            assert all(state == "stable" for state in states), f"{label}: {name}={states}"
    benchmark.extra_info["rebalance_seed1_stable_tuples"] = results[0].n_stable
    benchmark.extra_info["rebalance_seed1_proc_new"] = round(results[0].proc_new, 6)
