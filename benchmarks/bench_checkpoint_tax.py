"""Checkpoint tax: wall time periodic recovery capture costs a failure-free run.

Not a paper figure: checkpoint-shipped recovery (``repro.statexfer``) has
every STABLE replica capture its fragment each ``checkpoint_interval``
simulated seconds, whether or not a failure ever happens.  This benchmark
prices that insurance on the failure-free ``shard(4)`` deployment: the same
spec runs with the default cadence and with capture disabled
(``checkpoint_interval=None``), and the difference of the best-of-``ROUNDS``
wall times is the tax.  The difference mixes two effects: checkpoint acks are
what truncate the source logs, so the capture-free run also retains every
source tuple (12,279 per source instead of 800 at the end of the 30 s run).
The time spent inside ``capture_checkpoint`` is therefore timed too: it is
the tax's direct component, and far less noisy than a difference of two
wall times on a shared host.

Capture must be pure observation, so the two runs are hard-checked to fire
the same simulator events and deliver byte-identical stable ledgers.  The tax
(``shard4_checkpoint_tax_wall_ms``) and the capture time
(``shard4_checkpoint_capture_wall_ms``) are warn-only trends in
``check_bench_regression.py``; the deterministic companions (events, stable
tuples) are hard-tracked.
"""

from __future__ import annotations

import time

from conftest import full_sweep, print_results

import repro.core.node as node_module
from repro.experiments import shard_spec
from repro.experiments.ablations import stable_ledger_rows

ROUNDS = 3
SHARD_RATE = 1200.0
DURATION = 30.0


def run_shard4(checkpoint_interval: float | None | str, duration: float) -> dict:
    spec = shard_spec(
        4,
        aggregate_rate=SHARD_RATE,
        replicas_per_node=1,
        warmup=duration,
        settle=0.0,
        seed=1,
    ).with_overrides(checkpoint_interval=checkpoint_interval)
    runtime = spec.build()
    capture = node_module.capture_checkpoint
    capture_seconds = 0.0

    def timed_capture(node, now):
        nonlocal capture_seconds
        started = time.perf_counter()
        try:
            return capture(node, now)
        finally:
            capture_seconds += time.perf_counter() - started

    node_module.capture_checkpoint = timed_capture
    try:
        runtime.run()
    finally:
        node_module.capture_checkpoint = capture
    return {
        "wall_seconds": runtime.wall_seconds,
        "capture_seconds": capture_seconds,
        "events": runtime.simulator.events_fired,
        "captures": sum(node.recovery_checkpoints_taken for node in runtime.cluster.all_nodes()),
        "ledgers": tuple(stable_ledger_rows(client) for client in runtime.clients),
    }


def measure_tax(rounds: int, duration: float) -> dict:
    """Best-of-``rounds`` wall time with and without capture, alternating runs."""
    best: dict[str, dict] = {}
    for _ in range(rounds):
        for mode, interval in (("on", "inherit"), ("off", None)):
            row = run_shard4(interval, duration)
            if mode not in best or row["wall_seconds"] < best[mode]["wall_seconds"]:
                best[mode] = row
    return best


def test_shard4_checkpoint_tax(run_once, benchmark):
    rounds = ROUNDS * 2 if full_sweep() else ROUNDS
    duration = DURATION * 2 if full_sweep() else DURATION
    best = run_once(lambda: measure_tax(rounds, duration))
    on, off = best["on"], best["off"]
    tax_ms = (on["wall_seconds"] - off["wall_seconds"]) * 1000
    share = tax_ms / (off["wall_seconds"] * 1000)
    capture_ms = on["capture_seconds"] * 1000
    print_results(
        f"Checkpoint tax on failure-free shard(4), {SHARD_RATE:.0f}/s for {duration:.0f} s "
        f"(best of {rounds})",
        [
            f"checkpoints on   wall={on['wall_seconds'] * 1000:>8.1f} ms "
            f"captures={on['captures']:>5} events={on['events']}",
            f"checkpoints off  wall={off['wall_seconds'] * 1000:>8.1f} ms "
            f"captures={off['captures']:>5} events={off['events']}",
            f"tax              {tax_ms:>8.1f} ms ({share:+.1%} of the checkpoint-free wall)",
            f"capture time     {capture_ms:>8.1f} ms ({capture_ms / (on['wall_seconds'] * 1000):.1%} "
            f"of the checkpointed wall)",
        ],
    )
    benchmark.extra_info["shard4_checkpoint_tax_wall_ms"] = round(tax_ms, 3)
    benchmark.extra_info["shard4_checkpoint_tax_share"] = round(share, 4)
    benchmark.extra_info["shard4_checkpoint_capture_wall_ms"] = round(capture_ms, 3)
    benchmark.extra_info["shard4_checkpoint_captures"] = on["captures"]
    benchmark.extra_info["shard4_checkpoint_events"] = on["events"]
    benchmark.extra_info["shard4_checkpoint_stable_tuples"] = sum(len(rows) for rows in on["ledgers"])

    # Capture is observation only: it must not change what the run does.
    assert on["captures"] > 0 and off["captures"] == 0
    assert on["events"] == off["events"]
    assert on["ledgers"] == off["ledgers"]
    assert all(on["ledgers"])
