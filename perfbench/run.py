"""Repository benchmark: end-to-end metrics per workload, or a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload sim-shard4-steady --seed 1 --seconds 12 --trace 0

``--workload`` is one of ``sim-shard4-steady``, ``sim-chain4-failover`` and
``live-chain1-steady`` (see :mod:`workloads`); ``--seed`` makes the inputs;
``--seconds`` is how long the workload repeats its measured execution (at
least once); every end-to-end figure is a median over the executions.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``setup_s`` -- median of several compile + deploy + start set-ups, scaled
  to a quiet host like the simulation's cost;
* ``cost_us_per_tuple`` -- processing time per stable output tuple: the
  simulation's wall time scaled to a quiet host by calibration slices run
  alongside (see :mod:`hostspeed`), or on the live backend the workers' CPU
  time per tuple produced (median over the steady windows), scaled likewise;
* ``latency_p50_ms`` / ``latency_p99_ms`` -- stable-output latency of new
  tuples over the steady window: the median, over every 2 s stime window of
  every execution, of the window's p50 and p99, so that a hiccup or a slow
  spell of the host that covers a minority of the windows does not decide
  them;
* ``stable_new_frac`` -- share of new output that arrived stable, the
  inverse view of the paper's N_tentative;
* ``peak_rss_mb`` -- peak RSS of this (fresh) process, or on the live
  backend of the largest worker.

``--trace 1`` runs the main execution once untraced and once traced (see
:mod:`layertrace`) and prints the per-layer metrics, the tracing overhead,
and how much of the traced wall the layer self times account for.  The
trace itself is written to ``.bench_build/perfbench/``.

Every run checks the final stable ledger row by row against a reference
ledger; the last line of standard output is one JSON object with
``correct``, ``attempted`` (reference rows), ``failed`` (rows missing, wrong
or extra) and ``metrics``.  The exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(".bench_build") / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "cost_us_per_tuple": "us",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "stable_new_frac": "share",
    "peak_rss_mb": "MB",
}

#: Layer metrics every traced run reports; layers a workload bypasses read 0.
PER_LAYER = {
    "deploy.compile_ms": "ms",
    "deploy.deploy_ms": "ms",
    "sim.event_loop.events": "count",
    "sim.event_loop.self_ms": "ms",
    "sim.network.messages": "count",
    "sim.network.deliveries": "count",
    "sim.network.self_ms": "ms",
    "sources.tuples": "count",
    "sources.self_ms": "ms",
    "sources.retained_log": "count",
    "sources.lag_ms_p99": "ms",
    "node.self_ms": "ms",
    "node.batches_in": "count",
    "spe.engine.self_ms": "ms",
    **{
        f"spe.{op}.{name}": unit
        for op in ("SUnion", "SJoin", "Filter", "SOutput")
        for name, unit in (("self_ms", "ms"), ("tuples_in", "count"), ("tuples_out", "count"))
    },
    "data_path.self_ms": "ms",
    "data_path.appended": "count",
    "data_path.retained_tuples": "count",
    "statexfer.captures": "count",
    "statexfer.capture_ms": "ms",
    "statexfer.capture_items": "count",
    "statexfer.adoptions": "count",
    "statexfer.adopt_ms": "ms",
    "statexfer.shipped_items": "count",
    "statexfer.recovery_ms": "ms",
    "cm.self_ms": "ms",
    "cm.switches": "count",
    "cm.state_changes": "count",
    "cm.recon_capacity_tps": "tuples/s",
    "redo.tuples": "count",
    "redo.self_ms": "ms",
    "undos": "count",
    "rec_done": "count",
    "client.self_ms": "ms",
    "client.tuples_in": "count",
    "client.proc_new_ms": "ms",
    "client.tentative_tuples": "count",
    "client.failed_frac": "share",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.frames": "count",
    "wire.bytes": "bytes",
    "transport.send_ms": "ms",
    "transport.frames_sent": "count",
    "transport.heartbeats": "count",
    "transport.reconnects": "count",
    "transport.dead_letters": "count",
    "clock.timer_lag_ms_p99": "ms",
    "worker.cpu_s.edge": "s",
    "worker.cpu_s.node": "s",
    "other.self_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.accounted_frac": "share",
}

#: Layer self-time metric -> the trace layers it sums.
SELF_TIME_LAYERS = {
    "deploy.compile_ms": ("deploy.compile",),
    "deploy.deploy_ms": ("deploy.deploy",),
    "sim.event_loop.self_ms": ("sim.event_loop",),
    "sim.network.self_ms": ("sim.network",),
    "sources.self_ms": ("sources",),
    "node.self_ms": ("node",),
    "spe.engine.self_ms": ("spe.engine",),
    "spe.SUnion.self_ms": ("spe.SUnion",),
    "spe.SJoin.self_ms": ("spe.SJoin",),
    "spe.Filter.self_ms": ("spe.Filter",),
    "spe.SOutput.self_ms": ("spe.SOutput",),
    "data_path.self_ms": ("data_path",),
    "statexfer.capture_ms": ("statexfer.capture",),
    "statexfer.adopt_ms": ("statexfer.adopt",),
    "cm.self_ms": ("cm",),
    "redo.self_ms": ("redo",),
    "client.self_ms": ("client",),
    "wire.encode_ms": ("wire.encode",),
    "wire.decode_ms": ("wire.decode",),
    "transport.send_ms": ("transport.send",),
    # Callbacks of modules outside the named layers, and the live
    # transport's own timers (heartbeats, liveness sweeps).
    "other.self_ms": ("other", "transport"),
}

#: Traced sim runs must attribute this share of the traced wall to layers.
ACCOUNTING_TOLERANCE = 0.05


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct: bool, check, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }
    )


def _print_check(label: str, check) -> None:
    print(
        f"ledger[{label}]: {check.attempted - check.missing - check.wrong} of "
        f"{check.attempted} reference rows exact, missing {check.missing}, "
        f"wrong {check.wrong}, extra {check.extra}, duplicates {check.duplicates}, "
        f"reordered {check.reordered}, failed_frac {check.failed_frac:.6f}"
    )


def end_to_end(workload, seed: int, seconds: float) -> tuple[bool, str]:
    outcome = workload.measure(seed, seconds)
    metrics = {
        "setup_s": outcome.setup_s,
        "cost_us_per_tuple": outcome.cost_us_per_tuple,
        "latency_p50_ms": outcome.latency_p50 * 1000.0,
        "latency_p99_ms": outcome.latency_p99 * 1000.0,
        "stable_new_frac": outcome.stable_new_frac,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    executions = outcome.executions
    print(f"workload {workload.name} seed {seed}: {len(executions)} measured execution(s)")
    for name, unit in END_TO_END.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for index, execution in enumerate(executions):
        latency = workload.latency(execution)
        print(
            f"execution {index}: cost_us_per_tuple {execution.cost_us_per_tuple:.6g}, "
            f"cpu_s {execution.cpu_s:.6g}, latency p50/p99 {latency.p50 * 1000.0:.6g}/"
            f"{latency.p99 * 1000.0:.6g} ms over {latency.samples} new tuples in "
            f"{latency.windows} windows, proc_new_ms {latency.proc_new * 1000.0:.6g}, "
            f"tentative_tuples {execution.tentative}, stable {execution.stable}, "
            f"undos {execution.undos}, rec_done {execution.rec_done}"
        )
        for record in execution.recoveries:
            print(
                f"  recovery_ms {record['recovery_s'] * 1000.0:.6g} via {record['mode']} "
                f"(shipped {record.get('shipped_items', 0)} items, replayed "
                f"{record.get('replayed', 0)})"
            )
    _print_check("all executions", outcome.check)
    for name, ok in outcome.conditions.items():
        print(f"condition {name}: {'ok' if ok else 'FAILED'}")
    return outcome.correct, _result_line(outcome.correct, outcome.check, metrics, END_TO_END)


def _p99_ms(values: list) -> float:
    from workloads import nearest_rank

    return nearest_rank(values, 0.99) * 1000.0 if values else 0.0


def traced(workload, seed: int, seconds: float) -> tuple[bool, str]:
    import layertrace
    from ledger import check_ledger
    from workloads import FAILOVER_RUNGS, ChainFailover

    untraced = workload.execute(seed)
    tracer = layertrace.Tracer()
    patches = layertrace.install(tracer)
    try:
        main = workload.execute(seed, tracer=tracer)
    finally:
        patches.undo()
    merged = layertrace.merge({"benchmark": tracer.export(), **main.worker_traces})
    self_s = merged["self_s"]
    counts = merged["counts"]
    calls = merged["calls"]
    live = bool(main.worker_traces)

    check = check_ledger(main.rows, workload.reference(seed))
    conditions = workload.conditions(main, check)
    capacity = 0.0
    rungs = []
    if isinstance(workload, ChainFailover):
        # The capacity probe: the same schedule at higher rates.  A stalled
        # rung is recorded (its failed share is printed), not a failure of
        # the run; a duplicate or reordered row on any rung is.
        rungs = [workload.judge(FAILOVER_RUNGS[0], main, check), *workload.probe_rungs(seed)]
        capacity = max((rung["rate"] for rung in rungs if rung["reconciled"]), default=0.0)
        conditions["rungs_ordered"] = all(rung["check"].ordered for rung in rungs)

    metrics = {name: 0.0 for name in PER_LAYER}
    for name, layers in SELF_TIME_LAYERS.items():
        metrics[name] = sum(self_s.get(layer, 0.0) for layer in layers) * 1000.0
    for name in (
        "node.batches_in",
        "data_path.appended",
        "statexfer.capture_items",
        "cm.state_changes",
        "redo.tuples",
        "wire.frames",
        "wire.bytes",
        "client.tuples_in",
        *(name for name in PER_LAYER if name.endswith((".tuples_in", ".tuples_out"))),
    ):
        metrics[name] = float(counts.get(name, 0))
    metrics["statexfer.captures"] = float(calls.get("statexfer.capture", 0))
    metrics["statexfer.adoptions"] = float(calls.get("statexfer.adopt", 0))
    for name, value in main.counters.items():
        metrics[name] = float(value)
    metrics["sources.retained_log"] = float(merged["retained_log"])
    if not live:
        metrics["data_path.retained_tuples"] = float(merged["retained_tuples"])
    metrics["sources.lag_ms_p99"] = _p99_ms(merged["lags"].get("sources", []))
    metrics["clock.timer_lag_ms_p99"] = _p99_ms(
        [lag for values in merged["lags"].values() for lag in values]
    )
    metrics["statexfer.shipped_items"] = float(
        sum(record.get("shipped_items", 0) for record in main.recoveries)
    )
    metrics["statexfer.recovery_ms"] = sum(
        record["recovery_s"] for record in main.recoveries
    ) * 1000.0
    metrics["cm.switches"] = float(main.switches)
    metrics["cm.recon_capacity_tps"] = capacity
    metrics["undos"] = float(main.undos)
    metrics["rec_done"] = float(main.rec_done)
    metrics["client.proc_new_ms"] = workload.latency(main).proc_new * 1000.0
    metrics["client.tentative_tuples"] = float(main.tentative)
    metrics["client.failed_frac"] = check.failed_frac
    if live:
        metrics["worker.cpu_s.edge"] = main.worker_traces.get("edge", {}).get("cpu_s", 0.0)
        metrics["worker.cpu_s.node"] = sum(
            export["cpu_s"] for worker, export in main.worker_traces.items() if worker != "edge"
        )
    layer_total = sum(self_s.values())
    metrics["trace.wall_ms"] = main.wall_s * 1000.0
    metrics["trace.untraced_wall_ms"] = untraced.wall_s * 1000.0
    # Live runs last as long as their sources do, so the tracing cost shows
    # in the CPU the processes spend, not in the wall time.
    basis = "cpu_s" if live else "wall_s"
    metrics["trace.overhead_ms"] = (getattr(main, basis) - getattr(untraced, basis)) * 1000.0
    if live:
        # Workers run in parallel and idle between timers: compare the
        # layers with the CPU the workers spent, not with wall time.
        worker_cpu = metrics["worker.cpu_s.edge"] + metrics["worker.cpu_s.node"]
        metrics["trace.accounted_frac"] = layer_total / worker_cpu if worker_cpu else 0.0
    else:
        metrics["trace.accounted_frac"] = layer_total / main.wall_s
        conditions["trace_accounts_for_wall"] = (
            abs(metrics["trace.accounted_frac"] - 1.0) <= ACCOUNTING_TOLERANCE
        )

    _write_trace(workload.name, seed, merged, metrics)
    print(f"workload {workload.name} seed {seed}: traced run")
    for name, unit in PER_LAYER.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    _print_check("traced", check)
    for rung in rungs:
        _print_check(f"{rung['rate']:g}/s", rung["check"])
        print(
            f"  rung {rung['rate']:g}/s: proc_new_ms {rung['proc_new'] * 1000.0:.6g}, "
            f"reconciled {'yes' if rung['reconciled'] else 'NO'}"
        )
    for name, ok in conditions.items():
        print(f"condition {name}: {'ok' if ok else 'FAILED'}")
    correct = check.exact and all(conditions.values())
    return correct, _result_line(correct, check, metrics, PER_LAYER)


def _write_trace(name: str, seed: int, merged: dict, metrics: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    payload = {
        "metrics": metrics,
        "self_s": dict(merged["self_s"]),
        "calls": dict(merged["calls"]),
        "counts": dict(merged["counts"]),
        "span_fields": ["process", "id", "layer", "start", "end", "parent"],
        "spans": merged["spans"],
    }
    path.write_text(json.dumps(payload))
    print(f"trace written to {path}")


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {source}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # Live workers bind Unix sockets in a temporary directory: keep it (and
    # anything else temporary) inside the checkout, under a short relative
    # path so socket paths stay within the platform's length limit.
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT_DIR / "tmp")
    run = traced if args.trace else end_to_end
    correct, line = run(workload, args.seed, args.seconds)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
