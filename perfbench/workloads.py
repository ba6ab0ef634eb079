"""The three benchmark workloads and the measurements taken from them.

All workloads are finite: sources stop producing at a fixed stime, so the
complete stable output is known and every run is checked row by row against
a reference ledger (see :mod:`ledger`).

* ``sim-shard4-steady`` -- failure-free ``Topology.shard(4)``, 2 replicas,
  1200 tuples/s for 60 simulated seconds.  Loads the steady data path
  (sources, ``sim.network``, node, SUnion/SJoin/Filter/SOutput, filtered
  routing, checkpoint capture, client) and no failure path.  Long enough
  that output buffers grow into the hundreds of thousands of tuples.
  Reference: ``shard(1)`` on the same sources and seed.
* ``sim-chain4-failover`` -- ``Topology.chain(4)``, 2 replicas, 300
  tuples/s; one source disconnected for 10 s, then (after reconciliation has
  finished) one first-node replica crashed for 8 s and recovered from a
  shipped checkpoint.  Loads the consistency manager, switching, undo/redo
  reconciliation, ``statexfer`` adoption and source replay.  The same
  schedule at 600 and 1200 tuples/s sets ``recon_capacity_tps``, the highest
  rate that still reconciles completely within the availability bound.
  Reference: the same chain without failures.
* ``live-chain1-steady`` -- ``Topology.chain(1)``, 2 replicas on the live
  backend (3 worker processes), open loop at 4000 tuples/s for 10 seconds of
  stime, about a third of the rate at which the deployment overloads.
  Loads ``live.wire``, ``live.transport`` and ``live.clock``.  Reference:
  the simulator run of the same placement.

Each workload repeats its execution for ``--seconds`` of wall time and
reports medians over the executions.  Processing cost and set-up time are
scaled to a quiet host by calibration slices run alongside the work (see
:mod:`hostspeed`).

Latency is measured per *new* output tuple (stime above every stime seen
before, the paper's NewOutput set) as arrival minus stime -- virtual time on
the simulator, wall time on the live backend -- over a steady window that
skips the first ``WARMUP`` seconds and the last bucket before the sources
stop (that bucket waits out the delay bound on the simulator).
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.config import DPCConfig
from repro.deploy.placement import compile as compile_topology
from repro.live import supervisor
from repro.live.transport import LiveTransport
from repro.live.worker import build_fragment_stack, stable_ledger_rows
from repro.metrics.collector import MetricsCollector
from repro.sim.event_loop import Simulator
from repro.sim.network import Network
from repro.topology import Topology
from repro.workloads.scenarios import FailureSpec, Scenario

import hostspeed
import layertrace
from ledger import LedgerCheck, check_ledger

REPLICAS = 2
#: Seconds of stime skipped at the start of the latency window.
WARMUP = 2.0
#: Seconds of stime skipped before the sources stop (the final bucket).
TAIL = 0.5
#: Width of the stime windows whose p99 latency (and, live, CPU cost) is
#: reported as a median over the steady window.  Equal to the default
#: recovery-checkpoint interval, so that every window holds one capture;
#: one-second windows would alternate between two cost levels.
STEADY_WINDOW = DPCConfig().checkpoint_interval
#: Stime a simulator execution advances between two calibration slices.
CALIBRATION_STEP = 0.5
#: Set-ups timed per run (after one untimed warm-up): at least this many, and
#: for at least ``SETUP_SECONDS``; ``setup_s`` is their median.
SETUP_REPEATS = 31
SETUP_SECONDS = 2.0

SHARD_RATE = 1200.0
SHARD_STOP = 60.0
SHARD_DRAIN = 6.0

FAILOVER_RUNGS = (300.0, 600.0, 1200.0)
FAILOVER_STOP = 60.0
FAILOVER_DRAIN = 10.0
#: Disconnect one source for 10 s; crash a first-node replica for 8 s once
#: the disconnect has been reconciled (about 40 s at 300 tuples/s).
FAILOVER_FAILURES = (
    FailureSpec("disconnect", start=5.0, duration=10.0, stream_index=0),
    FailureSpec("crash", start=45.0, duration=8.0, node_level=0, node_replica=0),
)

LIVE_RATE = 4000.0
#: Stime at which the live sources stop: long enough for three steady
#: windows, short enough that a run holds two executions, whose timers start
#: at mirrored phases (see ``LiveSteady.execution_seed``).
LIVE_STOP = 10.0
LIVE_DRAIN_TIMEOUT = 20.0
#: Seconds between two calibration slices while live workers run.
LIVE_CALIBRATION_PERIOD = 0.1
LIVE_SIM_DRAIN = 6.0


def _untraced(layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# --------------------------------------------------------------------------- statistics
def nearest_rank(values: list, q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass(frozen=True)
class Latency:
    """Stable-output latency of new tuples over the steady window (seconds)."""

    samples: int
    #: Each full ``STEADY_WINDOW``-wide stime window's p50 and p99.
    window_p50s: tuple
    window_p99s: tuple
    #: Proc_new: the largest latency of any new tuple in the window.
    proc_new: float
    #: Share of new tuples that arrived stable rather than tentative.
    stable_new_frac: float

    @property
    def windows(self) -> int:
        return len(self.window_p99s)

    @property
    def p50(self) -> float:
        return statistics.median(self.window_p50s)

    @property
    def p99(self) -> float:
        return statistics.median(self.window_p99s)


def latency_of(new_tuples: list, start: float, end: float) -> Latency:
    """Summarize ``(stime, latency, stable)`` triples with ``start <= stime < end``."""
    window = [item for item in new_tuples if start <= item[0] < end]
    if not window:
        raise RuntimeError(f"no new output tuple with stime in [{start}, {end})")
    latencies = [item[1] for item in window]
    full_windows = int((end - start) // STEADY_WINDOW)
    buckets: dict = {}
    for stime, latency, _ in window:
        index = int((stime - start) // STEADY_WINDOW)
        if index < full_windows:
            buckets.setdefault(index, []).append(latency)
    return Latency(
        samples=len(window),
        window_p50s=tuple(statistics.median(values) for values in buckets.values()),
        window_p99s=tuple(nearest_rank(values, 0.99) for values in buckets.values()),
        proc_new=max(latencies),
        stable_new_frac=sum(1 for item in window if item[2]) / len(window),
    )


def _new_tuples(collector: MetricsCollector) -> list:
    return [
        (record.stime, record.latency, record.tuple_type == "insertion")
        for record in collector.latency.records
        if record.is_new
    ]


def _tentative_before(collector: MetricsCollector, end: float) -> int:
    return sum(
        1 for entry in collector.trace if entry.tuple_type == "tentative" and entry.stime < end
    )


# --------------------------------------------------------------------------- one execution
@dataclass
class Execution:
    """What one run of a deployment delivered and what it cost."""

    rows: list
    new_tuples: list
    tentative: int
    setup_s: float
    #: Seconds from compile to the end of the run (the traced-wall basis),
    #: without the calibration slices run alongside.
    wall_s: float
    #: CPU seconds spent running (after set-up), all processes involved.
    cpu_s: float
    #: Processing cost per stable tuple: the simulation's wall time (one
    #: always-busy process) scaled to the quiet host by the calibration
    #: slices run alongside (see :mod:`hostspeed`) or, live, the workers'
    #: CPU time per tuple produced, as a median over the steady windows,
    #: scaled likewise.
    cost_us_per_tuple: float
    #: Seconds the calibration slices took, on top of ``wall_s``.
    calibration_s: float = 0.0
    undos: int = 0
    rec_done: int = 0
    switches: int = 0
    recoveries: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Per-process trace exports (live workers), empty on the simulator.
    worker_traces: dict = field(default_factory=dict)

    @property
    def stable(self) -> int:
        return len(self.rows)

    @property
    def elapsed_s(self) -> float:
        return self.wall_s + self.calibration_s


def deploy_sim(
    topology: Topology, rate: float, stop: float, seed: int, failures=(), span=_untraced
):
    """Compile and deploy the scenario, schedule its failures and start it."""
    placement = span("deploy.compile", compile_topology, topology, replicas_per_node=REPLICAS)
    deployment = span(
        "deploy.deploy", placement.deploy, seed=seed, aggregate_rate=rate, source_stop_time=stop
    )
    Scenario(failures=list(failures)).inject(deployment.cluster)
    span("deploy.deploy", deployment.start)
    return deployment


def run_sim(
    topology: Topology,
    rate: float,
    stop: float,
    drain: float,
    seed: int,
    failures=(),
    tracer: "layertrace.Tracer | None" = None,
) -> Execution:
    """Compile, deploy and run one finite simulator scenario.

    The run advances ``CALIBRATION_STEP`` of stime at a time with a
    calibration slice after each step; the slices' time is kept out of
    ``wall_s`` and ``cpu_s``.
    """
    started = time.perf_counter()
    deployment = deploy_sim(
        topology, rate, stop, seed, failures, tracer.call if tracer is not None else _untraced
    )
    setup_s = time.perf_counter() - started
    meter = hostspeed.Meter()
    run_s = cpu_s = 0.0
    begin = deployment.simulator.now
    steps = math.ceil((stop + drain) / CALIBRATION_STEP)
    for step in range(1, steps + 1):
        step_started, cpu_before = time.perf_counter(), time.process_time()
        deployment.run_until(begin + min(stop + drain, step * CALIBRATION_STEP))
        cpu_s += time.process_time() - cpu_before
        run_s += time.perf_counter() - step_started
        meter.slice()
    wall_s = setup_s + run_s
    rows = [row for client in deployment.clients for row in stable_ledger_rows(client)]
    cluster = deployment.cluster
    clients = deployment.clients
    nodes = [node for group in cluster.nodes for node in group]
    new_tuples = [item for client in clients for item in _new_tuples(client.metrics)]
    return Execution(
        rows=rows,
        new_tuples=new_tuples,
        tentative=sum(_tentative_before(client.metrics, stop - TAIL) for client in clients),
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        cost_us_per_tuple=run_s * meter.scale() / max(len(rows), 1) * 1e6,
        calibration_s=meter.seconds,
        undos=sum(client.metrics.consistency.total_undos for client in clients),
        rec_done=sum(client.metrics.consistency.total_rec_done for client in clients),
        switches=sum(node.cm.switches_performed for node in nodes)
        + sum(client.cm.switches_performed for client in clients),
        recoveries=[dict(record) for node in nodes for record in node.recoveries],
        counters={
            "sim.event_loop.events": deployment.simulator.events_fired,
            "sim.network.messages": deployment.network.stats.sent,
            "sim.network.deliveries": deployment.network.stats.delivered,
            "sources.tuples": sum(source.tuples_produced for source in cluster.sources),
        },
    )


def sim_setup_s(topology: Topology, rate: float, stop: float, seed: int, failures=()) -> float:
    """Seconds to compile, deploy and start the scenario (not run)."""
    started = time.perf_counter()
    deploy_sim(topology, rate, stop, seed, failures)
    return time.perf_counter() - started


def live_setup_s(stop: float, seed: int) -> float:
    """Seconds to compile the live placement and build and start every worker's fragment.

    The fragments are built in this process on a simulator clock and network:
    the same walk each forked worker performs before the shared epoch, without
    the fork and the fixed start-up delay the supervisor adds.
    """
    started = time.perf_counter()
    placement = compile_topology(Topology.chain(1), replicas_per_node=REPLICAS)
    live = placement.deploy(
        seed=seed, aggregate_rate=LIVE_RATE, source_stop_time=stop, backend="live"
    )
    simulator = Simulator()
    stack = build_fragment_stack(
        placement,
        clock=simulator,
        network=Network(simulator),
        hosts=lambda endpoint: True,
        **live.deploy_kwargs,
    )
    for component in (*stack.sources.values(), *stack.nodes.values(), *stack.clients.values()):
        component.start()
    return time.perf_counter() - started


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@contextlib.contextmanager
def _calibrating():
    """Run calibration slices on a thread of this process while the block runs.

    The live workers do the work; this process only waits for them.  The
    thread runs under ``SCHED_IDLE``, so that it takes a core only when the
    workers leave it idle and never preempts them, and its slices are timed
    in its own CPU time, which waiting for a core does not add to.
    """
    meter = hostspeed.Meter(clock=time.thread_time)
    done = threading.Event()

    def calibrate():
        os.sched_setscheduler(threading.get_native_id(), os.SCHED_IDLE, os.sched_param(0))
        while not done.wait(LIVE_CALIBRATION_PERIOD):
            meter.slice()

    thread = threading.Thread(target=calibrate, name="perfbench-calibration")
    thread.start()
    try:
        yield meter
    finally:
        done.set()
        thread.join()


def run_live(stop: float, seed: int, tracer: "layertrace.Tracer | None" = None) -> Execution:
    """Run ``chain(1)`` on the live backend; sources stop at stime ``stop``.

    Measurements that only the workers can take travel back in the results
    they already return; the wrappers are installed here and inherited by
    the forked workers:

    * ``MetricsCollector.summary`` adds the client's new-tuple latencies;
    * ``supervisor.worker_main`` starts a thread that samples the worker's
      CPU time at each steady-window boundary, and
      ``LiveTransport.transport_stats`` returns the samples.
    """
    span = tracer.call if tracer is not None else _untraced
    # CPU windows start mid-way between two checkpoint captures, so that
    # each holds exactly one capture whatever the timer jitter.
    first_sample = WARMUP + STEADY_WINDOW / 2
    windows = int((stop - TAIL - first_sample) // STEADY_WINDOW)
    patches = layertrace.Patches()
    summary = MetricsCollector.summary

    def summary_with_latencies(collector):
        data = summary(collector)
        data["bench_new_tuples"] = _new_tuples(collector)
        data["bench_tentative"] = _tentative_before(collector, stop - TAIL)
        return data

    patches.set(MetricsCollector, "summary", summary_with_latencies)
    worker_main = supervisor.worker_main
    holder: dict = {}

    def sampled_worker_main(spec, *args):
        samples = holder["cpu_samples"] = []

        def sample():
            for index in range(windows + 1):
                delay = spec.epoch + first_sample + index * STEADY_WINDOW - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                samples.append(layertrace.own_cpu_s())

        threading.Thread(target=sample, name="perfbench-cpu", daemon=True).start()
        return worker_main(spec, *args)

    patches.set(supervisor, "worker_main", sampled_worker_main)
    transport_stats = LiveTransport.transport_stats

    def stats_with_samples(transport):
        stats = transport_stats(transport)
        stats["bench_cpu_samples"] = list(holder.get("cpu_samples", ()))
        return stats

    patches.set(LiveTransport, "transport_stats", stats_with_samples)
    try:
        started = time.perf_counter()
        placement = span(
            "deploy.compile", compile_topology, Topology.chain(1), replicas_per_node=REPLICAS
        )
        live = span(
            "deploy.deploy",
            placement.deploy,
            seed=seed,
            aggregate_rate=LIVE_RATE,
            source_stop_time=stop,
            backend="live",
        )
        setup_s = time.perf_counter() - started
        cpu_before = _children_cpu_s() + layertrace.own_cpu_s()
        with _calibrating() as meter:
            result = live.run(duration=stop + TAIL, drain_timeout=LIVE_DRAIN_TIMEOUT)
        cpu_s = _children_cpu_s() + layertrace.own_cpu_s() - cpu_before - meter.seconds
        wall_s = time.perf_counter() - started
    finally:
        patches.undo()
    summaries = [client["summary"] for _, client in sorted(result.clients.items())]
    window_cpu = [0.0] * windows
    for stats in result.transport.values():
        samples = stats["bench_cpu_samples"]
        if len(samples) != windows + 1:
            raise RuntimeError(
                f"worker {stats['worker']!r} sampled {len(samples)} of {windows + 1} "
                f"CPU window boundaries"
            )
        for index in range(windows):
            window_cpu[index] += samples[index + 1] - samples[index]
    tuples_per_window = LIVE_RATE * STEADY_WINDOW
    links = [
        link for stats in result.transport.values() for link in stats.get("links", {}).values()
    ]
    return Execution(
        rows=[row for name in sorted(result.clients) for row in result.stable_rows(name)],
        new_tuples=[item for data in summaries for item in data["bench_new_tuples"]],
        tentative=sum(data["bench_tentative"] for data in summaries),
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        cost_us_per_tuple=statistics.median(window_cpu) / tuples_per_window * 1e6 * meter.scale(),
        undos=sum(data["total_undos"] for data in summaries),
        rec_done=sum(data["total_rec_done"] for data in summaries),
        switches=sum(node["statistics"]["switches"] for node in result.nodes.values())
        + sum(data["switches"] for data in summaries),
        recoveries=result.recoveries(),
        counters={
            "sources.tuples": sum(result.sources.values()),
            "transport.frames_sent": sum(link["frames_sent"] for link in links),
            "transport.reconnects": sum(link["reconnects"] for link in links),
            "transport.dead_letters": sum(link["dead_letters"] for link in links),
            "transport.heartbeats": sum(
                stats.get("heartbeats_sent", 0) for stats in result.transport.values()
            ),
            "data_path.retained_tuples": sum(
                output["buffered"]
                for node in result.nodes.values()
                for output in node["statistics"]["outputs"].values()
            ),
        },
        worker_traces={
            worker: stats["bench_trace"]
            for worker, stats in result.transport.items()
            if "bench_trace" in stats
        },
    )


def live_reference_rows(stop: float, seed: int) -> list:
    """The simulator's stable ledger for the live workload (its oracle)."""
    placement = compile_topology(Topology.chain(1), replicas_per_node=REPLICAS)
    deployment = placement.deploy(seed=seed, aggregate_rate=LIVE_RATE, source_stop_time=stop)
    deployment.start()
    deployment.run_for(stop + LIVE_SIM_DRAIN)
    return [row for client in deployment.clients for row in stable_ledger_rows(client)]


# --------------------------------------------------------------------------- workloads
@dataclass
class Outcome:
    """Everything one benchmark invocation measured on a workload.

    Each end-to-end figure is the median over the measured executions.
    """

    executions: list
    #: The executions' ledger checks, summed.
    check: LedgerCheck
    cost_us_per_tuple: float
    latency_p50: float
    latency_p99: float
    stable_new_frac: float
    setup_s: float
    peak_rss_mb: float
    #: Conditions beyond the ledger that the run must meet, by name.
    conditions: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.check.exact and all(self.conditions.values())


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in kilobytes on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _sum_checks(checks: list) -> LedgerCheck:
    fields = LedgerCheck.__dataclass_fields__
    return LedgerCheck(**{name: sum(getattr(check, name) for check in checks) for name in fields})


class Workload:
    """One named workload: how to run it, set it up, and check it."""

    name = ""
    #: Stime at which the sources stop producing.
    stop = 0.0
    #: Whether the executions replay one seed and must give identical ledgers
    #: (the simulator), or each derive their own seed from it (the live
    #: backend: the seed sets the sources' start offset, hence the timer
    #: phase between processes, and a median over phases is steadier).
    deterministic = True
    #: Whose peak RSS counts: this process, or its largest (forked) child.
    rss_of = resource.RUSAGE_SELF

    def execute(self, seed: int, tracer=None) -> Execution:
        """The workload's measured execution (the one the trace explains)."""
        raise NotImplementedError

    def setup_once(self, seed: int) -> float:
        raise NotImplementedError

    def reference(self, seed: int) -> list:
        raise NotImplementedError

    def conditions(self, execution: Execution, check: LedgerCheck) -> dict:
        """Checks beyond the ledger that an execution must pass, by name."""
        return {}

    def latency(self, execution: Execution) -> Latency:
        return latency_of(execution.new_tuples, WARMUP, self.stop - TAIL)

    def execution_seed(self, seed: int, index: int) -> int:
        return seed

    def setup_s(self, seed: int) -> float:
        """Median set-up time, scaled to the quiet host by slices run in between."""
        self.setup_once(seed)
        gc.collect()
        meter = hostspeed.Meter()
        times = []
        started = time.perf_counter()
        while len(times) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
            times.append(self.setup_once(seed))
            meter.slice()
        return statistics.median(times) * meter.scale()

    def measure(self, seed: int, seconds: float) -> Outcome:
        """Repeat the execution for ``seconds``, then set up, then check every ledger.

        Every execution starts from a collected heap, so that garbage left
        by the previous one is not charged to it.

        Peak RSS is read after the first execution: ``ru_maxrss`` only rises,
        and memory the allocator kept from one execution would otherwise
        make the figure depend on how many executions fit.  The executions
        go before set-up: forked live workers start as a copy of this
        process, and their RSS should not include set-up leftovers.
        """
        started = time.perf_counter()
        seeds = [self.execution_seed(seed, 0)]
        gc.collect()
        executions = [self.execute(seeds[0])]
        peak_rss_mb = _peak_rss_mb(self.rss_of)
        while time.perf_counter() - started + executions[-1].elapsed_s <= seconds:
            seeds.append(self.execution_seed(seed, len(executions)))
            gc.collect()
            executions.append(self.execute(seeds[-1]))
        setup_s = self.setup_s(seed)
        references = {each: self.reference(each) for each in set(seeds)}
        checks = [
            check_ledger(execution.rows, references[each])
            for each, execution in zip(seeds, executions)
        ]
        latencies = [self.latency(execution) for execution in executions]
        conditions = {}
        for execution, check in zip(executions, checks):
            for name, ok in self.conditions(execution, check).items():
                conditions[name] = conditions.get(name, True) and ok
        if self.deterministic:
            conditions["repeatable"] = all(
                execution.rows == executions[0].rows for execution in executions
            )
        return Outcome(
            executions=executions,
            check=_sum_checks(checks),
            cost_us_per_tuple=statistics.median(e.cost_us_per_tuple for e in executions),
            latency_p50=statistics.median(each for lat in latencies for each in lat.window_p50s),
            latency_p99=statistics.median(each for lat in latencies for each in lat.window_p99s),
            stable_new_frac=statistics.median(latency.stable_new_frac for latency in latencies),
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb,
            conditions=conditions,
        )


class ShardSteady(Workload):
    name = "sim-shard4-steady"
    stop = SHARD_STOP

    def execute(self, seed, tracer=None):
        return run_sim(Topology.shard(4), SHARD_RATE, self.stop, SHARD_DRAIN, seed, tracer=tracer)

    def setup_once(self, seed):
        return sim_setup_s(Topology.shard(4), SHARD_RATE, self.stop, seed)

    def reference(self, seed):
        return run_sim(Topology.shard(1), SHARD_RATE, self.stop, SHARD_DRAIN, seed).rows


class ChainFailover(Workload):
    name = "sim-chain4-failover"
    stop = FAILOVER_STOP

    def execute(self, seed, tracer=None, rate=FAILOVER_RUNGS[0]):
        return run_sim(
            Topology.chain(4), rate, self.stop, FAILOVER_DRAIN, seed, FAILOVER_FAILURES, tracer
        )

    def setup_once(self, seed):
        return sim_setup_s(
            Topology.chain(4), FAILOVER_RUNGS[0], self.stop, seed, FAILOVER_FAILURES
        )

    def reference(self, seed, rate=FAILOVER_RUNGS[0]):
        return run_sim(Topology.chain(4), rate, self.stop, FAILOVER_DRAIN, seed).rows

    def judge(self, rate: float, execution: Execution, check: LedgerCheck) -> dict:
        """Did the failure schedule at ``rate`` reconcile completely within X?"""
        proc_new = self.latency(execution).proc_new
        return {
            "rate": rate,
            "check": check,
            "proc_new": proc_new,
            "reconciled": check.exact and proc_new < DPCConfig().max_incremental_latency,
        }

    def probe_rungs(self, seed) -> list:
        """Judge the schedule at the higher rungs: how far reconciliation keeps up."""
        rungs = []
        for rate in FAILOVER_RUNGS[1:]:
            execution = self.execute(seed, rate=rate)
            check = check_ledger(execution.rows, self.reference(seed, rate=rate))
            rungs.append(self.judge(rate, execution, check))
        return rungs

    def conditions(self, execution, check):
        return {
            "proc_new_below_X": self.judge(FAILOVER_RUNGS[0], execution, check)["reconciled"],
            "recovered_from_checkpoint": any(
                record["mode"] == "checkpoint" for record in execution.recoveries
            ),
        }


class LiveSteady(Workload):
    name = "live-chain1-steady"
    stop = LIVE_STOP
    deterministic = False
    rss_of = resource.RUSAGE_CHILDREN

    def execute(self, seed, tracer=None):
        return run_live(self.stop, seed, tracer=tracer)

    def setup_once(self, seed):
        return live_setup_s(self.stop, seed)

    def reference(self, seed):
        return live_reference_rows(self.stop, seed)

    def execution_seed(self, seed, index):
        """Even executions draw a start phase; each odd one mirrors the one before.

        The deployment starts every source ``Random(seed).uniform`` into the
        first half batch interval, and live latency grows with that phase:
        a median of 129 ms at 7% of the range against 150 ms at 88%.  A run
        holds two executions, and pairing a phase ``u`` with one near
        ``1 - u`` keeps their median from depending on the draw.
        """
        base = (seed * 1000 + index) * 1000
        if index % 2 == 0:
            return base
        target = 1.0 - random.Random(self.execution_seed(seed, index - 1)).random()
        return min(
            range(base, base + 1000), key=lambda each: abs(random.Random(each).random() - target)
        )


WORKLOADS = {
    workload.name: workload for workload in (ShardSteady(), ChainFailover(), LiveSteady())
}
