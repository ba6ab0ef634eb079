"""Outside-in layer trace: spans around calls into each ``src/repro`` layer.

Nothing in ``src/`` knows about this module.  :func:`install` replaces public
entry points of each layer with wrappers that record a span (name, start,
end, parent) and per-layer counts; undoing the returned patches puts the
originals back.  A layer's *self time* is its spans' duration minus the time
covered by spans nested inside them, so the self times of all layers add up
to the duration of the outermost spans.

Entry points and the layer they are charged to:

* ``Simulator.run_until`` -> ``sim.event_loop``; every callback handed to
  ``Simulator.schedule_at`` / ``schedule_periodic`` (and ``LiveClock``'s) is
  charged to the layer of the module that defined it (the node's redo chunk
  to ``redo``);
* handlers passed to ``Network.register`` / ``LiveTransport.register``, by
  the handler's module; ``Network.send_many`` -> ``sim.network``,
  ``LiveTransport.send_many`` -> ``transport.send``;
* ``LocalEngine.push`` / ``push_operator`` / ``push_operator_outputs`` ->
  ``spe.engine``; ``process_batch`` of SUnion, SJoin, Filter and SOutput ->
  ``spe.<operator>``;
* ``OutputStreamManager.append_all`` / ``pending_batches`` -> ``data_path``;
* ``capture_checkpoint`` / ``adopt_checkpoint`` as the node module calls
  them -> ``statexfer.capture`` / ``statexfer.adopt``;
* ``ConsistencyManager.handle_message`` -> ``cm``;
  ``MetricsCollector.observe`` -> ``client``;
* ``wire.encode_envelope`` / ``decode_envelope`` -> ``wire.encode`` /
  ``wire.decode``.

Live workers are forked after :func:`install`, so they inherit the wrappers.
The wrapped ``supervisor.worker_main`` clears the inherited trace in each
child, and the wrapped ``LiveTransport.transport_stats`` -- which every
worker calls once when it reports its result -- attaches the worker's trace
(``"bench_trace"``) to the payload the supervisor already collects.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

#: Spans kept per process for the trace file; layer totals are exact
#: regardless (they are accumulated as spans close).
SPAN_CAP = 20_000

#: Module that defined a callback -> layer it is charged to.
MODULE_LAYERS = {
    "repro.sim.event_loop": "sim.event_loop",
    "repro.sim.network": "sim.network",
    "repro.sim.sources": "sources",
    "repro.core.node": "node",
    "repro.core.consistency_manager": "cm",
    "repro.sim.client": "client",
    "repro.live.transport": "transport",
}

TRACED_OPERATORS = ("SUnion", "SJoin", "Filter", "SOutput")


def layer_of(callback) -> str:
    """Layer a scheduled callback or message handler belongs to."""
    func = getattr(callback, "__func__", callback)
    if getattr(func, "__name__", "") == "_redo_chunk":
        return "redo"
    return MODULE_LAYERS.get(getattr(func, "__module__", None), "other")


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Open spans: [span id, layer, time covered by closed children].
        self.stack: list[list] = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Timer lag samples (seconds) per layer, live clock only.
        self.lags: defaultdict = defaultdict(list)
        #: Closed spans: (id, layer, start, end, parent id or -1).
        self.spans: list[tuple] = []
        self.sources: list = []
        self.nodes: list = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold references)."""
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.lags.clear()
        self.spans.clear()
        self.sources.clear()
        self.nodes.clear()
        self._next_id = 0

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span charged to ``layer``."""
        stack = self.stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, layer, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            self.calls[layer] += 1
            parent = -1
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, layer, start, end, parent))

    def wrap(self, layer: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(layer, fn, *args, **kwargs)

        return traced

    def export(self) -> dict:
        """Plain-data snapshot (crosses the worker pipe by pickling)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "lags": {layer: list(values) for layer, values in self.lags.items()},
            "spans": list(self.spans),
            "retained_log": sum(len(source.log) for source in self.sources),
            "retained_tuples": sum(
                manager.buffered_tuples
                for node in self.nodes
                for manager in node.data_path.outputs()
            ),
            "cpu_s": own_cpu_s(),
        }


def own_cpu_s() -> float:
    """User plus system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; ``undo()`` on the result removes the wrappers."""
    from repro.core import data_path, node as node_module
    from repro.core.consistency_manager import ConsistencyManager
    from repro.core.node import ProcessingNode
    from repro.core.protocol import DATA
    from repro.live import supervisor, wire
    from repro.live.clock import LiveClock
    from repro.live.transport import LiveTransport
    from repro.metrics.collector import MetricsCollector
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network
    from repro.sim.sources import DataSource
    from repro.spe import operators
    from repro.spe.engine import LocalEngine

    patches = Patches()
    call = tracer.call
    counts = tracer.counts

    # --- simulator: the loop itself and every scheduled callback -------------
    run_until = Simulator.run_until
    patches.set(Simulator, "run_until", tracer.wrap("sim.event_loop", run_until))
    schedule_at = Simulator.schedule_at

    def sim_schedule_at(sim, at, callback, *args, **kwargs):
        return schedule_at(sim, at, tracer.wrap(layer_of(callback), callback), *args, **kwargs)

    patches.set(Simulator, "schedule_at", sim_schedule_at)
    schedule_periodic = Simulator.schedule_periodic

    def sim_schedule_periodic(sim, period, callback, *args, **kwargs):
        return schedule_periodic(
            sim, period, tracer.wrap(layer_of(callback), callback), *args, **kwargs
        )

    patches.set(Simulator, "schedule_periodic", sim_schedule_periodic)

    # --- live clock: same attribution, plus how late each timer fired --------
    lags = tracer.lags
    schedule_in = LiveClock.schedule_in

    def live_schedule_in(clock, delay, callback, *args, **kwargs):
        layer = layer_of(callback)
        due = time.monotonic() + max(0.0, delay)

        def fire(now):
            lags[layer].append(time.monotonic() - due)
            return call(layer, callback, now)

        return schedule_in(clock, delay, fire, *args, **kwargs)

    patches.set(LiveClock, "schedule_in", live_schedule_in)
    live_periodic = LiveClock.schedule_periodic

    def live_schedule_periodic(clock, period, callback, *args, **kwargs):
        layer = layer_of(callback)
        start_delay = kwargs.get("start_delay")
        first = period if start_delay is None else start_delay
        # LiveClock re-arms a periodic timer ``period`` after the callback
        # returns, so that is when the next firing is due.
        due = [time.monotonic() + max(0.0, first)]

        def fire(now):
            lags[layer].append(time.monotonic() - due[0])
            try:
                return call(layer, callback, now)
            finally:
                due[0] = time.monotonic() + period

        return live_periodic(clock, period, fire, *args, **kwargs)

    patches.set(LiveClock, "schedule_periodic", live_schedule_periodic)

    # --- message handlers and sends ------------------------------------------
    def wrap_register(register):
        def traced_register(network, name, handler):
            layer = layer_of(handler)
            if layer == "node":

                def node_handler(message, now):
                    if message.kind == DATA:
                        counts["node.batches_in"] += 1
                    return call("node", handler, message, now)

                return register(network, name, node_handler)
            return register(network, name, tracer.wrap(layer, handler))

        return traced_register

    patches.set(Network, "register", wrap_register(Network.register))
    patches.set(LiveTransport, "register", wrap_register(LiveTransport.register))
    patches.set(Network, "send_many", tracer.wrap("sim.network", Network.send_many))
    patches.set(
        LiveTransport, "send_many", tracer.wrap("transport.send", LiveTransport.send_many)
    )

    # --- query processing ----------------------------------------------------
    for name in ("push", "push_operator", "push_operator_outputs"):
        patches.set(LocalEngine, name, tracer.wrap("spe.engine", getattr(LocalEngine, name)))
    for op_name in TRACED_OPERATORS:
        op_class = getattr(operators, op_name)
        patches.set(op_class, "process_batch", _wrap_operator(tracer, op_class))

    manager_class = data_path.OutputStreamManager
    append_all = manager_class.append_all

    def traced_append_all(manager, items):
        result = call("data_path", append_all, manager, items)
        counts["data_path.appended"] += len(result)
        return result

    patches.set(manager_class, "append_all", traced_append_all)
    patches.set(
        manager_class,
        "pending_batches",
        tracer.wrap("data_path", manager_class.pending_batches),
    )

    # --- state transfer (as the node module calls it) ------------------------
    capture = node_module.capture_checkpoint

    def traced_capture(node, now):
        checkpoint = call("statexfer.capture", capture, node, now)
        counts["statexfer.capture_items"] += checkpoint.item_count
        return checkpoint

    patches.set(node_module, "capture_checkpoint", traced_capture)
    patches.set(
        node_module,
        "adopt_checkpoint",
        tracer.wrap("statexfer.adopt", node_module.adopt_checkpoint),
    )

    # --- consistency manager and client ---------------------------------------
    patches.set(
        ConsistencyManager,
        "handle_message",
        tracer.wrap("cm", ConsistencyManager.handle_message),
    )
    observe = MetricsCollector.observe

    def traced_observe(collector, item, now):
        counts["client.tuples_in"] += 1
        return call("client", observe, collector, item, now)

    patches.set(MetricsCollector, "observe", traced_observe)
    set_state = ConsistencyManager.set_state

    def counted_set_state(cm, new_state):
        if new_state is not cm.state:
            counts["cm.state_changes"] += 1
        return set_state(cm, new_state)

    patches.set(ConsistencyManager, "set_state", counted_set_state)

    # --- redo: tuples re-processed by reconciliation chunks -------------------
    # (charged by layer_of; counted here through the engine's own counter)
    redo_chunk = ProcessingNode._redo_chunk

    def traced_redo_chunk(node, now):
        before = node.engine.tuples_processed
        try:
            return redo_chunk(node, now)
        finally:
            counts["redo.tuples"] += node.engine.tuples_processed - before

    # Keep the name: layer_of charges the scheduled chunk to ``redo`` by it.
    traced_redo_chunk.__name__ = redo_chunk.__name__
    patches.set(ProcessingNode, "_redo_chunk", traced_redo_chunk)

    # --- live wire codec --------------------------------------------------------
    encode = wire.encode_envelope

    def traced_encode(*args):
        body = call("wire.encode", encode, *args)
        counts["wire.frames"] += 1
        counts["wire.bytes"] += len(body)
        return body

    patches.set(wire, "encode_envelope", traced_encode)
    patches.set(wire, "decode_envelope", tracer.wrap("wire.decode", wire.decode_envelope))

    # --- registries for end-of-run sizes ----------------------------------------
    for owner, registry in ((DataSource, tracer.sources), (ProcessingNode, tracer.nodes)):
        patches.set(owner, "start", _registering_start(owner.start, registry))

    # --- live workers: fresh trace per child, shipped back with the result -------
    worker_main = supervisor.worker_main

    def traced_worker_main(*args):
        tracer.reset()
        return worker_main(*args)

    patches.set(supervisor, "worker_main", traced_worker_main)
    transport_stats = LiveTransport.transport_stats

    def traced_transport_stats(transport):
        stats = transport_stats(transport)
        stats["bench_trace"] = tracer.export()
        return stats

    patches.set(LiveTransport, "transport_stats", traced_transport_stats)
    return patches


def _wrap_operator(tracer: Tracer, op_class):
    layer = f"spe.{op_class.__name__}"
    process_batch = op_class.process_batch
    call = tracer.call
    counts = tracer.counts
    key_in = f"{layer}.tuples_in"
    key_out = f"{layer}.tuples_out"

    def traced(op, port, items):
        items = items if isinstance(items, list) else list(items)
        result = call(layer, process_batch, op, port, items)
        counts[key_in] += len(items)
        counts[key_out] += len(result)
        return result

    return traced


def _registering_start(start, registry: list):
    def traced_start(component):
        if component not in registry:
            registry.append(component)
        return start(component)

    return traced_start


def merge(exports: dict) -> dict:
    """Sum the exports of several processes (by process name) into one.

    Spans keep their process: ``(process, id, layer, start, end, parent)``.
    """
    merged = {
        "self_s": Counter(),
        "calls": Counter(),
        "counts": Counter(),
        "lags": defaultdict(list),
        "spans": [],
        "retained_log": 0,
        "retained_tuples": 0,
    }
    for process, export in exports.items():
        merged["self_s"].update(export["self_s"])
        merged["calls"].update(export["calls"])
        merged["counts"].update(export["counts"])
        for layer, values in export["lags"].items():
            merged["lags"][layer].extend(values)
        merged["spans"].extend((process, *span) for span in export["spans"])
        merged["retained_log"] += export["retained_log"]
        merged["retained_tuples"] += export["retained_tuples"]
    return merged
