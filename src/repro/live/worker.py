"""Live worker process: the endpoints of a Placement one process hosts.

A worker hosts a set of *endpoints* -- node replicas, data sources, client
proxies -- and builds them with the one deploy walk,
:func:`repro.deploy.fragments.build_fragment_stack`, passing its hosted set
as ``hosts``.  The walk's ``hosts`` contract puts every registration on the
worker hosting that side of the edge, so the union of all workers is the
simulator deployment edge for edge.  The worker then registers the stack's
subscription filters with the wire codec (which resolves filters by name)
and its peers in a :class:`RemotePeerRegistry`.

The supervisor (:mod:`repro.live.supervisor`) assigns one worker per node
replica plus a single *edge* worker hosting every source and client; killing
a worker therefore kills exactly one replica, and its partner -- a different
process -- serves the checkpoint-shipped recovery over real sockets.

Workers are spawned with the ``fork`` start method: the compiled placement
(which holds closure predicates and payload generators) crosses into the
child by memory inheritance, never by pickling.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Mapping

from ..deploy.fragments import FragmentStack, build_fragment_stack
from ..deploy.placement import Placement
from ..sim.client import ClientApplication
from ..statexfer import PeerRegistry
from . import wire
from .clock import LiveClock
from .faults import FaultPlan
from .transport import LiveTransport

#: Seconds between control-pipe polls inside a worker's asyncio loop.
_CONTROL_POLL = 0.05


class RemotePeerRegistry(PeerRegistry):
    """Peer registry for a live worker: only locally hosted peers resolve.

    ``remote = True`` switches :meth:`ProcessingNode._begin_checkpoint_recovery`
    to blind partner selection (no cross-process peeking); lookups of peers
    hosted elsewhere return ``None``, which every registry consumer already
    treats as "not available" (replay estimates become 0, source log
    truncation is skipped -- both documented live deviations).
    """

    remote = True


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs to build and address its fragment."""

    name: str
    hosted: frozenset[str]
    socket_path: str
    #: worker name -> Unix socket path (full deployment).
    worker_sockets: Mapping[str, str]
    #: endpoint -> worker name (full deployment).
    endpoint_worker: Mapping[str, str]
    #: Shared time origin: ``time.monotonic()`` value that is deployment t=0.
    epoch: float
    #: Endpoints that must run ``recover()`` right after starting (respawn).
    recovering: frozenset[str] = frozenset()
    #: Incarnation number; the supervisor bumps it on every respawn so peers
    #: can reject stale-generation frames from a SIGKILLed predecessor.
    generation: int = 0
    #: Scheduled wire/window faults this worker's transport enforces.
    fault_plan: FaultPlan = FaultPlan()


# --------------------------------------------------------------------------- results
def stable_ledger_rows(client: ClientApplication) -> list:
    """Replica-independent form of a client's stable ledger.

    (stable_seq, repr(stime), sorted payload items) -- the same row form the
    parity harness extracts from a simulator run; ``repr`` keeps floats exact
    and picklable-comparable across processes.
    """
    return [
        (
            item.stable_seq,
            repr(item.stime),
            tuple(sorted((key, repr(value)) for key, value in item.values.items())),
        )
        for item in client.metrics.consistency.ledger
        if item.is_stable
    ]


def _client_result(client: ClientApplication) -> dict:
    from ..runtime.runtime import client_is_eventually_consistent

    return {
        "summary": client.summary(),
        "stable_rows": stable_ledger_rows(client),
        "eventually_consistent": client_is_eventually_consistent(client),
    }


def _status(stack: FragmentStack, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "ledgers": {
            name: len(client.metrics.consistency.ledger)
            for name, client in stack.clients.items()
        },
        "stable": {
            name: sum(1 for item in client.metrics.consistency.ledger if item.is_stable)
            for name, client in stack.clients.items()
        },
        "peers": {
            peer: transport.peer_state(peer).value for peer in transport._worker_sockets
        },
    }


def _tentative_phase(client: ClientApplication) -> dict:
    """Wall-clock window of tentative output in the client trace (seconds)."""
    first = last = None
    count = 0
    for entry in client.metrics.trace:
        if entry.tuple_type == "tentative":
            count += 1
            last = entry.time
            if first is None:
                first = entry.time
    return {"first": first, "last": last, "count": count}


def _result(stack: FragmentStack, clock: LiveClock, transport: LiveTransport) -> dict:
    return {
        "now": clock.now,
        "events_fired": clock.events_fired,
        "sources": {s.name: s.tuples_produced for s in stack.sources.values()},
        "nodes": {
            endpoint: {"statistics": node.statistics(), "recoveries": list(node.recoveries)}
            for endpoint, node in stack.nodes.items()
        },
        "clients": {name: _client_result(c) for name, c in stack.clients.items()},
        "tentative_phase": {
            name: _tentative_phase(c) for name, c in stack.clients.items()
        },
        "transport": transport.transport_stats(),
    }


# --------------------------------------------------------------------------- process entry
def worker_main(spec: WorkerSpec, placement: Placement, deploy_kwargs: dict, conn) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    try:
        asyncio.run(_worker_async(spec, placement, deploy_kwargs, conn))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        conn.close()


async def _worker_async(
    spec: WorkerSpec, placement: Placement, deploy_kwargs: dict, conn
) -> None:
    clock = LiveClock(spec.epoch, loop=asyncio.get_running_loop())
    transport = LiveTransport(
        worker=spec.name,
        socket_path=spec.socket_path,
        endpoint_worker=dict(spec.endpoint_worker),
        worker_sockets=dict(spec.worker_sockets),
        clock=clock,
        generation=spec.generation,
        fault_plan=spec.fault_plan,
    )
    await transport.start()
    stack = build_fragment_stack(
        placement,
        clock=clock,
        network=transport,
        hosts=lambda endpoint: endpoint in spec.hosted,
        **deploy_kwargs,
    )
    for subscription_filter in stack.filters.values():
        wire.register_filter(subscription_filter)
    stack.register_peers(RemotePeerRegistry())
    # All workers start their protocol stacks at the shared epoch, so the
    # startup grace and keepalive cadences line up across processes.
    delay = spec.epoch - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    for source in stack.sources.values():
        source.start()
    for node in stack.nodes.values():
        node.start()
    for client in stack.clients.values():
        client.start()
    for endpoint in spec.recovering:
        node = stack.nodes.get(endpoint)
        if node is not None:
            # A respawned replica rejoins the way a recovered simulated one
            # does: prefer the partner's shipped checkpoint (over sockets),
            # fall back to full subscription replay.
            node.recover()

    try:
        while True:
            handled = False
            while conn.poll():
                try:
                    request = conn.recv()
                except EOFError:
                    return
                if request == "status":
                    conn.send(("status", _status(stack, clock, transport)))
                    handled = True
                elif request == "stop":
                    conn.send(("result", _result(stack, clock, transport)))
                    return
            await asyncio.sleep(_CONTROL_POLL if not handled else 0.0)
    finally:
        await transport.close()


__all__ = [
    "FragmentStack",
    "RemotePeerRegistry",
    "WorkerSpec",
    "build_fragment_stack",
    "stable_ledger_rows",
    "worker_main",
]
