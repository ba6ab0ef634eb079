"""The deploy walk's ``hosts`` contract: per-worker stacks partition the full build.

The simulator runs the walk once with every endpoint hosted; the live backend
runs it once per worker with that worker's hosted set.  Split along the
supervisor's worker plan, the stacks must build every endpoint exactly once
and, together, make exactly the registrations of the single-process build.
Built here on simulator clocks, so no process is spawned.
"""

from collections import Counter

import pytest

from repro import deploy
from repro.core.node import ProcessingNode
from repro.deploy.filters import SubscriptionFilter
from repro.deploy.fragments import build_fragment_stack
from repro.live.faults import FaultPlan
from repro.live.supervisor import LiveBackendUnavailable
from repro.sim.client import ClientApplication
from repro.sim.event_loop import Simulator
from repro.sim.network import Network
from repro.sim.sources import DataSource
from repro.topology import Topology

TOPOLOGIES = {
    "chain2": lambda: Topology.chain(2),
    "diamond": Topology.diamond,
    "shard4": lambda: Topology.shard(4),
}

#: The wiring calls the walk makes, by the class that receives them.
REGISTRATIONS = (
    (DataSource, "subscribe"),
    (ProcessingNode, "register_input_stream"),
    (ProcessingNode, "register_subscriber"),
    (ProcessingNode, "add_state_watcher"),
    (ClientApplication, "register_upstream"),
)


def _plain(value):
    """A build-independent form of one call argument (filters by name)."""
    if isinstance(value, SubscriptionFilter):
        return ("filter", value.name)
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return value


@pytest.fixture
def calls(monkeypatch):
    """Every wiring call made while the test runs, as plain tuples."""
    recorded: list[tuple] = []

    def recording(method, original):
        def wrapper(self, *args, **kwargs):
            recorded.append(
                (
                    method,
                    self.name,
                    tuple(_plain(arg) for arg in args),
                    tuple(sorted((key, _plain(arg)) for key, arg in kwargs.items())),
                )
            )
            return original(self, *args, **kwargs)

        return wrapper

    for cls, method in REGISTRATIONS:
        monkeypatch.setattr(cls, method, recording(method, getattr(cls, method)))
    return recorded


def build(placement, deploy_kwargs, hosts):
    simulator = Simulator()
    return build_fragment_stack(
        placement, clock=simulator, network=Network(simulator), hosts=hosts, **deploy_kwargs
    )


def endpoints(stack) -> list[str]:
    return [
        *(source.name for source in stack.sources.values()),
        *stack.nodes,
        *stack.clients,
    ]


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_worker_stacks_partition_the_full_build(name, calls):
    placement = deploy.compile(TOPOLOGIES[name]())
    try:
        live = placement.deploy(aggregate_rate=90.0, seed=1, backend="live")
    except LiveBackendUnavailable as exc:
        pytest.skip(str(exc))

    full = build(placement, live.deploy_kwargs, lambda endpoint: True)
    full_calls = Counter(calls)
    calls.clear()

    built: Counter[str] = Counter()
    for spec in live._worker_plan("sockets", 0.0, FaultPlan()):
        built.update(endpoints(build(placement, live.deploy_kwargs, spec.hosted.__contains__)))

    assert set(built) == set(endpoints(full))
    assert all(count == 1 for count in built.values()), built
    assert Counter(calls) == full_calls
    if name == "shard4":
        # The comparison sees the filter each split subscription carries.
        assert any(
            method == "register_subscriber" and ("subscription_filter", ("filter", "shard1.slice")) in kwargs
            for method, _owner, _args, kwargs in full_calls
        )
