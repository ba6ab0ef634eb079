"""The deploy walk: turn a :class:`~repro.deploy.placement.Placement` into running fragments.

:func:`build_fragment_stack` is the one piece of code that builds sources,
subscription filters, per-fragment query diagrams, node replicas, their
wiring, and the measuring clients from a placement.  Every backend calls it
with the clock and network it runs on and a ``hosts(endpoint)`` predicate
naming the endpoints this process runs:

* the simulator (:func:`repro.deploy.deployment.deploy_placement`) hosts
  every endpoint in one process;
* each live worker (:mod:`repro.live.worker`) hosts one node replica, or
  every source and client.

The ``hosts`` contract: each endpoint is built by exactly one process, and
each registration of an edge lands on the process hosting that side of it --
a source's ``subscribe`` with the source, the consumer's
``register_input_stream`` with the consumer, the head producer replica's
``register_subscriber`` and every producer's ``add_state_watcher`` with the
producer.  The union of the stacks of a set of processes that together host
every endpoint is therefore the single-process deployment, edge for edge.
Subscription filters are the one exception: every process builds the full
set, because a replica can receive a SUBSCRIBE carrying any consumer's filter
during failover.

Scale-out (:meth:`repro.deploy.Deployment.scale_out`) attaches new fragments
to a running deployment through the same per-replica builder
(:func:`build_replica`) and edge wiring (:func:`wire_edge`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..config import DPCConfig, SimulationConfig
from ..core.delay_planner import DelayPlanner
from ..core.node import ProcessingNode
from ..errors import ConfigurationError
from ..sim.client import ClientApplication
from ..sim.sources import DataSource
from ..spe.operators import Filter, SJoin, SOutput, SUnion
from ..spe.query_diagram import QueryDiagram
from ..statexfer import PeerRegistry
from ..topology import SelectPredicate, Topology
from .filters import SubscriptionFilter
from .placement import FRAGMENT_ENTRY, FRAGMENT_RELAY, NodePlan, Placement


@dataclass
class FragmentStack:
    """The endpoints one process hosts, built and wired."""

    sources: dict[str, DataSource] = field(default_factory=dict)  # stream -> source
    nodes: dict[str, ProcessingNode] = field(default_factory=dict)  # endpoint -> node
    clients: dict[str, ClientApplication] = field(default_factory=dict)
    #: Consumer node name -> the shared filter of its filtered subscription.
    filters: dict[str, SubscriptionFilter] = field(default_factory=dict)
    #: Logical node name -> the delay budget D its replicas were built with.
    delay_budgets: dict[str, float] = field(default_factory=dict)

    def register_peers(self, registry: PeerRegistry) -> PeerRegistry:
        """Register the hosted sources and replicas for checkpoint-shipped recovery."""
        for source in self.sources.values():
            registry.register_source(source)
        for node in self.nodes.values():
            registry.register_node(node)
            node.statexfer_registry = registry
        return registry


def build_fragment_stack(
    placement: Placement,
    *,
    clock,
    network,
    hosts: Callable[[str], bool],
    config: DPCConfig,
    sim_config: SimulationConfig,
    aggregate_rate: float,
    payload_factory,
    join_state_size: int | None,
    per_node_delay: float | None,
    diagram_factory,
    seed: int | None,
    rate_profile,
    source_stop_time: float | None,
) -> FragmentStack:
    """Build and wire the endpoints of ``placement`` that ``hosts`` selects.

    One logging source per source stream (the aggregate rate split evenly),
    one replica per node-plan replica name running the fragment shape the
    plan chose, every downstream replica reading from the head replica of
    each upstream group, push-based state advertisement whenever the
    keepalive cadence allows it, and one measuring client per sink.

    ``seed`` seeds every consistency manager's tie-breaking RNG and shifts
    every source's start by one seed-derived fraction of a batch interval, so
    equal seeds give identical runs; ``seed=None`` keeps unjittered timing.
    ``per_node_delay`` overrides every node's delay budget D; otherwise the
    Section 6.3 delay planner assigns them over the deployment graph.
    """
    topology = placement.topology
    config.validate()
    sim_config.validate()
    stack = FragmentStack(delay_budgets=_node_delay_budgets(topology, config, per_node_delay))
    push_state = pushes_state(config, sim_config)
    # One offset for every source: the whole workload shifts in time (so runs
    # with different seeds genuinely differ) while the sources stay mutually
    # aligned, which the end-of-run consistency accounting relies on.
    start_offset = (
        random.Random(seed).uniform(0.0, sim_config.batch_interval * 0.5)
        if seed is not None
        else 0.0
    )

    # --- sources ---------------------------------------------------------------
    for plan in placement.sources:
        if not hosts(plan.name):
            continue
        stack.sources[plan.stream] = DataSource(
            name=plan.name,
            stream=plan.stream,
            simulator=clock,
            network=network,
            # Divided, not multiplied by the (1/n) share: `a/n` and `a*(1/n)`
            # differ by an ulp for some stream counts, which shifts every
            # seeded emission time.
            rate=aggregate_rate / len(placement.sources),
            boundary_interval=config.boundary_interval,
            batch_interval=sim_config.batch_interval,
            payload=payload_factory(plan.payload_index, len(placement.sources)),
            start_time=start_offset,
            stop_time=source_stop_time,
            # The same profile object for every source: profiles are pure
            # functions of the emission stime, so shared use keeps the
            # interleaved sources aligned (tie groups stay intact).
            rate_profile=rate_profile,
        )

    # --- subscription filters (the full set on every host) ---------------------
    for edge in placement.filtered_subscriptions():
        stack.filters[edge.consumer] = SubscriptionFilter(
            topology.node(edge.consumer).select, name=edge.filter_name
        )

    # --- processing nodes ------------------------------------------------------
    for plan in placement.nodes:
        spec = topology.node(plan.name)
        # A filtered relay's slice arrives pre-cut (the predicate ran at the
        # producer), so its fragment carries no select of its own.
        filtered = plan.fragment == FRAGMENT_RELAY and plan.name in stack.filters
        for name in plan.replica_names:
            if hosts(name):
                stack.nodes[name] = build_replica(
                    plan,
                    name,
                    select=None if filtered else spec.select,
                    clock=clock,
                    network=network,
                    config=config,
                    sim_config=sim_config,
                    delay=stack.delay_budgets[plan.name],
                    join_state_size=join_state_size,
                    diagram_factory=diagram_factory,
                    seed=seed,
                )

    # --- wiring: sources -> consuming node replicas ----------------------------
    replicas = {plan.name: plan.replica_names for plan in placement.nodes}
    source_names = {plan.stream: plan.name for plan in placement.sources}
    for stream, source in stack.sources.items():
        for spec in topology.consumers_of(stream):
            for name in replicas[spec.name]:
                source.subscribe(name)
    for spec in topology:
        for name in replicas[spec.name]:
            node = stack.nodes.get(name)
            if node is None:
                continue
            for stream in spec.inputs:
                if stream in source_names:
                    producer = source_names[stream]
                    node.register_input_stream(
                        stream, producers=[producer], source_producers=[producer]
                    )

    # --- wiring: node -> node edges --------------------------------------------
    for spec in topology:
        for upstream in topology.upstream_nodes(spec):
            wire_edge(
                stack.nodes,
                upstream.output_stream,
                replicas[upstream.name],
                replicas[spec.name],
                push_state=push_state,
                subscription_filter=stack.filters.get(spec.name),
            )

    # --- clients: one per sink -------------------------------------------------
    for plan in placement.clients:
        sinks = replicas[plan.sink]
        if hosts(plan.name):
            client = ClientApplication(
                name=plan.name,
                stream=plan.stream,
                simulator=clock,
                network=network,
                config=config,
                rng_seed=seed,
            )
            client.register_upstream(
                producers=sinks, push_producers=sinks if push_state else ()
            )
            stack.clients[plan.name] = client
        _attach_to_producers(stack.nodes, plan.stream, sinks, plan.name, push_state, None)
    return stack


def build_replica(
    plan: NodePlan,
    name: str,
    *,
    select: SelectPredicate | None,
    clock,
    network,
    config: DPCConfig,
    sim_config: SimulationConfig,
    delay: float,
    join_state_size: int | None,
    seed: int | None,
    diagram_factory=None,
) -> ProcessingNode:
    """One replica ``name`` of ``plan``, running the fragment shape the plan chose."""
    join = join_state_size if plan.stateful else None
    if plan.fragment == FRAGMENT_ENTRY and diagram_factory is not None:
        diagram = diagram_factory(name, plan.inputs, plan.output_stream)
    elif plan.fragment == FRAGMENT_RELAY:
        diagram = relay_diagram(
            name,
            plan.inputs[0],
            plan.output_stream,
            bucket_size=config.bucket_size,
            select=select,
            join_state_size=join,
        )
    else:  # entry or fan-in
        diagram = merge_diagram(
            name,
            plan.inputs,
            plan.output_stream,
            bucket_size=config.bucket_size,
            join_state_size=join,
            select=select,
        )
    return ProcessingNode(
        name=name,
        diagram=diagram,
        simulator=clock,
        network=network,
        config=config,
        sim_config=sim_config,
        assigned_delay=delay,
        replica_partners=[other for other in plan.replica_names if other != name],
        rng_seed=seed,
    )


def wire_edge(
    nodes: Mapping[str, ProcessingNode],
    stream: str,
    producers: Sequence[str],
    consumers: Sequence[str],
    *,
    push_state: bool,
    subscription_filter: SubscriptionFilter | None = None,
) -> None:
    """Wire every consumer replica to the producer replica group of ``stream``.

    Each registration happens only where ``nodes`` holds the replica it
    lands on.  Every consumer initially reads from the head replica
    ``producers[0]``; DPC switches it if that replica fails.
    """
    for consumer in consumers:
        node = nodes.get(consumer)
        if node is not None:
            node.register_input_stream(
                stream,
                producers=producers,
                push_producers=producers if push_state else (),
                subscription_filter=subscription_filter,
            )
        _attach_to_producers(nodes, stream, producers, consumer, push_state, subscription_filter)


def _attach_to_producers(
    nodes: Mapping[str, ProcessingNode],
    stream: str,
    producers: Sequence[str],
    consumer: str,
    push_state: bool,
    subscription_filter: SubscriptionFilter | None,
) -> None:
    """The producer side of an edge: subscribe at the head, watch every replica."""
    head = nodes.get(producers[0])
    if head is not None:
        head.register_subscriber(stream, consumer, subscription_filter=subscription_filter)
    if push_state:
        for name in producers:
            producer = nodes.get(name)
            if producer is not None:
                producer.add_state_watcher(consumer)


def pushes_state(config: DPCConfig, sim_config: SimulationConfig) -> bool:
    """Whether nodes push their DPC state to watchers instead of being probed.

    Pushing every keepalive period replaces probe round trips whenever the
    push cadence (one batch interval) can keep up with the keepalive.
    """
    return config.keepalive_period + 1e-12 >= sim_config.batch_interval


def _node_delay_budgets(
    topology: Topology, config: DPCConfig, per_node_delay: float | None
) -> dict[str, float]:
    """Per-node delay budgets D for every logical node of ``topology``.

    An explicit ``per_node_delay`` overrides every node (the chain
    experiments assign D per node directly).  Otherwise the budgets come
    from a :class:`~repro.core.delay_planner.DelayPlanner` over the
    deployment graph, so the UNIFORM strategy splits the end-to-end bound X
    along the *longest* entry-to-sink path -- short branches under-use the
    budget instead of over-assigning it when paths reconverge.
    """
    if per_node_delay is not None:
        return {name: per_node_delay for name in topology.node_names}
    try:
        planner = DelayPlanner.for_topology(
            topology,
            total_budget=config.max_incremental_latency,
            queuing_allowance=config.queuing_allowance,
        )
        return dict(planner.plan(config.delay_assignment).per_node)
    except ConfigurationError:
        # Degenerate planner input (e.g. queuing allowance >= X): fall back
        # to the clamped scalar of DPCConfig.node_delay.
        fallback = config.node_delay(topology.depth())
        return {name: fallback for name in topology.node_names}


# --------------------------------------------------------------------------- diagram factories
def merge_diagram(
    name: str,
    input_streams: Sequence[str],
    output_stream: str,
    bucket_size: float,
    join_state_size: int | None = None,
    select: SelectPredicate | None = None,
) -> QueryDiagram:
    """The first-node fragment: SUnion over the sources (+ optional SJoin) + SOutput.

    Matches the experimental setup of Section 5.2 / Figure 12: "an SUnion that
    merges these streams into one, an SJoin with a 100-tuple state size, and an
    SOutput".  ``select`` optionally inserts a deterministic Filter before the
    SOutput (the branch-partitioning fragments of DAG deployments).
    """
    diagram = QueryDiagram(name=name)
    merge = SUnion(name=f"{name}.sunion", arity=len(input_streams), bucket_size=bucket_size)
    diagram.add_operator(merge)
    last = merge
    if join_state_size is not None:
        sjoin = SJoin(name=f"{name}.sjoin", state_size=join_state_size)
        diagram.add_operator(sjoin)
        diagram.connect(last, sjoin)
        last = sjoin
    if select is not None:
        selector = Filter(name=f"{name}.filter", predicate=select)
        diagram.add_operator(selector)
        diagram.connect(last, selector)
        last = selector
    soutput = SOutput(name=f"{name}.soutput")
    diagram.add_operator(soutput)
    diagram.connect(last, soutput)
    for port, stream in enumerate(input_streams):
        diagram.bind_input(stream, merge, port)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram


def relay_diagram(
    name: str,
    input_stream: str,
    output_stream: str,
    bucket_size: float,
    select: SelectPredicate | None = None,
    join_state_size: int | None = None,
) -> QueryDiagram:
    """A downstream-node fragment: a single-input SUnion followed by an SOutput.

    ``select`` optionally inserts a deterministic Filter between the two --
    the fragment run by the partitioned branches of a diamond deployment.
    ``join_state_size`` optionally gives the relay the deployment's stateful
    SJoin (nodes marked ``stateful`` in the topology).
    """
    diagram = QueryDiagram(name=name)
    sunion = SUnion(name=f"{name}.sunion", arity=1, bucket_size=bucket_size)
    diagram.add_operator(sunion)
    last = sunion
    if join_state_size is not None:
        sjoin = SJoin(name=f"{name}.sjoin", state_size=join_state_size)
        diagram.add_operator(sjoin)
        diagram.connect(last, sjoin)
        last = sjoin
    if select is not None:
        selector = Filter(name=f"{name}.filter", predicate=select)
        diagram.add_operator(selector)
        diagram.connect(last, selector)
        last = selector
    soutput = SOutput(name=f"{name}.soutput")
    diagram.add_operator(soutput)
    diagram.connect(last, soutput)
    diagram.bind_input(input_stream, sunion)
    diagram.bind_output(output_stream, soutput)
    diagram.validate()
    return diagram
