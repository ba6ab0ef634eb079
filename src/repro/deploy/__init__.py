"""The deployment control plane: compile -> place -> deploy -> reconfigure.

This package layers deployment into three explicit steps:

* :func:`compile` -- turn a :class:`~repro.topology.Topology` into a
  :class:`Placement`: a pure, inspectable, diffable plan of sources, replica
  groups, fragment shapes, and (optionally content-filtered) subscriptions;
* :meth:`Placement.deploy` -- materialize the plan onto a fresh simulator,
  returning a live :class:`Deployment` handle that owns the cluster.  The
  one deploy walk, :func:`build_fragment_stack`, builds the fragments for
  the simulator and for every live worker alike;
* :meth:`Deployment.apply` -- reconfigure the *running* deployment from a
  :class:`~repro.sharding.RebalancePlan`: bucket handoff between shard
  fragments with filter-epoch cuts and SJoin state shipping, closing the
  loop from observed skew to a re-deployed assignment.

See DESIGN.md, "Deployment control plane".
"""

from .autoscaler import AutoscalePolicy, Autoscaler
from .deployment import Deployment, deploy_placement
from .filters import SubscriptionFilter
from .fragments import FragmentStack, build_fragment_stack, merge_diagram, relay_diagram
from .placement import (
    FRAGMENT_ENTRY,
    FRAGMENT_FANIN,
    FRAGMENT_RELAY,
    ClientPlan,
    NodePlan,
    Placement,
    SourcePlan,
    SubscriptionPlan,
    compile,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ClientPlan",
    "Deployment",
    "FRAGMENT_ENTRY",
    "FRAGMENT_FANIN",
    "FRAGMENT_RELAY",
    "FragmentStack",
    "NodePlan",
    "Placement",
    "SourcePlan",
    "SubscriptionFilter",
    "SubscriptionPlan",
    "build_fragment_stack",
    "compile",
    "deploy_placement",
    "merge_diagram",
    "relay_diagram",
]
