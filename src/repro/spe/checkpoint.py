"""Checkpoint containers.

DPC reconciles node state with *checkpoint/redo* (Section 4.4.1): when a node
enters UP_FAILURE it snapshots the state of its query-diagram fragment before
processing any tentative tuple; during STABILIZATION it restores that snapshot
and reprocesses the stable input buffered since.  The containers here are thin
but give checkpoints an identity (id + creation time) and verify on restore
that they are applied to the diagram they came from.

Operator state is opaque plain data supplied by ``_checkpoint_state``.  Since
the pane-based Aggregate rewrite, windowed aggregates contribute per-(pane,
group) accumulator snapshots -- O(groups x panes) scalars -- rather than the
raw value buffers they used to hold, which shrinks both crash-recovery
checkpoints and the state containers live rebalance ships between shards.

Copies are *structural* (:func:`structural_copy`): every ``dict``, ``list``
and ``set`` container of a captured state is rebuilt, recursively, while the
leaves -- ``StreamTuple`` objects, their payload mappings, and scalars -- are
shared with the live operator.  A ``tuple`` is rebuilt only when it holds a
container; a tuple of leaves is as immutable as a fresh one and is shared.
Sharing is safe only because tuples and payloads are immutable (see
DESIGN.md, "Hot-path invariants"): a checkpoint holds the very tuple objects
the operator buffered, so mutating one after capture would corrupt every
checkpoint that holds it.  Each capture copies once (operator state ->
checkpoint) and each restore copies once (checkpoint -> operator), so a
checkpoint restored any number of times never aliases a live container.
Operator state must be plain data built from exactly these types; any other
object is shared as a leaf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

_checkpoint_ids = itertools.count()

_CONTAINERS = frozenset({dict, list, tuple, set})


def structural_copy(value: Any) -> Any:
    """Copy ``value``'s containers recursively and share its leaves."""
    cls = type(value)
    if cls is dict:
        return {
            key: structural_copy(item) if type(item) in _CONTAINERS else item
            for key, item in value.items()
        }
    if cls is list:
        return [structural_copy(item) if type(item) in _CONTAINERS else item for item in value]
    if cls is tuple:
        for item in value:
            if type(item) in _CONTAINERS:
                return tuple(
                    [structural_copy(item) if type(item) in _CONTAINERS else item for item in value]
                )
        return value
    if cls is set:
        # Set members are hashable, hence immutable: a shallow copy suffices.
        return set(value)
    return value


@dataclass(frozen=True)
class OperatorCheckpoint:
    """Structurally copied state of a single operator."""

    operator_name: str
    state: Mapping[str, Any]

    @classmethod
    def capture(cls, operator_name: str, state: Mapping[str, Any]) -> "OperatorCheckpoint":
        return cls(operator_name=operator_name, state=structural_copy(dict(state)))

    def state_copy(self) -> dict:
        """A fresh structural copy, safe for the operator to mutate after restore."""
        return structural_copy(dict(self.state))


@dataclass(frozen=True)
class DiagramCheckpoint:
    """Snapshot of every operator in a diagram fragment.

    Holds the operators' own :class:`OperatorCheckpoint` objects: they are
    never mutated (restore copies out of them), so no further copy is needed.
    """

    created_at: float
    operators: Mapping[str, OperatorCheckpoint]
    checkpoint_id: int = field(default_factory=lambda: next(_checkpoint_ids))

    def matches(self, operator_names: set[str]) -> bool:
        """True when this checkpoint covers exactly ``operator_names``."""
        return set(self.operators) == set(operator_names)
