"""Local execution engine for a query-diagram fragment.

The engine pushes tuples through the fragment in a run-to-completion manner:
every batch injected on an external input stream is fully propagated through
the operator graph before control returns.  This mirrors the role of the
"Query Processor" box in Figure 4 of the paper while staying deterministic,
which is what DPC requires of each node.

The engine also implements the fragment-level checkpoint/restore used by
checkpoint/redo reconciliation (Section 4.4.1): :meth:`LocalEngine.checkpoint`
suspends nothing (the engine is single-threaded by construction) and copies
the state of every operator; :meth:`LocalEngine.restore` reinitializes every
operator from the snapshot -- except ``SOutput`` operators, whose duplicate
suppression and output-stream identity must survive the rollback.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from ..errors import CheckpointError, DiagramError
from .checkpoint import DiagramCheckpoint
from .operators.base import Operator
from .operators.soutput import SOutput
from .query_diagram import QueryDiagram
from .tuples import StreamTuple


class LocalEngine:
    """Executes one query-diagram fragment on a single node."""

    def __init__(self, diagram: QueryDiagram) -> None:
        diagram.validate()
        self.diagram = diagram
        #: Number of data tuples processed since construction (drives the redo
        #: cost model used by the simulator).
        self.tuples_processed = 0
        self._order = {name: i for i, name in enumerate(diagram.topological_order())}
        # Routing tables precomputed once: the diagram is immutable after
        # validation, and resolving operators / connections per work item
        # would otherwise dominate the drain loop.
        self._operators = dict(diagram.operators)
        self._output_of = {o.operator: o.stream for o in diagram.outputs}
        self._downstream = {
            name: [(c.target, c.port) for c in diagram.downstream_of(name)]
            for name in diagram.operators
        }

    # ------------------------------------------------------------------ execution
    def push(self, input_stream: str, tuples: Iterable[StreamTuple]) -> dict[str, list[StreamTuple]]:
        """Push ``tuples`` arriving on ``input_stream`` through the fragment.

        Returns a mapping of external output stream name to the tuples
        produced on it by this batch.
        """
        bindings = [b for b in self.diagram.inputs if b.stream == input_stream]
        if not bindings:
            raise DiagramError(
                f"fragment {self.diagram.name!r} has no input stream {input_stream!r}"
            )
        tuples = list(tuples)
        outputs: dict[str, list[StreamTuple]] = {o.stream: [] for o in self.diagram.outputs}
        work: deque[tuple[str, int, list[StreamTuple]]] = deque()
        for binding in bindings:
            if tuples:
                work.append((binding.operator, binding.port, tuples))
        self._drain(work, outputs)
        return outputs

    def push_operator(self, operator_name: str, port: int, tuples: Iterable[StreamTuple]) -> dict[str, list[StreamTuple]]:
        """Push a batch directly into an operator (used by the node's input SUnions)."""
        outputs: dict[str, list[StreamTuple]] = {o.stream: [] for o in self.diagram.outputs}
        work: deque[tuple[str, int, list[StreamTuple]]] = deque()
        tuples = list(tuples)
        if tuples:
            work.append((operator_name, port, tuples))
        self._drain(work, outputs)
        return outputs

    def push_operator_outputs(
        self, operator_name: str, produced: Iterable[StreamTuple]
    ) -> dict[str, list[StreamTuple]]:
        """Route tuples already produced by ``operator_name`` to its consumers.

        Used when the processing node forces an SUnion to emit buffered
        buckets tentatively: the forced tuples did not flow through
        :meth:`push`, so this method injects them into the downstream
        connections (and output bindings) of the producing operator.
        """
        produced = list(produced)
        outputs: dict[str, list[StreamTuple]] = {o.stream: [] for o in self.diagram.outputs}
        stream = self._output_of.get(operator_name)
        if stream is not None:
            outputs[stream].extend(produced)
        work: deque[tuple[str, int, list[StreamTuple]]] = deque()
        if produced:
            for target, port in self._downstream[operator_name]:
                work.append((target, port, produced))
        self._drain(work, outputs)
        return outputs

    def _drain(
        self,
        work: deque,
        outputs: dict[str, list[StreamTuple]],
    ) -> None:
        # Batch-at-a-time execution: each work item carries a vector of tuples
        # that the operator consumes run-to-completion before its outputs are
        # forwarded, also as one batch, to every downstream connection.
        operators = self._operators
        output_of = self._output_of
        downstream = self._downstream
        popleft = work.popleft
        append = work.append
        while work:
            operator_name, port, items = popleft()
            produced = operators[operator_name].process_batch(port, items)
            self.tuples_processed += sum(1 for item in items if item.is_data)
            if not produced:
                continue
            stream = output_of.get(operator_name)
            if stream is not None:
                outputs[stream].extend(produced)
            for target, target_port in downstream[operator_name]:
                append((target, target_port, produced))

    # ------------------------------------------------------------------ checkpoint / restore
    def checkpoint(self, created_at: float = 0.0) -> DiagramCheckpoint:
        """Snapshot the state of every operator in the fragment.

        Each operator's :meth:`~Operator.checkpoint` copies its state once and
        installs the result as its per-operator undo point; the diagram
        checkpoint holds those same containers.
        """
        return DiagramCheckpoint(
            created_at=created_at,
            operators={name: op.checkpoint() for name, op in self.diagram.operators.items()},
        )

    def restore(self, snapshot: DiagramCheckpoint) -> None:
        """Reinitialize every operator (except SOutputs) from ``snapshot``."""
        if not snapshot.matches(set(self.diagram.operators)):
            raise CheckpointError(
                f"checkpoint {snapshot.checkpoint_id} does not match fragment "
                f"{self.diagram.name!r}"
            )
        for name, operator in self.diagram.operators.items():
            if isinstance(operator, SOutput) or getattr(operator, "survives_restore", False):
                continue
            operator.restore(snapshot.operators[name])

    # ------------------------------------------------------------------ helpers
    def soutputs(self) -> list[SOutput]:
        """All SOutput operators in the fragment, in topological order."""
        ordered = sorted(
            (name for name, op in self.diagram.operators.items() if isinstance(op, SOutput)),
            key=lambda name: self._order[name],
        )
        return [self.diagram.operators[name] for name in ordered]  # type: ignore[list-item]

    def soutput_for(self, output_stream: str) -> SOutput:
        """The SOutput producing ``output_stream`` (raises if it is not an SOutput)."""
        for binding in self.diagram.outputs:
            if binding.stream == output_stream:
                operator = self.diagram.operator(binding.operator)
                if not isinstance(operator, SOutput):
                    raise DiagramError(
                        f"output stream {output_stream!r} is not produced by an SOutput"
                    )
                return operator
        raise DiagramError(f"unknown output stream {output_stream!r}")

    def note_checkpoint_on_outputs(self) -> None:
        """Tell every SOutput that a fragment checkpoint was just taken."""
        for soutput in self.soutputs():
            soutput.note_checkpoint()

    def entry_operators(self, input_stream: str) -> list[tuple[str, int]]:
        """(operator, port) pairs fed by external ``input_stream``."""
        return [
            (b.operator, b.port) for b in self.diagram.inputs if b.stream == input_stream
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalEngine diagram={self.diagram.name!r} processed={self.tuples_processed}>"
