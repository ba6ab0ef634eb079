"""Unit tests for the checkpoint containers (structural copy, isolation, sharing)."""

from repro.spe.checkpoint import OperatorCheckpoint, structural_copy
from repro.spe.engine import LocalEngine
from repro.spe.operators import Aggregate, SJoin, SOutput, SUnion
from repro.spe.query_diagram import QueryDiagram
from repro.spe.tuples import StreamTuple
from repro.spe.windows import WindowSpec


def build_engine() -> LocalEngine:
    """SUnion -> SJoin -> sliding (pane-mode) Aggregate -> SOutput."""
    diagram = QueryDiagram("ckpt")
    su = SUnion("su", arity=2, bucket_size=1.0)
    sj = SJoin("sj", state_size=50, window=100.0)
    agg = Aggregate(
        "agg",
        WindowSpec.sliding(4.0, 2.0),
        aggregates=[("n", "count", None), ("top", "max", "seq")],
        group_by=("key",),
    )
    so = SOutput("so")
    for op in (su, sj, agg, so):
        diagram.add_operator(op)
    diagram.connect(su, sj)
    diagram.connect(sj, agg)
    diagram.connect(agg, so)
    diagram.bind_input("left", su, 0)
    diagram.bind_input("right", su, 1)
    diagram.bind_output("out", so)
    return LocalEngine(diagram)


def push_range(engine: LocalEngine, start: int, stop: int, boundary: float) -> None:
    """Data tuples ``seq`` in [start, stop) on both ports, then a boundary on both.

    Tuples past ``boundary`` stay buffered in SUnion buckets, so every
    operator -- SUnion included -- holds state afterwards.
    """
    for port, stream in enumerate(("left", "right")):
        batch = [
            StreamTuple.insertion(seq, seq * 0.25, {"seq": seq, "key": (seq + port) % 3})
            for seq in range(start, stop)
        ]
        batch.append(StreamTuple.boundary(stop, boundary))
        engine.push(stream, batch)


def operator_states(engine: LocalEngine, *, skip_soutputs: bool = False) -> dict:
    return {
        name: op.checkpoint_state()
        for name, op in engine.diagram.operators.items()
        if not (skip_soutputs and isinstance(op, SOutput))
    }


def test_structural_copy_rebuilds_containers_and_shares_leaves():
    item = StreamTuple.insertion(1, 0.5, {"seq": 1})
    inner = [item]
    state = {
        "list": inner,
        "pairs": [(0, item)],
        "nested": ([inner], "tag"),
        "ports": {1, 2},
        "scalar": 3.5,
    }
    copied = structural_copy(state)
    assert copied == state
    assert copied is not state
    assert copied["list"] is not inner and copied["list"][0] is item
    # A tuple of leaves is immutable: shared.  One holding a list is rebuilt.
    assert copied["pairs"][0] is state["pairs"][0]
    assert copied["nested"] is not state["nested"]
    assert copied["nested"][0][0] is not inner and copied["nested"][0][0][0] is item
    assert copied["ports"] is not state["ports"]
    inner.append(StreamTuple.insertion(2, 0.75, {"seq": 2}))
    state["ports"].add(3)
    assert copied["list"] == [item] and copied["nested"][0][0] == [item]
    assert copied["ports"] == {1, 2}


def test_checkpoint_is_isolated_from_later_mutation():
    engine = build_engine()
    push_range(engine, 0, 40, boundary=8.0)
    checkpoint = engine.checkpoint(created_at=1.0)
    captured = operator_states(engine, skip_soutputs=True)
    assert engine.diagram.operator("su").checkpoint_state()["custom"]["buckets"]
    assert engine.diagram.operator("sj").checkpoint_state()["custom"]["state"]
    assert engine.diagram.operator("agg").checkpoint_state()["custom"]["cells"]

    push_range(engine, 40, 80, boundary=18.0)
    assert operator_states(engine, skip_soutputs=True) != captured
    engine.restore(checkpoint)
    assert operator_states(engine, skip_soutputs=True) == captured

    # Different input after the first restore must not leak into the
    # checkpoint either: restoring it again yields the same states.
    push_range(engine, 100, 130, boundary=30.0)
    assert operator_states(engine, skip_soutputs=True) != captured
    engine.restore(checkpoint)
    assert operator_states(engine, skip_soutputs=True) == captured


def test_capture_shares_tuples_with_the_live_operator():
    engine = build_engine()
    push_range(engine, 0, 40, boundary=8.0)
    checkpoint = engine.checkpoint()
    sj = engine.diagram.operator("sj")
    captured = checkpoint.operators["sj"].state["custom"]["state"]
    assert captured and captured is not sj._state
    assert all(kept is live for kept, live in zip(captured, sj._state))
    assert captured[0].values is sj._state[0].values
    su = engine.diagram.operator("su")
    for index, entries in checkpoint.operators["su"].state["custom"]["buckets"].items():
        live = su._buckets[int(index)]
        assert entries is not live
        assert all(kept[1] is item for kept, (_, item) in zip(entries, live))
    # A restored operator holds the shared tuples in fresh containers.
    engine.restore(checkpoint)
    assert sj._state is not captured
    assert all(kept is live for kept, live in zip(captured, sj._state))


def test_engine_checkpoint_restore_round_trips_every_operator_state():
    engine = build_engine()
    push_range(engine, 0, 40, boundary=8.0)
    before = operator_states(engine)
    checkpoint = engine.checkpoint(created_at=2.0)
    assert checkpoint.created_at == 2.0
    for name, op in engine.diagram.operators.items():
        # The diagram checkpoint holds each operator's own undo point.
        assert checkpoint.operators[name] is op._own_checkpoint
        assert checkpoint.operators[name].state == before[name]

    push_range(engine, 40, 80, boundary=18.0)
    engine.restore(checkpoint)
    for name, op in engine.diagram.operators.items():
        if isinstance(op, SOutput):
            # The engine never rolls SOutput back; restore it directly.
            op.restore(checkpoint.operators[name])
    assert operator_states(engine) == before


def test_operator_checkpoint_state_copy_is_fresh_each_time():
    checkpoint = OperatorCheckpoint.capture("x", {"custom": {"state": [1, 2]}})
    first, second = checkpoint.state_copy(), checkpoint.state_copy()
    first["custom"]["state"].append(3)
    assert second["custom"]["state"] == [1, 2]
    assert checkpoint.state["custom"]["state"] == [1, 2]
