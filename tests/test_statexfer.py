"""Unit tests for the SJoin bucket handoff of ``repro.statexfer``."""

from types import SimpleNamespace

from repro.sharding import ShardSpec
from repro.spe.operators import SJoin
from repro.spe.query_diagram import QueryDiagram
from repro.spe.tuples import StreamTuple
from repro.statexfer import extract_sjoin_state, merge_sjoin_state

SPEC = ShardSpec(shards=2, key="seq", buckets=8)


def join_node(name: str, seqs, state_size: int = 100):
    """A stand-in node: the handoff only walks ``node.diagram``."""
    join = SJoin(name, state_size=state_size, window=1000.0)
    for seq in seqs:
        join.process(0, StreamTuple.insertion(seq, float(seq), {"seq": seq}))
    diagram = QueryDiagram(f"{name}-frag")
    diagram.add_operator(join)
    return SimpleNamespace(diagram=diagram), join


def test_extract_and_merge_leave_the_undo_point_alone_and_move_exact_tuples():
    source, source_join = join_node("src.sj", range(20))
    target, target_join = join_node("dst.sj", range(100, 105))
    source_undo = source_join.checkpoint()
    target_undo = target_join.checkpoint()
    before = list(source_join._state)
    buckets = {SPEC.bucket_of(SPEC.key_of(before[0].values))}
    cut_stime = 15.0

    extracted = extract_sjoin_state(source, SPEC, buckets, cut_stime)

    def owned(item):
        return item.stime < cut_stime and SPEC.bucket_of(SPEC.key_of(item.values)) in buckets

    expected_moved = [item for item in before if owned(item)]
    expected_kept = [item for item in before if not owned(item)]
    assert expected_moved and expected_kept
    assert extracted == {0: expected_moved}
    assert all(a is b for a, b in zip(extracted[0], expected_moved))
    assert source_join._state == expected_kept
    assert source_join._own_checkpoint is source_undo

    trimmed = merge_sjoin_state(target, extracted)
    assert trimmed == 0
    merged = sorted(
        [*expected_moved, *(StreamTuple.insertion(s, float(s), {"seq": s}) for s in range(100, 105))],
        key=lambda item: item.stime,
    )
    assert target_join._state == merged
    assert target_join._own_checkpoint is target_undo


def test_merge_trims_to_the_join_state_size():
    target, target_join = join_node("dst.sj", range(100, 104), state_size=5)
    moved = [StreamTuple.insertion(seq, float(seq), {"seq": seq}) for seq in range(3)]
    assert merge_sjoin_state(target, {0: moved}) == 2
    assert [item.values["seq"] for item in target_join._state] == [2, 100, 101, 102, 103]
