"""Tests for the DFG data structure."""

import sys

import pytest

from repro.dfg.graph import DFG, DFGEdge, DFGNode, Opcode, paper_running_example
from repro.exceptions import DFGError


class TestNodes:
    def test_add_node_defaults(self):
        dfg = DFG(name="t")
        node = dfg.add_node()
        assert node.node_id == 0
        assert node.opcode is Opcode.ADD
        assert dfg.num_nodes == 1

    def test_add_node_auto_ids_are_sequential(self):
        dfg = DFG()
        ids = [dfg.add_node().node_id for _ in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_add_node_explicit_id_and_opcode_string(self):
        dfg = DFG()
        node = dfg.add_node(7, "mul", name="m")
        assert node.node_id == 7
        assert node.opcode is Opcode.MUL
        assert dfg.node(7).name == "m"

    def test_duplicate_node_id_rejected(self):
        dfg = DFG()
        dfg.add_node(1)
        with pytest.raises(DFGError):
            dfg.add_node(1)

    def test_negative_node_id_rejected(self):
        with pytest.raises(DFGError):
            DFGNode(-1)

    def test_zero_latency_rejected(self):
        with pytest.raises(DFGError):
            DFGNode(0, latency=0)

    def test_missing_node_lookup(self):
        with pytest.raises(DFGError):
            DFG().node(3)

    def test_node_label(self):
        assert DFGNode(4, Opcode.MUL).label == "4:mul"
        assert DFGNode(4, Opcode.MUL, name="x").label == "4:x"

    def test_nodes_sorted_by_id(self):
        dfg = DFG()
        dfg.add_node(5)
        dfg.add_node(2)
        assert [n.node_id for n in dfg.nodes] == [2, 5]
        assert len(dfg) == 2
        assert [n.node_id for n in dfg] == [2, 5]


class TestEdges:
    def _two_node_dfg(self):
        dfg = DFG()
        dfg.add_node(0)
        dfg.add_node(1)
        return dfg

    def test_add_edge(self):
        dfg = self._two_node_dfg()
        edge = dfg.add_edge(0, 1)
        assert edge == DFGEdge(0, 1, 0, 0)
        assert not edge.is_back_edge
        assert dfg.num_edges == 1

    def test_back_edge_flag(self):
        dfg = self._two_node_dfg()
        edge = dfg.add_edge(1, 0, distance=1)
        assert edge.is_back_edge

    def test_edge_with_missing_endpoint_rejected(self):
        dfg = self._two_node_dfg()
        with pytest.raises(DFGError):
            dfg.add_edge(0, 9)
        with pytest.raises(DFGError):
            dfg.add_edge(9, 0)

    def test_negative_distance_rejected(self):
        with pytest.raises(DFGError):
            DFGEdge(0, 1, distance=-1)

    def test_predecessors_and_successors(self):
        dfg = DFG()
        for i in range(3):
            dfg.add_node(i)
        dfg.add_edge(0, 2)
        dfg.add_edge(1, 2)
        dfg.add_edge(2, 0, distance=1)
        assert {e.src for e in dfg.predecessors(2)} == {0, 1}
        assert {e.dst for e in dfg.successors(2)} == {0}
        assert len(dfg.forward_edges()) == 2
        assert len(dfg.back_edges()) == 1


class TestValidation:
    def test_forward_cycle_detected(self):
        dfg = DFG()
        for i in range(3):
            dfg.add_node(i)
        dfg.add_edge(0, 1)
        dfg.add_edge(1, 2)
        dfg.add_edge(2, 0)  # forward cycle, should have been a back edge
        with pytest.raises(DFGError):
            dfg.validate()

    def test_cycle_broken_by_back_edge_is_valid(self):
        dfg = DFG()
        for i in range(3):
            dfg.add_node(i)
        dfg.add_edge(0, 1)
        dfg.add_edge(1, 2)
        dfg.add_edge(2, 0, distance=1)
        dfg.validate()

    def test_copy_is_deep_for_structure(self):
        dfg = paper_running_example()
        clone = dfg.copy()
        clone.add_node(99)
        assert dfg.num_nodes == 11
        assert clone.num_nodes == 12
        assert clone.num_edges == dfg.num_edges

    def test_to_networkx(self):
        dfg = paper_running_example()
        graph = dfg.to_networkx()
        assert graph.number_of_nodes() == dfg.num_nodes
        assert graph.number_of_edges() == dfg.num_edges

    def test_to_networkx_without_networkx_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"satmapit-repro\[networkx\]"):
            paper_running_example().to_networkx()


class TestFromEdgeList:
    def test_basic_construction(self):
        dfg = DFG.from_edge_list("t", 4, [(0, 1), (1, 2), (2, 3), (3, 0, 1)])
        assert dfg.num_nodes == 4
        assert dfg.num_edges == 4
        assert len(dfg.back_edges()) == 1

    def test_opcodes_applied(self):
        dfg = DFG.from_edge_list("t", 2, [(0, 1)], opcodes={0: "load", 1: Opcode.MUL})
        assert dfg.node(0).opcode is Opcode.LOAD
        assert dfg.node(1).opcode is Opcode.MUL

    def test_invalid_edge_list_raises(self):
        with pytest.raises(DFGError):
            DFG.from_edge_list("t", 2, [(0, 1), (1, 0)])


class TestRunningExample:
    def test_matches_paper_size(self):
        dfg = paper_running_example()
        assert dfg.num_nodes == 11
        assert len(dfg.back_edges()) == 1
        dfg.validate()

    def test_node_ids_one_based_like_paper(self):
        dfg = paper_running_example()
        assert dfg.node_ids == list(range(1, 12))


class TestOpcodes:
    def test_memory_flag(self):
        assert Opcode.LOAD.is_memory
        assert Opcode.STORE.is_memory
        assert not Opcode.ADD.is_memory

    def test_commutativity_flag(self):
        assert Opcode.ADD.is_commutative
        assert not Opcode.SUB.is_commutative
        assert not Opcode.SHL.is_commutative

    def test_repr_mentions_counts(self):
        dfg = paper_running_example()
        assert "nodes=11" in repr(dfg)


def _scanned(dfg):
    """The linear edge scans ``predecessors``/``successors`` used to run."""
    return (
        {n: [e for e in dfg.edges if e.dst == n] for n in dfg.node_ids},
        {n: [e for e in dfg.edges if e.src == n] for n in dfg.node_ids},
    )


def _indexed(dfg):
    return (
        {n: dfg.predecessors(n) for n in dfg.node_ids},
        {n: dfg.successors(n) for n in dfg.node_ids},
    )


def _multi_edge_dfg():
    """Parallel edges (one per operand) and a self-loop back edge."""
    dfg = DFG(name="multi")
    for node_id in range(4):
        dfg.add_node(node_id)
    dfg.add_edge(0, 2, operand_index=0)
    dfg.add_edge(1, 3)
    dfg.add_edge(0, 2, operand_index=1)
    dfg.add_edge(2, 2, distance=1)
    dfg.add_edge(2, 3, operand_index=1)
    dfg.add_edge(3, 0, distance=2)
    return dfg


class TestAdjacencyIndex:
    """``predecessors``/``successors`` read a per-node index of ``_edges``."""

    def test_matches_linear_scan_after_add_edge(self):
        for dfg in (paper_running_example(), _multi_edge_dfg()):
            assert _indexed(dfg) == _scanned(dfg)

    def test_matches_linear_scan_on_every_kernel(self):
        from repro.kernels import all_kernel_names, get_kernel

        for name in all_kernel_names():
            dfg = get_kernel(name)
            assert _indexed(dfg) == _scanned(dfg), name

    def test_rebuilt_by_copy_from_dict_and_from_edge_list(self):
        def arcs(dfg):
            """Per-node (src, dst, distance) lists; from_edge_list drops operands."""
            return [
                [(e.src, e.dst, e.distance) for e in query(n)]
                for query in (dfg.predecessors, dfg.successors)
                for n in dfg.node_ids
            ]

        dfg = _multi_edge_dfg()
        rebuilt = [
            dfg.copy(),
            DFG.from_dict(dfg.to_dict()),
            DFG.from_edge_list(
                "multi", 4, [(e.src, e.dst, e.distance) for e in dfg.edges]
            ),
        ]
        for other in rebuilt:
            assert _indexed(other) == _scanned(other)
            assert arcs(other) == arcs(dfg)

    def test_index_follows_edges_added_after_a_copy(self):
        dfg = _multi_edge_dfg()
        clone = dfg.copy()
        clone.add_edge(1, 2, operand_index=2)
        assert len(clone.predecessors(2)) == len(dfg.predecessors(2)) + 1
        assert _indexed(clone) == _scanned(clone)
        assert _indexed(dfg) == _scanned(dfg)

    def test_parallel_edges_and_self_loop(self):
        dfg = _multi_edge_dfg()
        assert [e.operand_index for e in dfg.predecessors(2)] == [0, 1, 0]
        assert [e.dst for e in dfg.successors(2)] == [2, 3]
        assert [e.src for e in dfg.predecessors(2)] == [0, 0, 2]

    def test_unknown_node_has_no_edges(self):
        dfg = _multi_edge_dfg()
        assert dfg.predecessors(99) == []
        assert dfg.successors(99) == []

    def test_returned_lists_are_copies(self):
        dfg = _multi_edge_dfg()
        dfg.predecessors(2).clear()
        dfg.successors(0).append(DFGEdge(0, 1))
        assert _indexed(dfg) == _scanned(dfg)
        assert len(dfg.predecessors(2)) == 3

    def test_index_takes_no_part_in_equality_repr_or_to_dict(self):
        first = DFG(name="g")
        for node_id in (0, 1, 2):
            first.add_node(node_id)
        second = DFG(name="g")
        for node_id in (2, 0, 1):
            second.add_node(node_id)
        for dfg in (first, second):
            dfg.add_edge(0, 1)
            dfg.add_edge(1, 2)
            dfg.add_edge(2, 0, distance=1)
        assert first == second
        swapped = DFG(name="g")
        for node_id in (0, 1, 2):
            swapped.add_node(node_id)
        swapped.add_edge(1, 2)
        swapped.add_edge(0, 1)
        swapped.add_edge(2, 0, distance=1)
        # Equality still compares the edge list in order, as it always has.
        assert (swapped == first) == (swapped._edges == first._edges)
        assert "_incoming" not in repr(first) and "_outgoing" not in repr(first)
        assert set(first.to_dict()) == {"name", "nodes", "edges"}

    def test_constructor_edge_list_is_indexed(self):
        source = _multi_edge_dfg()
        dfg = DFG(name="direct", _nodes=dict(source._nodes), _edges=source.edges)
        assert _indexed(dfg) == _scanned(dfg)
        assert dfg == DFG(name="direct", _nodes=dict(source._nodes), _edges=source.edges)
