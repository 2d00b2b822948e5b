"""Tests for ASAP/ALAP/mobility analysis and MII bounds.

The running-example assertions check the exact tables of the paper's
Figure 4.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.analysis import (
    alap_schedule,
    forward_topological_order,
    asap_schedule,
    critical_path_length,
    minimum_initiation_interval,
    mobility,
    recurrence_mii,
    resource_mii,
)
from repro.dfg.graph import DFG, paper_running_example
from repro.exceptions import DFGError
from repro.kernels import all_kernel_names, get_kernel, scale_kernel_names
from repro.kernels.generators import random_dfg


class TestPaperFigure4:
    """ASAP / ALAP / mobility of the running example (paper Figure 4)."""

    def setup_method(self):
        self.dfg = paper_running_example()

    def test_asap_levels(self):
        asap = asap_schedule(self.dfg)
        levels = {}
        for node, time in asap.items():
            levels.setdefault(time, set()).add(node)
        assert levels[0] == {1, 2, 3, 4}
        assert levels[1] == {5, 7, 10}
        assert levels[2] == {6, 11}
        assert levels[3] == {8}
        assert levels[4] == {9}

    def test_alap_levels(self):
        alap = alap_schedule(self.dfg)
        levels = {}
        for node, time in alap.items():
            levels.setdefault(time, set()).add(node)
        assert levels[0] == {3}
        assert levels[1] == {4, 5}
        assert levels[2] == {1, 6, 7}
        assert levels[3] == {2, 8, 10}
        assert levels[4] == {9, 11}

    def test_mobility_rows_match_figure(self):
        windows = mobility(self.dfg)
        rows = {time: set() for time in range(5)}
        for node, window in windows.items():
            for time in window:
                rows[time].add(node)
        assert rows[0] == {1, 2, 3, 4}
        assert rows[1] == {1, 2, 4, 5, 7, 10}
        assert rows[2] == {1, 2, 6, 7, 10, 11}
        assert rows[3] == {2, 8, 10, 11}
        assert rows[4] == {9, 11}

    def test_critical_path_is_five_cycles(self):
        assert critical_path_length(self.dfg) == 5

    def test_mii_on_2x2_matches_paper_ii(self):
        # The paper's running example maps with II = 3 on the 2x2 CGRA and
        # 11 nodes / 4 PEs gives ResMII = 3.
        assert resource_mii(self.dfg, 4) == 3
        assert minimum_initiation_interval(self.dfg, 4) == 3


class TestSchedules:
    def test_asap_of_source_is_zero(self):
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2)])
        assert asap_schedule(dfg)[0] == 0
        assert asap_schedule(dfg)[2] == 2

    def test_alap_respects_requested_length(self):
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2)])
        alap = alap_schedule(dfg, length=5)
        assert alap[2] == 4
        assert alap[0] == 2

    def test_alap_too_short_raises(self):
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2)])
        with pytest.raises(DFGError):
            alap_schedule(dfg, length=2)

    def test_mobility_window_contains_asap_and_alap(self):
        dfg = paper_running_example()
        asap = asap_schedule(dfg)
        alap = alap_schedule(dfg)
        for node, window in mobility(dfg).items():
            assert window.start == asap[node]
            assert window.stop - 1 == alap[node]

    def test_latency_respected(self):
        dfg = DFG()
        dfg.add_node(0, latency=3)
        dfg.add_node(1)
        dfg.add_edge(0, 1)
        assert asap_schedule(dfg)[1] == 3
        assert critical_path_length(dfg) == 4

    def test_back_edges_ignored_by_asap(self):
        dfg = DFG.from_edge_list("t", 2, [(0, 1), (1, 0, 1)])
        assert asap_schedule(dfg) == {0: 0, 1: 1}

    def test_empty_dfg(self):
        assert critical_path_length(DFG()) == 0
        assert asap_schedule(DFG()) == {}


class TestMII:
    def test_resource_mii(self):
        dfg = paper_running_example()
        assert resource_mii(dfg, 4) == 3
        assert resource_mii(dfg, 9) == 2
        assert resource_mii(dfg, 16) == 1

    def test_resource_mii_requires_positive_pes(self):
        with pytest.raises(ValueError):
            resource_mii(paper_running_example(), 0)

    def test_resource_mii_empty_dfg(self):
        assert resource_mii(DFG(), 4) == 1

    def test_recurrence_mii_simple_cycle(self):
        # Cycle of 3 nodes with a single distance-1 back edge: RecMII = 3.
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2), (2, 0, 1)])
        assert recurrence_mii(dfg) == 3

    def test_recurrence_mii_larger_distance(self):
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2), (2, 0, 2)])
        assert recurrence_mii(dfg) == 2  # ceil(3 / 2)

    def test_recurrence_mii_no_cycles(self):
        dfg = DFG.from_edge_list("t", 3, [(0, 1), (1, 2)])
        assert recurrence_mii(dfg) == 1

    def test_zero_distance_cycle_rejected(self):
        dfg = DFG()
        dfg.add_node(0)
        dfg.add_node(1)
        dfg.add_edge(0, 1)
        dfg.add_edge(1, 0)
        with pytest.raises(DFGError):
            recurrence_mii(dfg)

    def test_minimum_ii_is_max_of_bounds(self):
        dfg = DFG.from_edge_list("t", 4, [(0, 1), (1, 2), (2, 3), (3, 0, 1)])
        # RecMII = 4, ResMII on 16 PEs = 1.
        assert minimum_initiation_interval(dfg, 16) == 4
        # ResMII on 1 PE = 4 as well.
        assert minimum_initiation_interval(dfg, 1) == 4


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_schedule_invariants_on_random_dfgs(num_nodes, seed):
    """ASAP <= ALAP, dependencies respected, CP equals max ASAP + latency."""
    dfg = random_dfg(num_nodes, seed=seed)
    asap = asap_schedule(dfg)
    alap = alap_schedule(dfg)
    for node in dfg.node_ids:
        assert asap[node] <= alap[node]
    for edge in dfg.forward_edges():
        assert asap[edge.dst] >= asap[edge.src] + dfg.node(edge.src).latency
        assert alap[edge.dst] >= alap[edge.src] + dfg.node(edge.src).latency
    assert critical_path_length(dfg) == max(
        asap[n] + dfg.node(n).latency for n in dfg.node_ids
    )


# ----------------------------------------------------------------------
# Differential checks against networkx (used in these tests only)
# ----------------------------------------------------------------------
SUITE = sorted(set(all_kernel_names()) | set(scale_kernel_names()))


def _enumerated_recurrence_mii(dfg: DFG) -> int:
    """RecMII by enumerating every elementary cycle (the textbook bound)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg.node_ids)
    for edge in dfg.edges:  # parallel edges: the tightest distance counts
        if graph.has_edge(edge.src, edge.dst):
            data = graph[edge.src][edge.dst]
            data["distance"] = min(data["distance"], edge.distance)
        else:
            graph.add_edge(edge.src, edge.dst, distance=edge.distance)
    best = 1
    for cycle in nx.simple_cycles(graph):
        latency = sum(dfg.node(node).latency for node in cycle)
        distance = sum(
            graph[node][cycle[(index + 1) % len(cycle)]]["distance"]
            for index, node in enumerate(cycle)
        )
        best = max(best, math.ceil(latency / distance))
    return best


def _networkx_forward_order(dfg: DFG) -> list[int]:
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg.node_ids)
    graph.add_edges_from((edge.src, edge.dst) for edge in dfg.forward_edges())
    return list(nx.topological_sort(graph))


@st.composite
def recurrent_dfgs(draw):
    """DFGs with latencies 1-3, forward edges low -> high id (parallel ones
    included) and back edges of distance 1-3, self-loops included."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    dfg = DFG(name="drawn")
    for node_id in range(num_nodes):
        dfg.add_node(node_id, latency=draw(st.integers(min_value=1, max_value=3)))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.integers(min_value=1, max_value=3),
    )
    for src, dst, distance in draw(st.lists(pairs, max_size=3 * num_nodes)):
        if src < dst:
            dfg.add_edge(src, dst)
        else:
            dfg.add_edge(src, dst, distance=distance)
    return dfg


class TestAgainstNetworkx:
    @pytest.mark.parametrize("kernel", SUITE)
    def test_recurrence_mii_matches_cycle_enumeration_on_suite(self, kernel):
        dfg = get_kernel(kernel)
        assert recurrence_mii(dfg) == _enumerated_recurrence_mii(dfg)

    @pytest.mark.parametrize("kernel", SUITE)
    def test_forward_order_matches_networkx_on_suite(self, kernel):
        dfg = get_kernel(kernel)
        assert forward_topological_order(dfg) == _networkx_forward_order(dfg)

    @settings(max_examples=200, deadline=None)
    @given(dfg=recurrent_dfgs())
    def test_recurrence_mii_matches_cycle_enumeration(self, dfg):
        assert recurrence_mii(dfg) == _enumerated_recurrence_mii(dfg)

    @settings(max_examples=100, deadline=None)
    @given(dfg=recurrent_dfgs())
    def test_forward_order_matches_networkx(self, dfg):
        # The order fixes ASAP/ALAP dict order, RAMP's heights and the
        # interpreter's evaluation order, so it must be networkx's exactly.
        assert forward_topological_order(dfg) == _networkx_forward_order(dfg)

    def test_forward_cycle_is_named(self):
        dfg = DFG(name="t")
        for node_id in range(4):
            dfg.add_node(node_id)
        for src, dst in [(0, 1), (1, 2), (2, 3), (3, 1)]:
            dfg.add_edge(src, dst)
        with pytest.raises(DFGError, match=r"contain a cycle: \[1, 2, 3\]"):
            forward_topological_order(dfg)
