"""Schedule analyses on data-flow graphs.

These are the building blocks of the paper's schedule-creation step
(Section IV-B): ASAP and ALAP schedules over the forward-edge DAG, node
mobility, and the lower bounds on the initiation interval (ResMII from the PE
budget, RecMII from dependence recurrences).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.exceptions import DFGError

if TYPE_CHECKING:  # pragma: no cover - graph.py imports this module
    from repro.dfg.graph import DFG


def forward_topological_order(dfg: DFG) -> list[int]:
    """Topological order of the forward-edge (distance zero) subgraph.

    Kahn's algorithm with a FIFO queue seeded by the zero-indegree nodes in
    id order; a node's children are visited in the order of their first
    forward edge from it.  Raises :class:`DFGError` naming a cycle when the
    forward edges are not acyclic.
    """
    children: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for node_id in dfg.node_ids:
        # dict.fromkeys keeps one child per parallel edge, first one first.
        kids = list(dict.fromkeys(
            edge.dst for edge in dfg.successors(node_id) if edge.distance == 0
        ))
        children[node_id] = kids
        for child in kids:
            indegree[child] = indegree.get(child, 0) + 1
    order = [node_id for node_id in children if node_id not in indegree]
    for node_id in order:  # the list grows as nodes become ready
        for child in children[node_id]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) < len(children):
        raise DFGError(
            f"forward edges of DFG {dfg.name!r} contain a cycle: "
            f"{_forward_cycle(dfg, set(children) - set(order))}; "
            "loop-carried dependencies must use distance >= 1"
        )
    return order


def _forward_cycle(dfg: DFG, blocked: set[int]) -> list[int]:
    """One forward cycle among ``blocked``, the nodes Kahn never released.

    Each of them keeps a blocked forward predecessor, so walking those
    predecessors from any of them must revisit a node.
    """
    path: list[int] = []
    seen: dict[int, int] = {}
    node_id = min(blocked)
    while node_id not in seen:
        seen[node_id] = len(path)
        path.append(node_id)
        node_id = next(
            edge.src for edge in dfg.predecessors(node_id)
            if edge.distance == 0 and edge.src in blocked
        )
    return [node_id] + path[seen[node_id] + 1:][::-1]


def asap_schedule(dfg: DFG) -> dict[int, int]:
    """As-soon-as-possible start time of every node over forward edges."""
    schedule: dict[int, int] = {}
    for node_id in forward_topological_order(dfg):
        earliest = 0
        for edge in dfg.predecessors(node_id):
            if edge.distance:
                continue
            earliest = max(earliest, schedule[edge.src] + dfg.node(edge.src).latency)
        schedule[node_id] = earliest
    return schedule


def alap_schedule(
    dfg: DFG, length: int | None = None, asap: dict[int, int] | None = None
) -> dict[int, int]:
    """As-late-as-possible start time of every node over forward edges.

    ``length`` is the number of schedule slots; it defaults to the critical
    path length so that at least one node has zero mobility.  ``asap`` is
    the graph's :func:`asap_schedule`, for callers that already hold it.
    """
    if asap is None:
        asap = asap_schedule(dfg)
    if length is None:
        length = schedule_length(dfg, asap)
    last_slot = length - 1
    schedule: dict[int, int] = {}
    for node_id in reversed(forward_topological_order(dfg)):
        latest = last_slot
        for edge in dfg.successors(node_id):
            if edge.distance:
                continue
            latest = min(latest, schedule[edge.dst] - dfg.node(node_id).latency)
        if latest < asap[node_id]:
            raise DFGError(
                f"ALAP slot {latest} for node {node_id} precedes its ASAP slot "
                f"{asap[node_id]}; schedule length {length} is too small"
            )
        schedule[node_id] = latest
    return schedule


def mobility(dfg: DFG, length: int | None = None) -> dict[int, range]:
    """The mobility window (ASAP..ALAP inclusive) of every node."""
    asap = asap_schedule(dfg)
    alap = alap_schedule(dfg, length, asap=asap)
    return {node_id: range(asap[node_id], alap[node_id] + 1) for node_id in asap}


def critical_path_length(dfg: DFG) -> int:
    """Length (in cycles) of the longest forward dependency chain."""
    return schedule_length(dfg, asap_schedule(dfg))


def schedule_length(dfg: DFG, asap: dict[int, int]) -> int:
    """The cycle after the last ASAP node completes (0 for an empty graph)."""
    return max(
        (start + dfg.node(node_id).latency for node_id, start in asap.items()),
        default=0,
    )


def resource_mii(dfg: DFG, num_pes: int) -> int:
    """Resource-constrained minimum II: ``ceil(#nodes / #PEs)``."""
    if num_pes <= 0:
        raise ValueError(f"num_pes must be positive, got {num_pes}")
    if dfg.num_nodes == 0:
        return 1
    return max(1, math.ceil(dfg.num_nodes / num_pes))


def recurrence_mii(dfg: DFG) -> int:
    """Recurrence-constrained minimum II.

    Every dependence cycle needs ``II * total_distance >= total_latency``:
    the bound is the smallest II >= 1 at which no cycle has positive weight
    ``total_latency - II * total_distance`` (Rau, *Iterative Modulo
    Scheduling*, MICRO 1994).  Each strongly connected component is
    searched on its own: a cycle's latency is at most the component's, and
    with every cycle carrying distance >= 1 that total is a feasible II.
    """
    # A cycle of zero total distance is a forward cycle, which no II
    # satisfies: this raises DFGError naming it.
    forward_topological_order(dfg)
    best = 1
    for component in _strongly_connected_components(dfg):
        edges = [
            (edge.src, edge.dst, dfg.node(edge.src).latency, edge.distance)
            for node_id in component
            for edge in dfg.successors(node_id)
            if edge.dst in component
        ]
        if not edges:
            continue  # a single node without a self-loop
        low = best
        high = sum(dfg.node(node_id).latency for node_id in component)
        while low < high:
            ii = (low + high) // 2
            if _has_positive_cycle(component, edges, ii):
                low = ii + 1
            else:
                high = ii
        best = max(best, low)
    return best


def _has_positive_cycle(
    nodes: set[int], edges: list[tuple[int, int, int, int]], ii: int
) -> bool:
    """Bellman-Ford longest-path test for a cycle of weight > 0 at ``ii``.

    ``edges`` are ``(src, dst, latency of src, distance)``; an edge weighs
    ``latency - ii * distance``.  Distances start at 0 (a virtual source
    reaching every node), so a relaxation still possible after ``|nodes|``
    rounds proves a positive cycle.
    """
    longest = dict.fromkeys(nodes, 0)
    for _ in range(len(nodes)):
        changed = False
        for src, dst, latency, distance in edges:
            candidate = longest[src] + latency - ii * distance
            if candidate > longest[dst]:
                longest[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def _strongly_connected_components(dfg: DFG) -> list[set[int]]:
    """Tarjan's strongly connected components over all edges, iteratively."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[set[int]] = []
    for root in dfg.node_ids:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(dfg.successors(root)))]
        while work:
            node_id, successors = work[-1]
            for edge in successors:
                child = edge.dst
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(dfg.successors(child))))
                    break
                if child in on_stack:
                    lowlink[node_id] = min(lowlink[node_id], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node_id])
                if lowlink[node_id] == index[node_id]:
                    component: set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node_id:
                            break
                    components.append(component)
    return components


def minimum_initiation_interval(dfg: DFG, num_pes: int) -> int:
    """The MII used to seed the iterative mapping search."""
    return max(resource_mii(dfg, num_pes), recurrence_mii(dfg))
