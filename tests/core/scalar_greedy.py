"""The scan-based greedy GE mapper, kept as the test oracle.

This is ``streams._greedy_schedule`` as it stood before the bucket
queue of free-GE bitmasks replaced it (``min(ge_free)`` plus
``ge_free.index`` per instruction), moved here verbatim: ``src/`` keeps
one mapper, and the differential tests hold it to this one -- same GE
and issue cycle for every instruction, same makespan.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.depgraph import DepGraph
from repro.core.passes.streams import ScheduleParams
from repro.core.program import HaacProgram


def scalar_greedy_schedule(
    program: HaacProgram,
    n_ges: int,
    params: ScheduleParams,
    capacity: int,
    graph: DepGraph,
) -> Tuple[List[int], List[int], int]:
    n_inputs = program.n_inputs
    and_latency = params.and_latency
    xor_latency = params.xor_latency
    penalty = params.cross_ge_forward
    prefer_producer = params.tie_break == "producer"
    prefer_highest = params.tie_break == "highest"

    n_wires = n_inputs + graph.n_gates
    done = [0] * n_wires
    producer_ge = [-1] * n_wires  # -1: a primary input, no GE forwards it
    ge_free = [0] * n_ges
    ge_of: List[int] = []
    issue_cycle: List[int] = []
    last_read_issue = [0] * n_wires

    out = n_inputs
    for a, b, is_and in zip(graph.a_of, graph.b_of, graph.is_and):
        # Next-free GE (paper's non-stalled-GE policy; the lowest index
        # among GEs freeing at that cycle), then the tie-break.
        accept_cycle = min(ge_free)
        source_a = producer_ge[a]
        source_b = producer_ge[b]
        chosen = -1
        if prefer_producer:
            if source_a >= 0 and ge_free[source_a] == accept_cycle:
                chosen = source_a
            elif source_b >= 0 and ge_free[source_b] == accept_cycle:
                chosen = source_b
        elif prefer_highest:
            chosen = n_ges - 1
            while ge_free[chosen] != accept_cycle:
                chosen -= 1
        if chosen < 0:
            chosen = ge_free.index(accept_cycle)

        issue = accept_cycle
        if out >= capacity and last_read_issue[out - capacity] > issue:
            # Window sync: the evicted slot's accesses have all issued.
            issue = last_read_issue[out - capacity]
        available = done[a]
        if source_a >= 0 and source_a != chosen:
            available += penalty
        if available > issue:
            issue = available
        available = done[b]
        if source_b >= 0 and source_b != chosen:
            available += penalty
        if available > issue:
            issue = available

        ge_of.append(chosen)
        issue_cycle.append(issue)
        issued = issue + 1
        ge_free[chosen] = issued
        done[out] = issue + (and_latency if is_and else xor_latency)
        producer_ge[out] = chosen
        # The write is the slot's first access: the instruction evicting
        # `out` must issue strictly after it, readers or not.
        last_read_issue[out] = issued
        if issued > last_read_issue[a]:
            last_read_issue[a] = issued
        if issued > last_read_issue[b]:
            last_read_issue[b] = issued
        out += 1

    # Inputs are done at 0, every gate at its finish cycle.
    return ge_of, issue_cycle, max(done, default=0)
