"""Static verification of compiled stream sets (no cryptography).

The functional HAAC machine (:mod:`repro.sim.functional`) is the
gold-standard check but pays for real AES on every gate.  This module
re-checks the same co-design invariants *statically*, in one linear pass
over the streams, so it can run after every compile (the compiler's
analogue of an assembler's ``--verify``):

1. **Partition** -- every instruction appears in exactly one GE stream,
   per-GE streams preserve program order.
2. **ISA contract** -- instruction ``p`` writes ``n_inputs + p``;
   operands match the carried netlist.
3. **OoR completeness** -- an operand is flagged OoR iff the window
   arithmetic says it is out of range at the instruction's frontier, and
   the GE's OoRW queue lists exactly the flagged wires in pop order.
4. **Live-bit sufficiency** -- every wire ever read OoR (or named a
   circuit output) has its producer's live bit set.
5. **Table discipline** -- per-GE table pops are exactly that GE's AND
   instructions in stream order.
6. **Schedule tightness** -- issue cycles respect in-order issue,
   dependences with pipeline latencies and forwarding, and the
   window-sync hazard, and each is the *earliest* cycle those allow
   under ``streams.params`` -- the greedy mapping's, which the timing
   model reads as the replay's answer.

Raises :class:`StreamVerificationError` with a precise message on the
first violation; returns a :class:`VerificationReport` when clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import HaacOp
from .passes.streams import StreamSet

__all__ = ["StreamVerificationError", "VerificationReport", "verify_streams"]


class StreamVerificationError(AssertionError):
    """A compiled stream set violates a co-design invariant."""


@dataclass(frozen=True)
class VerificationReport:
    """Summary of a clean verification run."""

    n_instructions: int
    n_ges: int
    oor_reads: int
    live_writes: int
    checked_invariants: int = 6


def verify_streams(streams: StreamSet) -> VerificationReport:
    """Check every invariant; raise on the first violation."""
    program = streams.program
    netlist = program.netlist
    window = streams.window
    n = len(program.op)
    op, live = program.op, program.live
    a_of, b_of = netlist.a, netlist.b

    # -- 1. partition ---------------------------------------------------
    seen = [False] * n
    for ge_id, ge in enumerate(streams.ges):
        if not (ge.program is program and len(ge.oor_a_of) == len(ge.oor_b_of) == n):
            raise StreamVerificationError(f"GE {ge_id}: ragged stream arrays")
        previous = -1
        for position in ge.positions:
            if not 0 <= position < n:
                raise StreamVerificationError(
                    f"GE {ge_id}: position {position} out of range"
                )
            if seen[position]:
                raise StreamVerificationError(
                    f"instruction {position} assigned to multiple GEs"
                )
            seen[position] = True
            if position <= previous:
                raise StreamVerificationError(
                    f"GE {ge_id}: stream not in program order at {position}"
                )
            previous = position
            if streams.ge_of[position] != ge_id:
                raise StreamVerificationError(
                    f"ge_of[{position}] disagrees with GE {ge_id}'s stream"
                )
    if not all(seen):
        missing = seen.index(False)
        raise StreamVerificationError(f"instruction {missing} unassigned")

    # -- 2. ISA contract (delegates to the program's own validator) -----
    program.validate()

    # -- 3/4/5. OoR, live bits, tables ----------------------------------
    output_set = set(program.outputs)
    live_needed = [False] * n
    for ge_id, ge in enumerate(streams.ges):
        queue = list(ge.oor_addresses)
        queue_cursor = 0
        table_positions = [p for p in ge.positions if op[p] == HaacOp.AND]
        table_cursor = 0
        for position in ge.positions:
            out = program.out_addr(position)
            for wire, flagged in (
                (a_of[position], ge.oor_a_of[position]),
                (b_of[position], ge.oor_b_of[position]),
            ):
                expected = window.is_oor(wire, out)
                if bool(flagged) != expected:
                    raise StreamVerificationError(
                        f"GE {ge_id} instr {position}: OoR flag for wire "
                        f"{wire} is {flagged}, window says {expected}"
                    )
                if flagged:
                    if queue_cursor >= len(queue) or queue[queue_cursor] != wire:
                        raise StreamVerificationError(
                            f"GE {ge_id}: OoRW queue mismatch at pop "
                            f"{queue_cursor} (instr {position}, wire {wire})"
                        )
                    queue_cursor += 1
                    if wire >= program.n_inputs:
                        live_needed[wire - program.n_inputs] = True
            if op[position] == HaacOp.AND:
                if (
                    table_cursor >= len(table_positions)
                    or table_positions[table_cursor] != position
                ):
                    raise StreamVerificationError(
                        f"GE {ge_id}: table order broken at instr {position}"
                    )
                table_cursor += 1
        if queue_cursor != len(queue):
            raise StreamVerificationError(
                f"GE {ge_id}: {len(queue) - queue_cursor} unconsumed OoRW entries"
            )

    for position in range(n):
        needs_live = live_needed[position] or program.out_addr(position) in output_set
        if needs_live and not live[position]:
            raise StreamVerificationError(
                f"instruction {position}: output read after eviction (or is "
                "a circuit output) but live bit is clear"
            )

    # -- 6. schedule tightness -------------------------------------------
    # Each issue must be the greedy mapping's under the compile's own
    # params: the max of the GE's previous issue + 1, operand readiness
    # (plus the forwarding penalty across GEs) and the evicted slot's
    # last access, its write included.  The timing model reads
    # issue_cycle as the replay's answer, so late is as wrong as early.
    params = streams.params
    and_latency, xor_latency = params.and_latency, params.xor_latency
    penalty, and_op = params.cross_ge_forward, HaacOp.AND
    ge_of, issue_cycle = streams.ge_of, streams.issue_cycle
    n_inputs, capacity = program.n_inputs, window.capacity
    ge_last = [-1] * streams.n_ges
    last_access = [0] * program.n_wires
    done = []  # each instruction's issue + latency
    for position, operands in enumerate(zip(a_of, b_of)):
        issue, ge_id = issue_cycle[position], ge_of[position]
        data = 0
        for wire in operands:
            if wire >= n_inputs:
                producer = wire - n_inputs
                ready = done[producer]
                if ge_of[producer] != ge_id:
                    ready += penalty
                if ready > data:
                    data = ready
        out = n_inputs + position
        slot_free = last_access[out - capacity] if out >= capacity else 0
        greedy = max(ge_last[ge_id] + 1, data, slot_free)
        if issue != greedy:
            raise StreamVerificationError(
                f"instr {position} on GE {ge_id} issues at {issue}, the "
                f"greedy schedule at {greedy} (previous issue "
                f"{ge_last[ge_id]}, operands ready {data}, evicted slot "
                f"last accessed {slot_free}): "
                + ("too early" if issue < greedy else "feasible but not tight")
            )
        ge_last[ge_id] = issue
        done.append(
            issue + (and_latency if op[position] == and_op else xor_latency)
        )
        read = last_access[out] = issue + 1
        for wire in operands:
            if read > last_access[wire]:
                last_access[wire] = read

    return VerificationReport(
        n_instructions=n,
        n_ges=streams.n_ges,
        oor_reads=streams.oor_reads,
        live_writes=program.n_live,
    )
