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
6. **Schedule feasibility** -- issue cycles respect in-order issue,
   dependences with pipeline latencies, and the window-sync hazard.

Raises :class:`StreamVerificationError` with a precise message on the
first violation; returns a :class:`VerificationReport` when clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import HaacOp
from .passes.streams import ScheduleParams, StreamSet

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


def verify_streams(
    streams: StreamSet, params: ScheduleParams | None = None
) -> VerificationReport:
    """Check every invariant; raise on the first violation."""
    program = streams.program
    netlist = program.netlist
    window = streams.window
    params = params or streams.params
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

    # -- 6. schedule feasibility -----------------------------------------
    latency = {
        HaacOp.AND: params.and_latency,
        HaacOp.XOR: params.xor_latency,
        HaacOp.NOP: 1,
    }
    ge_last = [-1] * streams.n_ges
    capacity = window.capacity
    last_read = [0] * program.n_wires
    for position, operands in enumerate(zip(a_of, b_of)):
        issue = streams.issue_cycle[position]
        ge_id = streams.ge_of[position]
        if issue <= ge_last[ge_id]:
            raise StreamVerificationError(
                f"GE {ge_id}: issue {issue} at instr {position} not after "
                f"previous issue {ge_last[ge_id]}"
            )
        ge_last[ge_id] = issue
        for wire in operands:
            if wire < program.n_inputs:
                continue
            producer = wire - program.n_inputs
            ready = streams.issue_cycle[producer] + latency[op[producer]]
            if issue < ready:
                raise StreamVerificationError(
                    f"instr {position} issues at {issue} before operand "
                    f"{wire} is ready at {ready}"
                )
        evicted = program.out_addr(position) - capacity
        if evicted >= 0 and issue < last_read[evicted]:
            raise StreamVerificationError(
                f"instr {position}: window-sync violation -- slot of wire "
                f"{evicted} overwritten at {issue} before last read "
                f"{last_read[evicted]}"
            )
        for wire in operands:
            if issue + 1 > last_read[wire]:
                last_read[wire] = issue + 1

    return VerificationReport(
        n_instructions=n,
        n_ges=streams.n_ges,
        oor_reads=streams.oor_reads,
        live_writes=program.n_live,
    )
