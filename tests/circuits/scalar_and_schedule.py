"""The list-of-lists AND-level walk and the per-group gathers, kept as
the test oracle.

``scalar_and_level_schedule`` is ``Circuit.and_level_schedule`` as it
stood before the AND-level plan (a per-gate walk that appends each
position to its phase's AND batch or free group), and
``scalar_vector_plan`` is the block stores' plan as it was gathered from
those lists, one int64 array per group part; both are moved here
verbatim.  ``src/`` keeps one derivation -- one key walk and one sort
(``Circuit.and_level_plan``) -- and the differential tests hold its list
view and its slices to these, value for value.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.circuits.netlist import OP_AND, OP_INV, OP_XOR, Circuit


def scalar_and_level_schedule(
    circuit: Circuit,
) -> List[Tuple[List[int], List[List[int]]]]:
    depth = [0] * circuit.n_wires
    free_level = [0] * circuit.n_wires
    phases: List[Tuple[List[int], List[List[int]]]] = [([], [])]
    for position, (code, a, b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        if code == OP_INV:
            b = a
        d = max(depth[a], depth[b])
        if code == OP_AND:
            d += 1
            while len(phases) <= d:
                phases.append(([], []))
            phases[d][0].append(position)
            free_level[out] = 0
        else:
            f = 1
            if depth[a] == d and free_level[a] >= f:
                f = free_level[a] + 1
            if depth[b] == d and free_level[b] >= f:
                f = free_level[b] + 1
            groups = phases[d][1]
            while len(groups) < f:
                groups.append([])
            groups[f - 1].append(position)
            free_level[out] = f
        depth[out] = d
    return phases


def scalar_vector_plan(circuit: Circuit):
    """``(and_positions, a_idx, b_idx, out_idx, free_groups)`` per phase,
    every member an int64 array or ``None``; ``free_groups`` a list of
    ``(xor_a, xor_b, xor_out, inv_a, inv_out)``."""
    # Zero-copy int64 / uint8 views of the netlist columns; every plan
    # member is one fancy-index gather from them.
    is_xor = np.frombuffer(circuit.op, dtype=np.uint8) == OP_XOR
    a_of = np.frombuffer(circuit.a, dtype=np.int64)
    b_of = np.frombuffer(circuit.b, dtype=np.int64)
    out_of = np.frombuffer(circuit.out, dtype=np.int64)

    def gather(column, positions):
        return column[positions] if len(positions) else None

    plan = []
    for and_batch, free_groups in scalar_and_level_schedule(circuit):
        if and_batch:
            positions = np.asarray(and_batch, dtype=np.int64)
            and_arrays = (
                positions, a_of[positions], b_of[positions], out_of[positions]
            )
        else:
            and_arrays = (None, None, None, None)
        compiled_groups = []
        for group in free_groups:
            positions = np.asarray(group, dtype=np.int64)
            xor = positions[is_xor[positions]]
            inv = positions[~is_xor[positions]]
            compiled_groups.append(
                (
                    gather(a_of, xor),
                    gather(b_of, xor),
                    gather(out_of, xor),
                    gather(a_of, inv),
                    gather(out_of, inv),
                )
            )
        plan.append(and_arrays + (compiled_groups,))
    return plan
