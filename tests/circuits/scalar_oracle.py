"""The scalar netlist validator, kept as the test oracle.

This is ``Circuit.validate`` as it stood before the array kernel
replaced it (one Python walk over the gate columns), moved here
verbatim: ``src/`` keeps one validator, and the differential tests hold
it to this one -- same accept/reject, same ``renamed`` flag, same
message, same rule precedence.
"""

from __future__ import annotations

from repro.circuits.netlist import OP_INV, Circuit, CircuitError


def scalar_validate(self: Circuit) -> bool:
    op, a, b, out = self.op, self.a, self.b, self.out
    n_inputs = self.n_inputs
    n_gates = len(op)
    if not len(a) == len(b) == len(out) == n_gates:
        raise CircuitError("gate columns have different lengths")
    n_wires = n_inputs + n_gates
    defined = bytearray(n_wires)
    defined[:n_inputs] = b"\x01" * n_inputs
    renamed = True
    for position, (code, x, y, w) in enumerate(zip(op, a, b, out)):
        if code == OP_INV and y == -1:
            y = x
        elif code == OP_INV:
            raise CircuitError(
                f"gate {position}: INV must have b == -1, got {y}"
            )
        elif code > OP_INV:
            raise CircuitError(f"gate {position}: unknown op code {code}")
        if not (0 <= x < n_wires and 0 <= y < n_wires and 0 <= w < n_wires):
            if x < 0 or y < 0 or w < 0:
                raise CircuitError(
                    f"gate {position}: wire ids must be non-negative"
                )
            raise CircuitError(
                f"gate {position} touches a wire >= n_wires {n_wires}"
            )
        if not (defined[x] and defined[y]):
            raise CircuitError(
                f"gate {position} reads a wire before it is defined"
            )
        if w < n_inputs:
            raise CircuitError(f"gate {position} overwrites input wire {w}")
        if defined[w]:
            raise CircuitError(f"wire {w} defined twice (SSA violation)")
        defined[w] = 1
        if w != n_inputs + position:
            renamed = False
    for wire in self.outputs:
        if not 0 <= wire < n_wires or not defined[wire]:
            raise CircuitError(f"output wire {wire} is undefined")
    return renamed
