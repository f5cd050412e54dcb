"""HAAC's contribution: the ISA, compiler passes, and program model."""

from .assembler import LoweredCircuit, assemble, lower_inv
from .compiler import CompileResult, OptLevel, compile_circuit
from .isa import HaacOp, Instruction
from .program import HaacProgram, ProgramError
from .sww import WIRE_BYTES, SlidingWindow
from .verify import StreamVerificationError, VerificationReport, verify_streams

__all__ = [
    "verify_streams",
    "VerificationReport",
    "StreamVerificationError",
    "HaacOp",
    "Instruction",
    "HaacProgram",
    "ProgramError",
    "SlidingWindow",
    "WIRE_BYTES",
    "assemble",
    "lower_inv",
    "LoweredCircuit",
    "OptLevel",
    "CompileResult",
    "compile_circuit",
]
