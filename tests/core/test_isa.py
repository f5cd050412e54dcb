"""ISA encoding/decoding (paper section 3.1.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import HaacOp, Instruction
from repro.sim.config import INSTR_BYTES, HaacConfig
from tests.core.scalar_isa import (
    OOR_SENTINEL,
    InstructionEncoding,
    encode_fields,
    split_word,
)


class TestInstruction:
    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Instruction(HaacOp.AND, -1, 0)

    def test_sentinel_value(self):
        assert OOR_SENTINEL == 0


class TestEncoding:
    def test_paper_widths(self):
        """2 MB SWW = 131072 wires -> 17-bit addresses, 37-bit instrs."""
        encoding = InstructionEncoding.for_sww_wires(131072)
        assert encoding.addr_bits == 17
        assert encoding.bits == 37
        assert encoding.bytes_packed == 5

    def test_small_window(self):
        encoding = InstructionEncoding.for_sww_wires(64)
        assert encoding.addr_bits == 6
        assert encoding.bits == 15

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            InstructionEncoding.for_sww_wires(1)

    @pytest.mark.parametrize("capacity, addr_bits", [
        (2, 1), (3, 2), (4, 2), (5, 3), (65, 7), (131073, 18),
    ])
    def test_width_covers_every_address(self, capacity, addr_bits):
        """``addr_bits`` is the least width holding addresses ``0 ..
        capacity - 1``."""
        encoding = InstructionEncoding.for_sww_wires(capacity)
        assert encoding.addr_bits == addr_bits
        assert (capacity - 1) >> addr_bits == 0
        assert capacity - 1 >= 1 << (addr_bits - 1)

    def test_layout_msb_to_lsb(self):
        """op (2) | wa | wb | live (1), most significant field first."""
        encoding = InstructionEncoding(addr_bits=4)
        word = encode_fields(HaacOp.AND, 0b0011, 0b0101, 1, encoding)
        assert word == 0b10_0011_0101_1

    @pytest.mark.parametrize("addr_bits", [1, 6, 17, 18])
    def test_field_extremes(self, addr_bits):
        encoding = InstructionEncoding(addr_bits=addr_bits)
        top = (1 << addr_bits) - 1
        for op in HaacOp:
            for wa, wb, live in ((top, top, 1), (0, top, 0), (top, 0, 1), (0, 0, 0)):
                word = encode_fields(op, wa, wb, live, encoding)
                assert 0 <= word < (1 << encoding.bits)
                assert split_word(word, addr_bits) == (op, wa, wb, live)

    def test_negative_field_address_rejected(self):
        encoding = InstructionEncoding(addr_bits=4)
        with pytest.raises(ValueError):
            encode_fields(HaacOp.XOR, -1, 0, 0, encoding)
        with pytest.raises(ValueError):
            encode_fields(HaacOp.XOR, 0, -1, 0, encoding)

    def test_address_overflow_rejected(self):
        encoding = InstructionEncoding(addr_bits=4)
        with pytest.raises(ValueError):
            encode_fields(HaacOp.AND, 16, 0, 1, encoding)
        with pytest.raises(ValueError):
            encode_fields(HaacOp.AND, 0, 16, 1, encoding)

    def test_default_sww_words_cost_instr_bytes(self):
        """The stream words' sentinel-safe addressing needs ``capacity +
        1`` codes: 18-bit addresses (39 bits) at the 2 MB default, which
        rounds to the same 5 B as the paper's 37 bits."""
        capacity = HaacConfig.paper_default().window.capacity
        encoding = InstructionEncoding.for_sww_wires(capacity + 1)
        assert encoding.addr_bits == 18
        assert encoding.bytes_packed == INSTR_BYTES

    @settings(max_examples=50, deadline=None)
    @given(
        op=st.sampled_from([HaacOp.NOP, HaacOp.XOR, HaacOp.AND]),
        wa=st.integers(0, 2**17 - 1),
        wb=st.integers(0, 2**17 - 1),
        live=st.integers(0, 1),
    )
    def test_fields_roundtrip(self, op, wa, wb, live):
        encoding = InstructionEncoding(addr_bits=17)
        word = encode_fields(op, wa, wb, live, encoding)
        assert 0 <= word < (1 << encoding.bits)
        assert split_word(word, encoding.addr_bits) == (op, wa, wb, live)
