"""Bristol Fashion reader/writer round trips."""

import random
import time

import pytest

from repro.circuits.bristol import (
    dumps_bristol,
    loads_bristol,
)
from repro.circuits.netlist import CircuitError, GateOp
from tests.conftest import random_circuit
from tests.core.test_compile_golden import BRISTOL_TEXT


class TestWriter:
    def test_header(self, tiny_circuit):
        text = dumps_bristol(tiny_circuit)
        lines = text.strip().splitlines()
        assert lines[0] == "3 5"
        assert lines[1] == "2 1 1"
        assert lines[2] == "1 1"

    def test_gate_lines(self, tiny_circuit):
        lines = dumps_bristol(tiny_circuit).strip().splitlines()
        assert "2 1 0 1 2 AND" in lines
        assert "1 1 0 3 INV" in lines
        assert "2 1 2 3 4 XOR" in lines


class TestRoundTrip:
    def test_tiny_roundtrip_semantics(self, tiny_circuit):
        parsed = loads_bristol(dumps_bristol(tiny_circuit))
        for a in (0, 1):
            for b in (0, 1):
                assert parsed.eval_plain([a], [b]) == tiny_circuit.eval_plain([a], [b])

    @pytest.mark.parametrize("seed", range(3))
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_inputs=6, n_gates=60)
        # Bristol outputs must be the last wires; rebuild outputs to comply.
        circuit.outputs = list(range(circuit.n_wires - 4, circuit.n_wires))
        parsed = loads_bristol(dumps_bristol(circuit))
        for _ in range(10):
            g = [rng.randint(0, 1) for _ in range(circuit.n_garbler_inputs)]
            e = [rng.randint(0, 1) for _ in range(circuit.n_evaluator_inputs)]
            assert parsed.eval_plain(g, e) == circuit.eval_plain(g, e)


class TestReader:
    def test_single_input_value(self):
        text = "1 3\n1 2\n1 1\n\n2 1 0 1 2 XOR\n"
        circuit = loads_bristol(text)
        assert circuit.n_garbler_inputs == 2
        assert circuit.n_evaluator_inputs == 0
        assert circuit.eval_plain([1, 0], []) == [1]

    def test_eqw_aliasing(self):
        # EQW copies wire 0 into wire 2; XOR uses the alias.
        text = "2 4\n2 1 1\n1 1\n\n1 1 0 2 EQW\n2 1 2 1 3 XOR\n"
        circuit = loads_bristol(text)
        assert len(circuit.gates) == 1
        assert circuit.eval_plain([1], [1]) == [0]
        assert circuit.eval_plain([1], [0]) == [1]

    def test_not_alias_accepted(self):
        text = "1 3\n2 1 1\n1 1\n\n1 1 0 2 NOT\n"
        circuit = loads_bristol(text)
        assert circuit.gates[0].op is GateOp.INV

    def test_mand_rejected(self):
        text = "1 4\n2 2 1\n1 1\n\n3 1 0 1 2 3 MAND\n"
        with pytest.raises(CircuitError):
            loads_bristol(text)

    def test_too_few_gate_lines(self):
        text = "2 4\n2 1 1\n1 1\n\n2 1 0 1 2 XOR\n"
        with pytest.raises(CircuitError):
            loads_bristol(text)

    def test_three_input_values_rejected(self):
        text = "1 4\n3 1 1 1\n1 1\n\n2 1 0 1 3 XOR\n"
        with pytest.raises(CircuitError):
            loads_bristol(text)

    def test_negative_output_id_rejected(self):
        text = "1 3\n1 2\n1 1\n\n2 1 0 1 -1 XOR\n"
        with pytest.raises(CircuitError, match="negative wire id"):
            loads_bristol(text)

    def test_undeclared_output_wire_rejected(self):
        # The header claims 9 wires, so the output (wire 8) never exists.
        text = "1 9\n1 2\n1 1\n\n2 1 0 1 2 XOR\n"
        with pytest.raises(CircuitError):
            loads_bristol(text)

    def test_use_before_definition(self):
        text = "1 3\n1 2\n1 1\n\n2 1 0 5 2 XOR\n"
        with pytest.raises(CircuitError):
            loads_bristol(text)


class TestMalformedText:
    """Every Bristol text parses to a valid circuit or raises CircuitError."""

    #: Replacement tokens: junk, signs, small ids, a huge count, gate names,
    #: and what ``int()`` takes but a decimal number is not: a plus sign,
    #: an underscore, an Arabic-Indic and a fullwidth digit one.
    TOKENS = [
        "x", "-1", "0", "1", "2", "3", "7", "8", "9", "99999999999",
        "AND", "XOR", "INV", "EQW", "NOT", "1.5", "\n",
        "+1", "0_1", "\u0661", "\uff11",
    ]

    def _mutate(self, rng: random.Random) -> str:
        tokens = BRISTOL_TEXT.replace("\n", " \n ").split(" ")
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(tokens))
            kind = rng.randrange(3)
            if kind == 0:
                tokens[index] = rng.choice(self.TOKENS)
            elif kind == 1:
                del tokens[index]
            else:
                tokens.insert(index, rng.choice(self.TOKENS))
        return " ".join(tokens)

    @pytest.mark.parametrize("token", ["+1", "0_1", "\u0661", "\uff11"])
    def test_non_decimal_ids_raise(self, token):
        for text in (
            BRISTOL_TEXT.replace("1 1 4 6 INV", f"1 1 {token} 6 INV"),
            BRISTOL_TEXT.replace("1 2\n", f"1 {token}\n", 1),
        ):
            with pytest.raises(CircuitError, match="malformed"):
                loads_bristol(text)

    def test_byte_mutations(self):
        """Mutated UTF-8 bytes, decoded with replacement characters."""
        rng = random.Random(2026)
        source = BRISTOL_TEXT.encode("utf-8")
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(3000):
            data = bytearray(source)
            for _ in range(rng.randint(1, 4)):
                index = rng.randrange(len(data) + 1)
                kind = rng.randrange(3)
                if kind == 0 and index < len(data):
                    data[index] = rng.randrange(256)
                elif kind == 1 and index < len(data):
                    del data[index]
                else:
                    data.insert(index, rng.randrange(256))
            try:
                circuit = loads_bristol(data.decode("utf-8", errors="replace"))
            except CircuitError:
                outcomes["rejected"] += 1
                continue
            circuit.validate()
            outcomes["parsed"] += 1
        assert outcomes["parsed"] and outcomes["rejected"]

    def test_token_mutations(self):
        rng = random.Random(2024)
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(3000):
            text = self._mutate(rng)
            try:
                circuit = loads_bristol(text)
            except CircuitError:
                outcomes["rejected"] += 1
                continue
            circuit.validate()
            outcomes["parsed"] += 1
        assert outcomes["parsed"] and outcomes["rejected"]

    @pytest.mark.parametrize("header", [
        "4 8\n2 2 99999999999\n1 2\n",   # inputs exceed the declared wires
        "99999999999 8\n2 2 2\n1 2\n",   # more gates than lines
        "4 8\n2 2 2\n1 99999999999\n",   # more outputs than gates
    ])
    def test_huge_declared_counts_raise_promptly(self, header):
        text = header + BRISTOL_TEXT.split("\n", 3)[3]
        start = time.perf_counter()
        with pytest.raises(CircuitError):
            loads_bristol(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("line", [
        "1 1 6 6 EQW",       # a self-copy: rejected, not an endless alias
        "2 1 0 2",           # no gate name
        "AND",               # no fields
        "2 1 0 2 4 5 AND",   # too many wires
        "2 2 0 2 4 AND",     # two outputs
        "2 1 0 x 4 AND",     # a non-integer id
    ])
    def test_malformed_gate_line(self, line):
        text = BRISTOL_TEXT.replace("1 1 4 6 INV", line)
        with pytest.raises(CircuitError):
            loads_bristol(text)
