"""Static stream verifier: accepts clean compiles, catches corruption."""

import pytest

from repro.core.compiler import OptLevel, compile_circuit
from repro.core.verify import StreamVerificationError, verify_streams
from repro.sim.config import HaacConfig
from repro.workloads import get_workload


@pytest.fixture
def config():
    return HaacConfig(n_ges=4, sww_bytes=64 * 16)


@pytest.fixture
def compiled(mixed_circuit, config):
    return compile_circuit(
        mixed_circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )


class TestCleanCompiles:
    @pytest.mark.parametrize("opt", list(OptLevel))
    def test_every_opt_level_verifies(self, mixed_circuit, config, opt):
        result = compile_circuit(
            mixed_circuit, config.window, config.n_ges,
            opt=opt, params=config.schedule_params(),
        )
        report = verify_streams(result.streams)
        assert report.n_instructions == len(result.program.instructions)
        assert report.oor_reads == result.streams.oor_reads

    def test_workload_compile_verifies(self, config):
        built = get_workload("Merse").build(state_n=4, state_m=2, n_outputs=4)
        result = compile_circuit(
            built.circuit, config.window, config.n_ges,
            opt=OptLevel.SEG_RN_ESW, params=config.schedule_params(),
        )
        verify_streams(result.streams)


class TestCorruptionDetection:
    def test_swapped_oor_queue(self, compiled):
        streams = compiled.streams
        for ge in streams.ges:
            distinct = [
                i for i in range(len(ge.oor_addresses) - 1)
                if ge.oor_addresses[i] != ge.oor_addresses[i + 1]
            ]
            if distinct:
                i = distinct[0]
                ge.oor_addresses[i], ge.oor_addresses[i + 1] = (
                    ge.oor_addresses[i + 1],
                    ge.oor_addresses[i],
                )
                break
        else:
            pytest.skip("no adjacent distinct OoR pops")
        with pytest.raises(StreamVerificationError, match="OoRW queue"):
            verify_streams(compiled.streams)

    def test_cleared_live_bit(self, compiled):
        streams = compiled.streams
        program = streams.program
        target = None
        for ge in streams.ges:
            for wire in ge.oor_addresses:
                if wire >= program.n_inputs:
                    target = wire - program.n_inputs
                    break
            if target is not None:
                break
        if target is None:
            pytest.skip("no internal OoR wires")
        program.live[target] = 0
        with pytest.raises(StreamVerificationError, match="live bit"):
            verify_streams(streams)

    def test_flipped_oor_flag(self, compiled):
        streams = compiled.streams
        ge = next(g for g in streams.ges if g.positions)
        ge.oor_a_of[ge.positions[0]] ^= 1
        with pytest.raises(StreamVerificationError, match="OoR flag"):
            verify_streams(streams)

    def test_views_are_read_only(self, compiled):
        streams = compiled.streams
        ge = next(g for g in streams.ges if g.positions)
        for view in (
            streams.program.instructions,
            streams.program.netlist.gates,
            ge.instructions,
            ge.oor_a,
            ge.oor_b,
        ):
            with pytest.raises(TypeError):
                view[0] = view[0]

    def test_duplicated_assignment(self, compiled):
        streams = compiled.streams
        donor = next(g for g in streams.ges if len(g.positions) > 1)
        receiver = streams.ges[(streams.ge_of[donor.positions[0]] + 1) % streams.n_ges]
        # Claim the same position twice.
        receiver.positions.append(donor.positions[-1])
        with pytest.raises(StreamVerificationError):
            verify_streams(streams)

    def test_broken_issue_order(self, compiled):
        streams = compiled.streams
        ge = next(g for g in streams.ges if len(g.positions) >= 2)
        p0, p1 = ge.positions[0], ge.positions[1]
        streams.issue_cycle[p1] = streams.issue_cycle[p0]  # same cycle
        with pytest.raises(StreamVerificationError, match="issue"):
            verify_streams(streams)

    def test_premature_issue(self, compiled):
        streams = compiled.streams
        program = streams.program
        # Find a consumer of an internal wire and pull its issue to 0.
        for position, gate in enumerate(program.netlist.gates):
            if any(w >= program.n_inputs for w in gate.inputs()):
                streams.issue_cycle[position] = 0
                break
        with pytest.raises(StreamVerificationError):
            verify_streams(streams)

    def test_late_issue(self, compiled):
        """Feasible but late: the last instruction delayed one cycle
        breaks no ordering constraint, yet it is not the greedy's issue,
        which is what the timing model reads off the compile."""
        streams = compiled.streams
        streams.issue_cycle[-1] += 1
        with pytest.raises(StreamVerificationError, match="not tight"):
            verify_streams(streams)
