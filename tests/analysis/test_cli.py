"""Command-line interface."""

import pathlib

import pytest

from repro.analysis.figures import EXPERIMENT_DRIVERS, FIGURE_SPECS
from repro.cli import build_parser, main
from repro.store import ResultStore

BUNDLE = pathlib.Path(__file__).parent / "data" / "resultstore_quick.bundle.json"
FIGURES_DIR = pathlib.Path(__file__).resolve().parents[2] / "figures"


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A result store holding every quick-scale design point."""
    store = ResultStore(tmp_path_factory.mktemp("cli") / "store")
    store.merge(BUNDLE)
    return store.root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        # No names means every driver, at quick scale, printed as text.
        args = build_parser().parse_args(["figures"])
        assert args.which == []
        assert not args.full
        assert args.emit is None

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "Hamm", "--ges", "4", "--dram", "hbm2"]
        )
        assert args.name == "Hamm"
        assert args.ges == 4
        assert args.dram == "hbm2"

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "ReLU", "--ges", "0"], "--ges"),
        (["simulate", "ReLU", "--sww-kb", "-1"], "--sww-kb"),
        (["compile", "ReLU", "--sww-kb", "0"], "--sww-kb"),
        (["compile", "ReLU", "--ges", "two"], "--ges"),
        (["compile", "ReLU", "--ges", "-2"], "--ges"),
        (["simulate", "ReLU", "--sww-kb", "0"], "--sww-kb"),
    ])
    def test_nonpositive_hardware_size_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer" in err
        assert "Traceback" not in err

    def test_search_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["search", "schedule", "--workload", "ReLU"])
        assert info.value.code == 2
        assert "invalid choice: 'search'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["protocol", "serve"])
    def test_workers_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCommands:
    def test_workloads_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("BubbSt", "ReLU", "GradDesc"):
            assert name in out

    def test_workloads_detail(self, capsys):
        assert main(["workloads", "ReLU"]) == 0
        out = capsys.readouterr().out
        assert "levels" in out
        assert "ILP" in out

    def test_experiments_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "GCs" in capsys.readouterr().out

    def test_experiments_table4(self, capsys):
        assert main(["figures", "table4"]) == 0
        assert "Half-Gate" in capsys.readouterr().out

    def test_experiments_unknown(self, capsys):
        assert main(["figures", "table99"]) == 2

    def test_compile_command(self, capsys):
        assert main(["compile", "Merse", "--ges", "2", "--sww-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "ro_rn_esw" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "Merse", "--ges", "2", "--sww-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "runtime_us" in out

    def test_protocol_command(self, capsys):
        assert main(["protocol", "--alice", "10", "--bob", "5", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "richer: Alice" in out
        assert "transcript sha256" in out

    def test_protocol_command_injects_faults(self, capsys):
        assert main(["protocol", "--alice", "10", "--bob", "5", "--width", "8",
                     "--faults", "drop:0.2,seed=3"]) == 0
        out = capsys.readouterr().out
        assert "richer: Alice" in out
        faults_line = next(
            line for line in out.splitlines() if line.startswith("faults injected")
        )
        assert int(faults_line.split(":")[1]) > 0

    @pytest.mark.parametrize("spec, error", [
        ("kill_party,seed=3", "FaultKindUnsupported"),
        ("tear_cache:1.0", "ValueError: unknown fault kind"),
        ("bogus:0.1", "ValueError: unknown fault kind"),
        ("drop:0.1,drop:0.9,seed=3", "ValueError: fault kind 'drop' given twice"),
    ])
    def test_protocol_rejects_bad_faults_in_one_line(self, capsys, spec, error):
        assert main(["protocol", "--width", "8", "--faults", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert error in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("transport, spec, error", [
        ("memory", "sever,seed=3", "FaultKindUnsupported"),
        ("process", "drop:1.0,seed=3", "FaultKindUnsupported"),
        ("memory", "bogus:0.1", "ValueError: unknown fault kind"),
        ("process", "stall,stall", "ValueError: fault kind 'stall' given twice"),
    ])
    def test_serve_rejects_bad_faults_in_one_line(
        self, capsys, transport, spec, error
    ):
        argv = ["serve", "--sessions", "2", "--width", "8",
                "--transport", transport, "--faults", spec]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("s0 rejected: ") and error in captured.err

    def test_serve_faults_help_lists_kinds_per_transport(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert (
            "--transport memory takes the frame kinds (drop corrupt truncate "
            "tamper duplicate delay reorder), process the chaos kinds "
            "(kill_party sever stall)"
        ) in help_text

    def test_protocol_faults_help_lists_frame_kinds_only(self, capsys):
        # The process-chaos kinds act on party processes, which a
        # protocol session never starts.
        with pytest.raises(SystemExit):
            main(["protocol", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "frame kinds: drop corrupt truncate tamper duplicate delay reorder" in help_text
        assert "tear_cache" not in help_text and "kill_party" not in help_text
        assert "--stream" not in help_text

    @pytest.mark.parametrize("command", ["protocol", "serve"])
    def test_no_backend_flag(self, command):
        with pytest.raises(SystemExit):
            main([command, "--width", "8", "--backend", "numpy"])

    def test_protocol_tie_goes_to_bob_side(self, capsys):
        assert main(["protocol", "--alice", "5", "--bob", "5", "--width", "8"]) == 0
        assert "Bob (or tie)" in capsys.readouterr().out

    def test_figures_unknown(self, capsys, tmp_path):
        assert main(["figures", "fig99", "--emit", str(tmp_path)]) == 2
        assert "unknown figures" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(EXPERIMENT_DRIVERS))
    def test_figures_emits_only_the_named_artifact(
        self, name, capsys, tmp_path, warm_store
    ):
        # One name writes its CSV (and, for a figure, its Vega-Lite
        # spec) and nothing else, byte-identical to the committed file.
        out_dir = tmp_path / "out"
        argv = ["figures", name, "--emit", str(out_dir), "--store", str(warm_store)]
        assert main(argv) == 0
        expected = [f"{name}.csv"]
        if name in FIGURE_SPECS:
            expected.append(f"{name}.vl.json")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(expected)
        out = capsys.readouterr().out
        for file_name in expected:
            assert f"wrote {out_dir / file_name}" in out
            assert (out_dir / file_name).read_bytes() == (
                FIGURES_DIR / file_name
            ).read_bytes(), f"{file_name} drifted from the committed artifact"
