"""Command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.store import ResultStore

BUNDLE = pathlib.Path(__file__).parent / "data" / "resultstore_quick.bundle.json"


@pytest.fixture
def warm_store(tmp_path):
    """A result store holding every quick-scale design point."""
    store = ResultStore(tmp_path / "store")
    store.merge(BUNDLE)
    return store.root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.which == ["all"]
        assert not args.quick

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
        (["search", "schedule", "--workload", "ReLU", "--ges", "0"], "--ges"),
        (["search", "schedule", "--workload", "ReLU", "--sww-kb", "0"],
         "--sww-kb"),
    ])
    def test_nonpositive_hardware_size_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer" in err
        assert "Traceback" not in err

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
        assert main(["experiments", "table1"]) == 0
        assert "GCs" in capsys.readouterr().out

    def test_experiments_table4(self, capsys):
        assert main(["experiments", "table4"]) == 0
        assert "Half-Gate" in capsys.readouterr().out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "table99"]) == 2

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

    def test_protocol_command_with_backend(self, capsys):
        assert main(["protocol", "--alice", "10", "--bob", "5", "--width", "8",
                     "--backend", "numpy", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "richer: Alice" in out
        assert "transcript sha256" in out

    def test_protocol_rejects_unregistered_backend(self, monkeypatch):
        from repro.gc.backends import BACKEND_ENV_VAR, BackendUnavailable

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(BackendUnavailable, match="registered"):
            main(["protocol", "--width", "8", "--backend", "parallel"])

    def test_protocol_tie_goes_to_bob_side(self, capsys):
        assert main(["protocol", "--alice", "5", "--bob", "5", "--width", "8"]) == 0
        assert "Bob (or tie)" in capsys.readouterr().out

    def test_figures_fig9(self, capsys):
        assert main(["figures", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "legend:" in out

    def test_figures_default_is_fig6_and_fig10(self, capsys, warm_store):
        assert main(["figures", "--store", str(warm_store)]) == 0
        out = capsys.readouterr().out
        assert "Figure 6: speedup over CPU (log scale)" in out
        assert "Figure 10: slowdown vs plaintext (log scale)" in out
        assert "RO+RN+ESW" in out

    def test_figures_fig8(self, capsys, warm_store):
        assert main(["figures", "fig8", "--store", str(warm_store)]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "HBM2 16GE" in out

    def test_figures_tables_have_no_ascii_rendering(self, capsys):
        assert main(["figures", "table3"]) == 2
        assert "no ASCII rendering" in capsys.readouterr().err

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err
