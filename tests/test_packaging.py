"""Packaging and documentation sanity: the repo ships what it claims."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re
import textwrap
from collections import defaultdict

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every module of the package, by dotted name.
MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

#: Settable values that no caller set, removed with the one value every
#: caller used kept as fixed behaviour: (module, callable, parameter).
REMOVED_PARAMETERS = [
    *[
        (module, name, "rekeyed")
        for module, name in (
            ("repro.gc.garble", "garble_circuit_batched"),
            ("repro.gc.evaluate", "evaluate_circuit_batched"),
            ("repro.gc.hashing", "GateHasher"),
            ("repro.gc.protocol", "TwoPartySession"),
            ("repro.gc.protocol", "run_two_party"),
            ("repro.serve.supervisor", "SessionSpec"),
        )
    ],
    ("repro.gc.protocol", "TwoPartySession", "chunk_bytes"),
    ("repro.gc.protocol", "TwoPartySession", "max_retries"),
    ("repro.gc.channel", "make_framed_pair", "chunk_bytes"),
    ("repro.gc.channel", "make_framed_pair", "max_retries"),
    ("repro.gc.channel", "FramedChannel", "keep_retransmit"),
    ("repro.serve.procs", "make_party_channels", "chunk_bytes"),
    ("repro.serve.supervisor", "Supervisor", "chunk_bytes"),
    ("repro.serve.supervisor", "Supervisor", "heartbeat_s"),
    ("repro.serve.supervisor", "Supervisor", "mp_start_method"),
    ("repro.core.compiler", "compile_circuit", "verify"),
    ("repro.core.compiler", "compile_circuit", "segment_size"),
    ("repro.core.progcache", "compile_key", "segment_size"),
    ("repro.baselines.cpu_model", "CpuCostModel", "garble_factor"),
    ("repro.core.passes.streams", "ScheduleParams", "tie_break"),
    ("repro.analysis.dataprovider", "DataProvider", "cpu"),
    ("repro.analysis.dataprovider", "DataProvider", "plaintext"),
    ("repro.analysis.dataprovider", "DataProvider", "prog_cache"),
    ("repro.core.program", "HaacProgram.validate", "oor_allowed"),
    ("repro.serve.service", "SessionService.signals_handled", "signums"),
    # The receiver learns the sender's key from its reply step, points().
    ("repro.gc.ot", "OtReceiver", "sender_public"),
    # The fused drive garbles a level only when none is in flight.
    ("repro.gc.protocol", "StreamedDriver", "max_inflight_levels"),
    ("repro.serve.service", "SessionMultiplexer", "max_inflight_levels"),
    ("repro.serve.service", "SessionMultiplexer.submit", "max_inflight_levels"),
    # No model read it; config_signature still hashes its old value.
    ("repro.sim.config", "HaacConfig", "sww_read_stages"),
    # Table 4 is the 16 nm column; nothing picked another node.
    ("repro.hwmodel.area", "area_model", "node"),
    ("repro.hwmodel.power", "power_model", "node"),
    ("repro.hwmodel.energy", "energy_model", "power"),
    # Every driver takes (provider, quick) and runs its registered grid.
    ("repro.analysis.experiments", "table4_area_power", "config"),
    ("repro.analysis.experiments", "fig7_ordering_sww", "benchmarks"),
    ("repro.analysis.experiments", "fig7_ordering_sww", "sww_sizes"),
    ("repro.analysis.experiments", "fig8_ge_scaling", "ge_counts"),
    # The engine returns its stalls; nothing passes a breakdown in.
    ("repro.sim.engine", "compute_cycles_batch", "stalls_list"),
    ("repro.sim.engine", "compute_cycles_reference", "stalls"),
    # A merge keeps the local entry on a conflict.
    ("repro.store.resultstore", "ResultStore.merge", "policy"),
    # Plaintext time is at the workload's scaled size.
    ("repro.baselines.plaintext", "PlaintextModel.time_for", "n_bits"),
]

#: ``src/`` definitions that nothing in ``src/``, ``perf/`` or
#: ``examples/`` references and that stay anyway: a path prefix under
#: ``src/repro/`` (or ``path:qualname``) mapped to its reason.  At most
#: :data:`MAX_ALLOWLIST` entries, each with one of :data:`ALLOWLIST_REASONS`.
ALLOWLIST_REASONS = (
    "`perf/` calls it, ROADMAP item 16", "platform fallback",
    "library: the circuit combinators netlists are built from",
)
REACHABILITY_ALLOWLIST = {"circuits/stdlib/": ALLOWLIST_REASONS[2]}
MAX_ALLOWLIST = 15


def _unreferenced_definitions():
    """``path:qualname`` (path under ``src/repro/``) of every function,
    class, method and module-level assigned name under ``src/`` whose
    name nothing in ``src/``, ``perf/`` or ``examples/`` references.  A
    reference is a ``Name`` that is read (not assigned), an
    ``Attribute`` or a name imported outside an ``__init__.py``;
    strings and package re-exports do not count.  Dunder names are
    used implicitly and are skipped."""
    seen = set()
    for top in ("src", "perf", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    seen.update(alias.name for alias in node.names)
    unreferenced = []
    package = ROOT / "src" / "repro"

    def defined_names(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        if owner:  # class attributes are fields, not module names
            return []
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        return [target.id for target in targets if isinstance(target, ast.Name)]

    def visit(body, where, owner):
        for node in body:
            for name in defined_names(node, owner):
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in seen:
                    unreferenced.append(f"{where}:{owner}{name}")
            if isinstance(node, ast.ClassDef):
                visit(node.body, where, f"{owner}{node.name}.")

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, path.relative_to(package).as_posix(), "")
    return unreferenced

#: A numbered DESIGN.md citation: ``§N``, ``section N``, ``sections N
#: and M`` or a bare ``N.M`` after the file name.
_DESIGN_CITATION = re.compile(
    r"DESIGN\.md\s+(?:§\s*|sections?\s+)?"
    r"(\d+(?:\.\d+)?(?:(?:\s*,\s*|\s+and\s+)§?\d+(?:\.\d+)?)*)"
)


def _design_citations():
    """``(file:line, section)`` for every numbered DESIGN.md citation in
    ``src/``, ``tests/``, ``perf/``, ``.github/`` and ``.claude/``."""
    cited = []
    for top in ("src", "tests", "perf", ".github", ".claude"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for match in _DESIGN_CITATION.finditer(text):
                where = f"{path.relative_to(ROOT)}:{text.count(chr(10), 0, match.start()) + 1}"
                cited.extend(
                    (where, number)
                    for number in re.findall(r"\d+(?:\.\d+)?", match.group(1))
                )
    return cited


#: The environment variables ``src/`` may read: each names a directory or
#: a file.  A behaviour switch read from the environment is not allowed.
ALLOWED_ENV_READS = {
    "REPRO_PROG_CACHE", "REPRO_RESULT_STORE", "REPRO_SUPERVISOR_LOG",
    "XDG_CACHE_HOME",
}


def _env_reads():
    """``{variable: [file:line, ...]}`` for every environment read under
    ``src/``: the key of each ``os.environ.get`` / ``os.environ[...]`` /
    ``os.getenv`` call, resolved through the string constants it names.
    Any other use of ``os.environ`` / ``os.getenv``, or a key that does
    not resolve to string constants, fails the calling test."""
    trees = {
        path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assigned = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned[target.id].append(node.value)

    def names(expr, where):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        key = getattr(expr, "id", None) or getattr(expr, "attr", None)
        assert key in assigned, f"{where}: unresolved key {ast.unparse(expr)!r}"
        return set().union(*(names(value, where) for value in assigned[key]))

    def is_os(node, attr):
        return (
            isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        )

    reads, consumed = defaultdict(list), set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            environ = key = None
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "get" and is_os(
                    func.value, "environ"
                ):
                    environ, key = func.value, node.args[0]
                elif is_os(func, "getenv"):
                    environ, key = func, node.args[0]
            elif isinstance(node, ast.Subscript) and is_os(node.value, "environ"):
                environ, key = node.value, node.slice
            if environ is not None:
                where = f"{path}:{node.lineno}"
                consumed.add(id(environ))
                for name in names(key, where):
                    reads[name].append(where)
        for node in ast.walk(tree):
            touches = is_os(node, "environ") or is_os(node, "getenv") or (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and {"environ", "getenv"} & {alias.name for alias in node.names}
            )
            assert not touches or id(node) in consumed, (
                f"{path}:{node.lineno}: environment access that is not a "
                "keyed read"
            )
    return reads


def _sim_engine_reads():
    """``path:qualname`` (path under ``src/repro/``) of the enclosing
    function of every ``.sim_engine`` attribute read under ``src/``."""
    package = ROOT / "src" / "repro"
    reads = []

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where, f"{scope}{child.name}.")
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == "sim_engine"
                and isinstance(child.ctx, ast.Load)
            ):
                reads.append(f"{where}:{scope.rstrip('.')}")
            visit(child, where, scope)

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.relative_to(package).as_posix(), "")
    return reads


class TestDocumentation:
    def test_readme_exists_with_quickstart(self):
        readme = (ROOT / "README.md").read_text()
        assert "HAAC" in readme
        assert "pip install -e ." in readme
        assert "pytest tests/" in readme

    def test_design_doc_covers_experiments(self):
        design = (ROOT / "DESIGN.md").read_text()
        for experiment in ("Table 2", "Table 5", "Figure 6", "Figure 10"):
            assert experiment in design
        assert "Substitutions" in design

    def test_design_citations_name_existing_sections(self):
        """Every ``DESIGN.md §N`` / ``section N`` / ``N.M`` a source,
        test, CI or skill file cites is a heading of DESIGN.md, so a
        renumbering has to re-point its citations."""
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        headings = set(re.findall(r"^#{2,3} (\d+(?:\.\d+)?)\.?\s", design, re.M))
        cited = _design_citations()
        assert len(cited) > 20, "the citation scan found almost nothing"
        stale = [(where, number) for where, number in cited if number not in headings]
        assert not stale, f"DESIGN.md citations of missing sections: {stale}"

    def test_examples_shipped(self):
        examples = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert "quickstart.py" in examples
        assert len(examples) >= 3

    def test_paper_claims_cover_every_table_and_figure(self):
        from repro.analysis.figures import EXPERIMENT_DRIVERS

        claims = (ROOT / "tests" / "analysis" / "test_paper_claims.py").read_text()
        tests = re.findall(r"^def (test_\w+)\(", claims, flags=re.MULTILINE)
        for key in EXPERIMENT_DRIVERS:
            assert any(t.startswith(f"test_{key}_") for t in tests), (
                f"no paper-claim test for {key}"
            )

    def test_one_benchmark_entry_point(self, capsys):
        """``perf/run.py`` is the benchmark; no second one comes back."""
        from repro.cli import build_parser

        parser = build_parser()
        for retired in ("bench", "scenarios"):
            with pytest.raises(SystemExit):
                parser.parse_args([retired])
            assert "invalid choice" in capsys.readouterr().err
        assert not (ROOT / "benchmarks").exists()
        assert not list((ROOT / "scripts").glob("bench_*.py"))
        assert (ROOT / "perf" / "run.py").is_file()

    def test_documented_snippets_run(self, tmp_path, monkeypatch):
        """README's ``python`` blocks, in order and in one namespace (a
        later block reads an earlier one's names)."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # cache=True
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
        assert blocks
        namespace = {}
        for source in blocks:
            exec(compile(source, "<snippet>", "exec"), namespace)

    def test_package_quickstart_runs_alone(self, capsys):
        """The package docstring's ``Quickstart::``, in a fresh namespace:
        what a reader copies must import every name it uses."""
        quickstart = repro.__doc__.split("Quickstart::\n", 1)[1]
        exec(compile(textwrap.dedent(quickstart), "<quickstart>", "exec"), {})
        assert "runtime_us" in capsys.readouterr().out


class TestRetiredApi:
    """What was deleted stays deleted."""

    @pytest.mark.parametrize("module", [
        "repro.sim.multicore", "repro.sim.pipeline", "repro.sim.ge",
        "repro.gc.classic", "repro.gc.backends.scalar", "repro.gc.backends.base",
        "repro.serve.sockets", "repro.serve.mux", "repro.analysis.charts",
        "repro.analysis.schedule_search", "repro.hwmodel.technology",
    ])
    def test_module_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_config_has_no_prog_cache(self):
        from repro.sim.config import HaacConfig

        names = {f.name for f in dataclasses.fields(HaacConfig)}
        assert "prog_cache" not in names
        assert not hasattr(HaacConfig, "with_prog_cache")

    @pytest.mark.parametrize("field", ["gc_backend", "fault_spec"])
    def test_config_has_no_software_selector(self, field):
        from repro.sim.config import HaacConfig

        names = {f.name for f in dataclasses.fields(HaacConfig)}
        assert field not in names
        assert not hasattr(HaacConfig, f"with_{field}")

    @pytest.mark.parametrize("module, target, param", REMOVED_PARAMETERS)
    def test_removed_parameter_rejected(self, module, target, param):
        owner = importlib.import_module(module)
        for part in target.split("."):
            owner = getattr(owner, part)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{param}'"):
            owner(**{param: None})

    def test_key_expansions_gone(self):
        from repro.gc.evaluate import EvaluationResult
        from repro.gc.hashing import GateHasher

        assert not hasattr(GateHasher(), "key_expansions")
        assert "key_expansions" not in {
            f.name for f in dataclasses.fields(EvaluationResult)
        }

    def test_fault_env_var_injects_nothing(self, tiny_circuit, monkeypatch):
        from repro.gc.protocol import run_two_party

        monkeypatch.setenv("REPRO_FAULTS", "drop:1.0,seed=3")
        result = run_two_party(tiny_circuit, [1], [0])
        assert result.fault_events == []
        assert result.recovery_events == []

    def test_engine_env_var_selects_nothing(self, tiny_circuit, monkeypatch):
        from repro.core.compiler import compile_circuit
        from repro.sim.config import HaacConfig
        from repro.sim.timing import simulate

        config = HaacConfig(n_ges=2, sww_bytes=64 * 16)
        streams = compile_circuit(
            tiny_circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=False,
        ).streams
        want = simulate(streams, config).compute_cycles
        monkeypatch.setenv("REPRO_SIM_ENGINE", "bogus")
        assert simulate(streams, config).compute_cycles == want

    def test_sim_engine_read_only_by_the_dispatch(self):
        # One engine selector, read in one place: every timing model
        # reaches the reference replay through compute_cycles_batch.  The
        # config's own module may read it too (it validates the name).
        dispatch = "sim/engine.py:compute_cycles_batch"
        reads = _sim_engine_reads()
        assert dispatch in reads
        stray = [
            where for where in reads
            if where != dispatch and not where.startswith("sim/config.py:")
        ]
        assert not stray, f".sim_engine read outside the dispatch: {stray}"

    def test_simulate_has_no_engine_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["simulate", "ReLU", "--engine", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_config_rejects_an_unknown_engine(self):
        from repro.sim.config import HaacConfig

        with pytest.raises(ValueError, match="unknown sim_engine 'bogus'"):
            HaacConfig(sim_engine="bogus")

    def test_src_reads_no_behaviour_switch_from_the_environment(self):
        reads = _env_reads()
        assert set(reads) <= ALLOWED_ENV_READS, {
            name: where for name, where in reads.items()
            if name not in ALLOWED_ENV_READS
        }

    def test_progcache_has_no_shard_key(self):
        from repro.core import progcache

        assert not hasattr(progcache, "shard_key")
        assert "shard_key" not in progcache.__all__

    @pytest.mark.parametrize("module, name", [
        ("repro.sim", "CompiledArrays"),
        ("repro.sim", "compiled_arrays"),
        ("repro.sim.engine", "CompiledArrays"),
        ("repro.sim.engine", "compiled_arrays"),
        ("repro.analysis.dataprovider", "default_provider"),
        ("repro.workloads", "build_all_scaled"),
        ("repro.workloads.registry", "build_all_scaled"),
        ("repro.gc", "program_to_bytes"),
        ("repro.gc", "program_from_bytes"),
        ("repro.gc.serialize", "program_to_bytes"),
        ("repro.gc.serialize", "program_from_bytes"),
        ("repro.core", "compile_best"),
        ("repro.core.compiler", "compile_best"),
        ("repro.core", "encode_instruction"),
        ("repro.core", "decode_instruction"),
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.backends")
            for name in (
                "get_backend", "register_backend", "available_backends",
                "registered_backends", "LabelHashBackend", "BACKEND_ENV_VAR",
            )
        ],
        ("repro.gc.garble", "IntGarblerStore"),
        ("repro.gc.garble", "garbler_store"),
        ("repro.gc.evaluate", "IntEvaluatorStore"),
        ("repro.gc.evaluate", "evaluator_store"),
        *[
            ("repro.serve", name)
            for name in (
                "SocketWire", "make_socket_framed_pair", "close_framed_pair",
                "SupervisedSession", "ChaosPick",
            )
        ],
        ("repro.serve.supervisor", "SupervisedSession"),
        ("repro.serve.supervisor", "ChaosPick"),
        ("repro.gc.channel", "Channel"),
        ("repro.gc.channel", "ChannelPair"),
        ("repro.gc.channel", "make_channel_pair"),
        # No process-wide fault plan: each session's plan rides its own
        # wire or supervisor handle, and no store injects faults.
        *[
            ("repro.faults", name)
            for name in (
                "install", "active_plan", "active_log", "record_recovery",
                "PROCESS_FAULTS",
            )
        ],
        ("repro.faults.plan", "PROCESS_FAULTS"),
        # One engine selector, HaacConfig.sim_engine: no environment
        # switch and no resolver behind it.
        *[
            (module, name)
            for module in ("repro.sim", "repro.sim.engine")
            for name in (
                "engine_mode", "ENGINE_ENV_VAR", "ENGINE_NUMPY", "ENGINE_REFERENCE",
            )
        ],
        # One figure output: the CSV + Vega-Lite artifacts, no ASCII charts.
        ("repro.analysis", "grouped_bar_chart"),
        ("repro.analysis", "stacked_shares"),
        # One anchored component model: no node, no second breakdown.
        *[
            (module, name)
            for module in ("repro.hwmodel", "repro.hwmodel.area", "repro.hwmodel.power")
            for name in (
                "TSMC_16", "TSMC_28", "SCALE_28_TO_16",
                "AreaBreakdown", "PowerBreakdown",
            )
        ],
        # Constants only tests read: deleted, or moved beside those tests.
        *[
            (module, name)
            for module, names in (
                ("repro.baselines", ("GARBLE_OVERHEAD", "REKEY_OVERHEAD")),
                ("repro.baselines.cpu_model", ("GARBLE_OVERHEAD", "REKEY_OVERHEAD")),
                ("repro.core", ("OOR_SENTINEL",)),
                ("repro.core.isa", ("OOR_SENTINEL",)),
                (
                    "repro.gc.halfgate",
                    ("GARBLER_HASHES_PER_AND", "EVALUATOR_HASHES_PER_AND"),
                ),
            )
            for name in names
        ],
        # One exponentiation primitive (ot._powmod): no fixed-base
        # tables, no forked sender split.
        *[
            ("repro.gc.ot", name)
            for name in (
                "_FixedBaseTable", "_generator_table", "_GENERATOR_TABLES",
                "_pow_batch", "_pow_split_ok", "_POW_SPLIT_MIN", "_POWER_BYTES",
                "_FORK_WARNING",
            )
        ],
        # Oracles and fixtures that no entry point runs: moved to tests/
        # (tests/gc/oracles.py, tests/core/scalar_isa.py, tests/conftest.py)
        # or deleted with the tests of their own behaviour.
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.garble")
            for name in ("garble_circuit",)
        ],
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.evaluate")
            for name in ("evaluate_circuit",)
        ],
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.halfgate")
            for name in ("garble_and", "garble_xor", "garble_not", "eval_not")
        ],
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.aes")
            for name in (
                "decrypt_block", "encrypt_block_reference", "aes128", "INV_S_BOX",
                "_block_to_state", "_state_to_block", "_add_round_key",
                "_sub_bytes", "_shift_rows", "_inv_shift_rows", "_mix_columns",
                "_inv_mix_columns",
            )
        ],
        *[
            (module, name)
            for module in ("repro.gc", "repro.gc.labels")
            for name in (
                "LabelPair", "GlobalOffset", "xor_labels", "label_to_bytes",
                "bytes_to_label",
            )
        ],
        ("repro.gc", "run_ot"),
        ("repro.gc.ot", "run_ot"),
        ("repro.gc", "fixed_key_hash"),
        ("repro.gc.hashing", "fixed_key_hash"),
        *[
            (module, name)
            for module, names in (
                ("repro.baselines", ("cpu_gc_time_s", "plaintext_time_s")),
                ("repro.baselines.cpu_model", ("cpu_gc_time_s",)),
                ("repro.baselines.plaintext", ("plaintext_time_s",)),
                ("repro.core", ("InstructionEncoding",)),
                ("repro.core.isa", ("InstructionEncoding", "encode_fields")),
                ("repro.sim", ("compute_traffic",)),
                ("repro.sim.timing", ("compute_traffic", "compute_traffic_batch")),
                ("repro.workloads", ("iter_workloads",)),
                ("repro.workloads.registry", ("iter_workloads",)),
            )
            for name in names
        ],
        # One coupled model (coupled_runtime_batch), one decoupled batch
        # entry (compute_cycles_batch); the per-instruction coupled loop
        # is the oracle of tests/sim/scalar_coupled.py.
        ("repro.sim", "coupled_runtime"),
        ("repro.sim.coupled", "coupled_runtime"),
        ("repro.sim.coupled", "_per_instruction_bytes"),
        ("repro.sim.engine", "compute_cycles_numpy_batched"),
        ("repro.sim.engine", "_stalls_for"),
        # Paper constants no table reads: the GPU rate sits beside its
        # claim test, the paper's own rate is prose.
        *[
            (module, name)
            for module in ("repro.baselines", "repro.baselines.prior_work")
            for name in ("GPU_GATES_PER_US", "HAAC_PAPER_GATES_PER_US")
        ],
    ])
    def test_name_gone(self, module, name):
        module = importlib.import_module(module)
        assert not hasattr(module, name)
        assert name not in module.__all__

    @pytest.mark.parametrize("module, cls, name", [
        # Helpers nothing called: the callers use the named alternative.
        ("repro.faults.errors", "RecoveryLog", "as_dicts"),
        ("repro.workloads.base", "BuiltWorkload", "run_reference"),
        ("repro.workloads.base", "Workload", "build_paper_scale"),
        ("repro.baselines.cpu_model", "CpuCostModel", "garble_time_s"),
        ("repro.core.isa", "HaacOp", "is_gate"),
        ("repro.gc.garble", "Garbler", "wire_label"),
        # The per-bit OT and the odd-block draw: the oracles' own
        # (tests/gc/oracles.py).
        ("repro.gc.ot", "OtSender", "encrypt"),
        ("repro.gc.ot", "OtReceiver", "choose"),
        ("repro.gc.ot", "OtReceiver", "decrypt"),
        ("repro.gc.rng", "LabelPrg", "next_odd_block"),
        # Unreached helpers: moved to the tests that used them, or gone.
        ("repro.gc.hashing", "GateHasher", "reset"),
        ("repro.gc.garble", "GarbledCircuit", "table_bytes"),
        ("repro.gc.channel", "FramedPair", "traffic_report"),
        ("repro.circuits.netlist", "Gate", "eval"),
        ("repro.circuits.netlist", "CircuitStats", "as_row"),
        ("repro.circuits.netlist", "Circuit", "fanout"),
        ("repro.circuits.netlist", "Circuit", "from_gates"),
        ("repro.circuits.stdlib.float", "FloatFormat", "ref_relu"),
        ("repro.core.isa", "Instruction", "oor_operands"),
        ("repro.core.passes.esw", "EswReport", "live_pct"),
        ("repro.core.passes.streams", "GeStreams", "encode_machine_words"),
        ("repro.core.sww", "SlidingWindow", "window_end"),
        ("repro.core.sww", "SlidingWindow", "contains"),
        ("repro.core.sww", "SlidingWindow", "eviction_frontier"),
        ("repro.faults.errors", "RecoveryLog", "signature"),
        ("repro.faults.plan", "FaultPlan", "reset"),
        ("repro.faults.plan", "FaultPlan", "signature"),
        ("repro.hwmodel.area", "ComponentBreakdown", "total_with_phy"),
        ("repro.sim.config", "HaacConfig", "with_ges"),
        ("repro.sim.config", "HaacConfig", "with_sww_bytes"),
        ("repro.sim.config", "HaacConfig", "paper_hbm"),
        ("repro.sim.coupled", "CoupledResult", "slowdown_vs_decoupled"),
        ("repro.sim.dram", "DramSpec", "seconds_for"),
        ("repro.sim.stats", "SimResult", "gates_per_second"),
        ("repro.store.entries", "EntryStore", "entry_count"),
        ("repro.workloads.base", "Workload", "scaled_plaintext_ops"),
        # Second spellings of ScheduleParams() and ScheduleParams(and_latency=21).
        ("repro.core.passes.streams", "ScheduleParams", "evaluator"),
        ("repro.core.passes.streams", "ScheduleParams", "garbler"),
        # A merge always keeps the local entry: nothing is replaced.
        ("repro.store.resultstore", "MergeReport", "replaced"),
    ])
    def test_method_gone(self, module, cls, name):
        owner = getattr(importlib.import_module(module), cls)
        assert not hasattr(owner, name)

    def test_gc_never_forks(self):
        # The OT exponentiations run in-process, on libcrypto or builtin
        # pow: no module under repro.gc forks.
        import ast
        import pathlib

        import repro.gc

        for path in pathlib.Path(repro.gc.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            forks = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and "fork" in node.attr
            ]
            assert forks == [], f"{path.name} forks at lines {forks}"

    def test_no_custom_session_wire(self, capsys):
        # Every session rides the in-memory framed pair or, under the
        # supervisor, the party processes' socket: no pre-built wire.
        import inspect

        from repro.cli import build_parser
        from repro.gc.protocol import StreamedDriver
        from repro.serve import SessionMultiplexer

        assert "pair" not in inspect.signature(StreamedDriver).parameters
        assert "pair" not in inspect.signature(SessionMultiplexer.submit).parameters
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--transport", "socket"])
        assert "invalid choice" in capsys.readouterr().err

    # Every session entry point runs the streamed roles: no monolithic
    # exchange, and no switch to pick it.
    def test_session_has_no_monolithic_run(self):
        from repro.gc.protocol import TwoPartySession

        assert not hasattr(TwoPartySession, "run")

    def test_run_two_party_has_no_streamed_switch(self):
        import inspect

        from repro.gc.protocol import run_two_party

        assert "streamed" not in inspect.signature(run_two_party).parameters

    def test_session_result_has_no_streamed_field(self):
        from repro.gc.protocol import SessionResult

        names = {f.name for f in dataclasses.fields(SessionResult)}
        assert "streamed" not in names

    def test_protocol_has_no_stream_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["protocol", "--stream"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        # One command prints or emits the tables/figures: `figures`.
        pytest.param(
            ["experiments", "all", "--quick"], "invalid choice: 'experiments'",
            id="experiments",
        ),
        # The fused drive has one level window: lockstep.
        pytest.param(
            ["serve", "--window", "2"], "unrecognized arguments: --window",
            id="serve-window",
        ),
        # A store merge keeps local entries on a conflict.
        pytest.param(
            ["store", "merge", "src", "--policy", "theirs"],
            "unrecognized arguments: --policy", id="store-merge-policy",
        ),
    ])
    def test_retired_command_line(self, argv, error, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err

    def test_plaintext_ops_have_no_defaults(self):
        # Each workload's scaled size is written once, in scaled_params.
        import inspect

        from repro.workloads import WORKLOADS

        assert len(WORKLOADS) == 8
        for name, workload in WORKLOADS.items():
            params = inspect.signature(workload.plaintext_ops).parameters
            assert all(p.default is p.empty for p in params.values()), name

    def test_fault_plan_has_no_tear_cache(self):
        from repro.faults import FAULT_KINDS, FaultPlan
        from repro.store.entries import EntryStore

        assert not hasattr(FaultPlan, "tear_cache")
        assert "tear_cache" not in FAULT_KINDS
        assert not hasattr(EntryStore, "_maybe_tear")

    def test_gc_does_not_import_core(self):
        # The garbling substrate stands below the compiler: the one ISA
        # encoder lives in repro.core, never in a gc byte format.
        offenders = [
            path.name for path in (ROOT / "src" / "repro" / "gc").rglob("*.py")
            if re.search(r"from \.\.core|repro\.core", path.read_text())
        ]
        assert not offenders

    @pytest.mark.parametrize("name", MODULES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"


class TestReachability:
    """``src/`` holds what an entry point runs: an oracle or a fixture
    only a test uses lives under ``tests/``."""

    def test_every_src_definition_is_referenced(self):
        unreached = [
            name for name in _unreferenced_definitions()
            if not any(name.startswith(entry) for entry in REACHABILITY_ALLOWLIST)
        ]
        assert not unreached, (
            "defined under src/ but referenced by nothing in src/, perf/ or "
            f"examples/ (move it to tests/ or delete it): {unreached}"
        )

    def test_allowlist_is_short_reasoned_and_live(self):
        assert len(REACHABILITY_ALLOWLIST) <= MAX_ALLOWLIST
        assert set(REACHABILITY_ALLOWLIST.values()) <= set(ALLOWLIST_REASONS)
        unreached = _unreferenced_definitions()
        stale = [
            entry for entry in REACHABILITY_ALLOWLIST
            if not any(name.startswith(entry) for name in unreached)
        ]
        assert not stale, f"allowlist entries that cover nothing: {stale}"


class TestPyproject:
    """``pyproject.toml`` is the declared dependency set CI installs."""

    @pytest.fixture(scope="class")
    def pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        return tomllib.loads((ROOT / "pyproject.toml").read_text())

    def test_version_is_the_package_version(self, pyproject):
        # Not a second copy of the number: read from the package.
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert pyproject["tool"]["setuptools"]["package-dir"] == {"": "src"}

    def test_declares_numpy_python_floor_and_src_layout(self, pyproject):
        project = pyproject["project"]
        assert project["name"] == "repro"
        assert project["requires-python"] == ">=3.10"
        assert any(dep.startswith("numpy") for dep in project["dependencies"])
        assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
        assert (ROOT / "src" / "repro" / "__init__.py").is_file()

    def test_readme_and_ci_use_the_declared_set(self):
        assert "NumPy is required" in (ROOT / "README.md").read_text()
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "pip install -e ." in ci


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name) is not None

    def test_headline_api_reachable(self):
        from repro.sim import HaacConfig, simulate  # noqa: F401
        from repro.workloads import get_workload  # noqa: F401
        from repro.gc import run_two_party  # noqa: F401
        from repro.core import compile_circuit  # noqa: F401

    def test_public_modules_have_docstrings(self):
        missing = [
            name for name in MODULES
            if not (importlib.import_module(name).__doc__ or "").strip()
        ]
        assert not missing, f"modules without docstrings: {missing}"
