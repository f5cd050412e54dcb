"""Packaging and documentation sanity: the repo ships what it claims."""

import pathlib
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
        from repro.sim import HaacConfig, run_haac  # noqa: F401
        from repro.workloads import get_workload  # noqa: F401
        from repro.gc import run_two_party  # noqa: F401
        from repro.core import compile_circuit  # noqa: F401

    def test_public_modules_have_docstrings(self):
        import importlib
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"
