"""Figure pipeline: deterministic serialization + golden-file regen."""

from __future__ import annotations

import inspect
import json
import pathlib

from repro.analysis.dataprovider import DataProvider
from repro.analysis.experiments import ExperimentResult
from repro.analysis.figures import (
    EXPERIMENT_DRIVERS,
    FIGURE_SPECS,
    emit_all,
    format_number,
    render_csv,
    vega_lite_spec,
)
from repro.store import ResultStore

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
FIGURES_DIR = ROOT / "figures"
BUNDLE = pathlib.Path(__file__).parent / "data" / "resultstore_quick.bundle.json"


class TestSerialization:
    def test_floats_round_trip_exactly(self):
        for value in (0.1, 1 / 3, 198321.0000001, 2.0**-40, 76.25):
            assert float(format_number(value)) == value

    def test_ints_and_strings_pass_through(self):
        assert format_number(42) == "42"
        assert format_number("BubbSt") == "BubbSt"
        assert format_number(True) == "True"

    def test_csv_quotes_only_where_needed(self):
        result = ExperimentResult(
            name="t",
            headers=["Name", "Value"],
            rows=[["plain", 1], ['with,"both', 0.5]],
        )
        assert render_csv(result) == (
            'Name,Value\nplain,1\n"with,""both",0.5\n'
        )

    def test_registry_holds_the_drivers_themselves(self):
        """Every driver has the one shape ``(provider, quick)``, so the
        registry needs no adapter."""
        for driver in EXPERIMENT_DRIVERS.values():
            assert driver.__module__ == "repro.analysis.experiments"
            assert list(inspect.signature(driver).parameters) == ["provider", "quick"]

    def test_fig_specs_cover_exactly_the_figures(self):
        assert set(FIGURE_SPECS) == {
            name for name in EXPERIMENT_DRIVERS if name.startswith("fig")
        }

    def test_vega_lite_spec_inlines_long_form_data(self):
        result = ExperimentResult(
            name="Figure 6",
            headers=["Benchmark", "Baseline", "RO+RN", "RO+RN+ESW"],
            rows=[["DotProd", 1.0, 2.0, 4.0]],
        )
        spec = vega_lite_spec("fig6", result)
        assert spec["$schema"].startswith("https://vega.github.io/schema")
        values = spec["data"]["values"]
        assert len(values) == 3  # one record per config column
        assert {v["config"] for v in values} == {
            "Baseline", "RO+RN", "RO+RN+ESW"
        }
        json.dumps(spec)  # must be serializable as committed


class TestGoldenFiles:
    """The committed ``figures/`` artifacts are the honesty guard: a
    warm store regenerates all of them byte-identically with zero
    compiles and zero replays, so no value can live outside the
    DataProvider path."""

    def test_golden_regen_byte_identical_and_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        merged = store.merge(BUNDLE)
        assert merged.added > 0 and merged.corrupt == 0

        provider = DataProvider(store=store)
        out_dir = tmp_path / "figures"
        written = emit_all(out_dir, provider=provider, quick=True)

        committed = sorted(
            p.name
            for p in FIGURES_DIR.iterdir()
            if p.suffix != ".md"  # the directory README is not an artifact
        )
        assert sorted(p.name for p in written) == committed
        for path in written:
            assert path.read_bytes() == (
                FIGURES_DIR / path.name
            ).read_bytes(), f"{path.name} drifted from the committed artifact"
        # Zero live work: every number came through the store.
        assert provider.replays == 0
        assert provider.compiles == 0
