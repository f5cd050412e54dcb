"""Version-controlled figure pipeline: CSV + Vega-Lite from the DataProvider.

All-text artifact generation in the ProjectScylla style: every paper
table/figure becomes a deterministic ``.csv`` (tables 1-5, fig 6-10)
and, for the five figures, a Vega-Lite ``.vl.json`` spec with the data
inlined.  Both are committed under ``figures/`` and regenerated in CI
through the :class:`~repro.analysis.dataprovider.DataProvider` -- a
diff against the committed files is the honesty guard that no value was
hardcoded outside the provider path.

Determinism rules:

* every number is serialized with :func:`format_number` (17 significant
  digits -- round-trip exact for IEEE doubles, no locale, no
  scientific-notation surprises for ints);
* JSON is dumped with ``sort_keys=True`` and a fixed indent;
* rows keep driver order (which is itself deterministic: registry
  order x fixed grids).

So two runs from the same :class:`~repro.store.ResultStore` contents
are byte-identical, and a warm store regenerates the full set with zero
compiles and zero replays.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from .dataprovider import DataProvider
from . import experiments as exp
from .experiments import ExperimentResult

__all__ = [
    "FIGURE_SPECS",
    "EXPERIMENT_DRIVERS",
    "emit_all",
    "emit_csv",
    "emit_vega_lite",
    "format_number",
    "render_csv",
    "vega_lite_spec",
]

#: Vega-Lite schema version pinned into every spec.
_VL_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"


#: name -> driver(provider, quick) -> ExperimentResult, in paper order.
#: The single registry: ``repro figures``, the figure pipeline and the
#: golden-file tests all iterate over it.
EXPERIMENT_DRIVERS: Dict[str, Callable[[DataProvider, bool], ExperimentResult]] = {
    "table1": exp.table1_ppc_comparison,
    "table2": exp.table2_characteristics,
    "table3": exp.table3_wire_traffic,
    "table4": exp.table4_area_power,
    "table5": exp.table5_prior_work,
    "fig6": exp.fig6_compiler_opts,
    "fig7": exp.fig7_ordering_sww,
    "fig8": exp.fig8_ge_scaling,
    "fig9": exp.fig9_energy,
    "fig10": exp.fig10_plaintext,
}


def format_number(value: Any) -> str:
    """Deterministic text form of one cell (17 sig. digits for floats)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        text = format(value, ".17g")
        return text
    return str(value)


def render_csv(result: ExperimentResult) -> str:
    """RFC-4180-ish CSV: header row, quoted only where needed."""

    def cell(value: Any) -> str:
        text = format_number(value)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(h) for h in result.headers)]
    for row in result.rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _long_rows(
    result: ExperimentResult, keys: Sequence[str], value_cols: Sequence[str],
    var_name: str, value_name: str,
) -> List[Dict[str, Any]]:
    """Wide driver rows -> long-form records for Vega-Lite encodings."""
    index = {h: i for i, h in enumerate(result.headers)}
    records: List[Dict[str, Any]] = []
    for row in result.rows:
        base = {k: row[index[k]] for k in keys}
        for col in value_cols:
            rec = dict(base)
            rec[var_name] = col
            rec[value_name] = row[index[col]]
            records.append(rec)
    return records


def _spec_fig6(result: ExperimentResult) -> Dict[str, Any]:
    values = _long_rows(
        result, ["Benchmark"], ["Baseline", "RO+RN", "RO+RN+ESW"],
        "config", "speedup",
    )
    return {
        "$schema": _VL_SCHEMA,
        "title": result.name,
        "data": {"values": values},
        "mark": "bar",
        "encoding": {
            "x": {"field": "Benchmark", "type": "nominal", "sort": None},
            "xOffset": {"field": "config", "type": "nominal"},
            "y": {
                "field": "speedup", "type": "quantitative",
                "scale": {"type": "log"},
                "title": "speedup over CPU GC",
            },
            "color": {"field": "config", "type": "nominal"},
        },
    }


def _spec_fig7(result: ExperimentResult) -> Dict[str, Any]:
    values = _long_rows(
        result, ["Benchmark", "Order", "SWW(KB)"],
        ["Compute(us)", "WireTraffic(us)"], "component", "time_us",
    )
    return {
        "$schema": _VL_SCHEMA,
        "title": result.name,
        "data": {"values": values},
        "mark": "bar",
        "encoding": {
            "column": {"field": "Benchmark", "type": "nominal"},
            "x": {"field": "SWW(KB)", "type": "ordinal"},
            "xOffset": {"field": "Order", "type": "nominal"},
            "y": {
                "field": "time_us", "type": "quantitative",
                "title": "time (us)",
            },
            "color": {"field": "component", "type": "nominal"},
            "opacity": {"field": "Order", "type": "nominal"},
        },
    }


def _spec_fig8(result: ExperimentResult) -> Dict[str, Any]:
    ge_cols = [h for h in result.headers if h.endswith("GE")]
    long_rows = _long_rows(
        result, ["Benchmark", "DRAM"], ge_cols, "ges", "speedup"
    )
    for rec in long_rows:
        rec["ges"] = int(rec["ges"][:-2])
    return {
        "$schema": _VL_SCHEMA,
        "title": result.name,
        "data": {"values": long_rows},
        "mark": {"type": "line", "point": True},
        "encoding": {
            "x": {"field": "ges", "type": "quantitative", "scale": {"type": "log", "base": 2}},
            "y": {
                "field": "speedup", "type": "quantitative",
                "scale": {"type": "log"},
                "title": "speedup over CPU GC",
            },
            "color": {"field": "Benchmark", "type": "nominal"},
            "strokeDash": {"field": "DRAM", "type": "nominal"},
        },
    }


def _spec_fig9(result: ExperimentResult) -> Dict[str, Any]:
    values = _long_rows(
        result, ["Benchmark"],
        ["Half-Gate%", "Crossbar%", "SRAM%", "Others%", "HBM2 PHY%"],
        "component", "share_pct",
    )
    return {
        "$schema": _VL_SCHEMA,
        "title": result.name,
        "data": {"values": values},
        "mark": "bar",
        "encoding": {
            "x": {"field": "Benchmark", "type": "nominal", "sort": None},
            "y": {
                "field": "share_pct", "type": "quantitative",
                "stack": "normalize",
                "title": "energy share",
            },
            "color": {"field": "component", "type": "nominal"},
        },
    }


def _spec_fig10(result: ExperimentResult) -> Dict[str, Any]:
    values = _long_rows(
        result, ["Benchmark"], ["CPU GC", "HAAC DDR4", "HAAC HBM2"],
        "system", "slowdown",
    )
    return {
        "$schema": _VL_SCHEMA,
        "title": result.name,
        "data": {"values": values},
        "mark": "bar",
        "encoding": {
            "x": {"field": "Benchmark", "type": "nominal", "sort": None},
            "xOffset": {"field": "system", "type": "nominal"},
            "y": {
                "field": "slowdown", "type": "quantitative",
                "scale": {"type": "log"},
                "title": "slowdown vs plaintext",
            },
            "color": {"field": "system", "type": "nominal"},
        },
    }


#: fig name -> spec builder.  Tables get CSV only.
FIGURE_SPECS: Dict[str, Callable[[ExperimentResult], Dict[str, Any]]] = {
    "fig6": _spec_fig6,
    "fig7": _spec_fig7,
    "fig8": _spec_fig8,
    "fig9": _spec_fig9,
    "fig10": _spec_fig10,
}


def vega_lite_spec(name: str, result: ExperimentResult) -> Dict[str, Any]:
    """The Vega-Lite spec (data inlined) for one figure driver."""
    return FIGURE_SPECS[name](result)


def emit_csv(result: ExperimentResult, path: Path) -> None:
    path.write_text(render_csv(result), encoding="utf-8")


def emit_vega_lite(name: str, result: ExperimentResult, path: Path) -> None:
    spec = vega_lite_spec(name, result)
    path.write_text(
        json.dumps(spec, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def emit_all(
    out_dir: Path,
    provider: DataProvider,
    quick: bool,
    only: Optional[Sequence[str]] = None,
) -> List[Path]:
    """Regenerate every committed figure artifact under ``out_dir``.

    Returns the written paths (CSV for all ten experiments, plus a
    ``.vl.json`` Vega-Lite spec for fig6-fig10).  One shared provider
    means design points common to several figures are computed once and
    served from the store thereafter.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, driver in EXPERIMENT_DRIVERS.items():
        if only is not None and name not in only:
            continue
        result = driver(provider, quick)
        csv_path = out_dir / f"{name}.csv"
        emit_csv(result, csv_path)
        written.append(csv_path)
        if name in FIGURE_SPECS:
            vl_path = out_dir / f"{name}.vl.json"
            emit_vega_lite(name, result, vl_path)
            written.append(vl_path)
    return written
