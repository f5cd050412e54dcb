#!/usr/bin/env python3
"""Apply the benchmark's bounds to two result files of ``perf/run.py``.

``python perf/compare.py A.json B.json`` prints one row per (workload,
end-to-end metric): A is the parent (or the first set of runs), B the
change (or the second set).  Verdicts:

``identical``   an exact metric (``wire_bytes``, ``sim_cycles``) that repeats
``unchanged``   B is no worse than A by more than the bound
``unresolved``  as above, but the min-max spread of either side exceeds the
                bound, so the two cannot be told apart
``better``      B is better than A by more than the bound, and either the
                spreads are within it or every B sample beats every A sample
``WORSE``       B is worse than A by more than the bound: a violation
``FAILED``      a side has ``failed_share`` > 0: a violation

Exits 1 on any violation, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.contract import END_TO_END, EXACT, Metric  # noqa: E402


def _spread(entry: dict) -> float:
    if "min" not in entry or not entry["value"]:
        return 0.0
    return (entry["max"] - entry["min"]) / abs(entry["value"])


def verdict(metric: Metric, a: dict, b: dict) -> Tuple[str, bool]:
    """The row's verdict and whether it is a violation."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if metric.bound <= EXACT:
        return ("identical", False) if worse_by == 0 else ("WORSE", True)
    allowed = metric.bound * abs(a["value"])
    if worse_by > allowed:
        return "WORSE", True
    wide = max(_spread(a), _spread(b)) > metric.bound
    if worse_by < -allowed:
        separated = "min" in a and "min" in b and (
            b["max"] < a["min"] if sign > 0 else b["min"] > a["max"]
        )
        return ("better" if separated or not wide else "unresolved"), False
    return ("unresolved" if wide else "unchanged"), False


def compare(a_doc: dict, b_doc: dict) -> Tuple[List[str], int]:
    rows = [
        f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14}{'change':>9}"
        f"{'bound':>8}  verdict"
    ]
    violations = 0
    for workload, a_result in a_doc["workloads"].items():
        b_result = b_doc["workloads"].get(workload)
        if b_result is None:
            continue
        for name, metric in END_TO_END.items():
            a = a_result["end_to_end"].get(name)
            b = b_result["end_to_end"].get(name)
            if a is None or b is None or not metric.applies(workload):
                continue
            if name == "failed_share":
                bad = a["value"] > 0 or b["value"] > 0
                text = "FAILED" if bad else "unchanged"
            else:
                text, bad = verdict(metric, a, b)
            violations += bad
            change = (
                f"{100 * (b['value'] - a['value']) / a['value']:+8.1f}%"
                if a["value"] else f"{'':>9}"
            )
            bound = "exact" if metric.bound <= EXACT else f"{100 * metric.bound:.0f}%"
            rows.append(
                f"{workload:<18}{name:<20}{a['value']:>14.6g}{b['value']:>14.6g}"
                f"{change}{bound:>8}  {text}"
            )
    return rows, violations


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("scale", "seconds"):
        if a_doc.get(key) != b_doc.get(key):
            print(f"note: {key} differs: {a_doc.get(key)} vs {b_doc.get(key)}")
    rows, violations = compare(a_doc, b_doc)
    print("\n".join(rows))
    print(f"{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
