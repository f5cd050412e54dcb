"""Names, units, bounds and run rules shared by ``run.py`` and ``compare.py``.

``BENCHMARK.json`` at the repository root is the published contract; this
module adds what its fixed schema cannot hold: which workloads a metric
applies to, and the metrics that are zero on some workload and therefore
cannot sit in its ``end_to_end`` list (see ``perf/README.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables removed from the measured process, so the
#: shipped defaults (backend "auto", engine numpy, no caches, no faults)
#: are what is measured.
SCRUBBED_ENV = (
    "REPRO_GC_BACKEND",
    "REPRO_GC_WORKERS",
    "REPRO_SIM_ENGINE",
    "REPRO_PROG_CACHE",
    "REPRO_RESULT_STORE",
    "REPRO_FAULTS",
)

#: Fresh processes set up per untraced run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: Timed ops per untraced run never fall below this, whatever ``--seconds``.
MIN_OPS = 5
#: Traced run: this many of the traced ops are each preceded by the same op
#: untraced, the base of ``trace_overhead_share``.
TRACE_BASE_OPS = 3
#: Share of an op's wall the spans may leave unexplained at full scale.
UNATTRIBUTED_LIMIT = 0.05
#: Seconds after which a measured process is killed.
CHILD_TIMEOUT_S = 170

#: ``host_probe()`` on the host the first numbers were taken on, when quiet.
#: Published times are walls times ``PROBE_NOMINAL_S / probe``: seconds at
#: that speed (see "Host speed" in perf/README.md).
PROBE_NOMINAL_S = 0.047

#: Bound that only an identical value satisfies.
EXACT = 1e-9

COMPILE = ("compile_cold", "sweep_warm")


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    #: Share of the other side's value by which this may be worse.
    bound: float
    #: Workloads the metric exists on; ``None`` means all of them.
    workloads: Optional[Tuple[str, ...]] = None

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "op_min_s": Metric("s", "lower", 0.25),
    "first_level_min_s": Metric("s", "lower", 0.25),
    "wire_bytes": Metric("B", "lower", EXACT),
    "sim_cycles": Metric("cycles", "lower", EXACT, COMPILE),
    "cache_entry_mb": Metric("MB", "lower", 0.02, ("sweep_warm",)),
    "peak_rss_mb": Metric("MB", "lower", 0.10),
    "failed_share": Metric("ratio", "lower", 0.0),
}


def load() -> dict:
    """The published contract, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
