"""Off-chip memory models (paper section 5).

HAAC converts *all* off-chip movement to streams, so the first-order
DRAM model is a bandwidth pipe: DDR4-4400 at 35.2 GB/s (chosen to match
the benchmarked CPU) and an HBM2 PHY at 512 GB/s.  A streaming transfer
of B bytes takes ``B / bandwidth`` seconds; random-access penalties never
arise because the OoRW push architecture eliminates pull-based accesses
(paper section 3.1.4).

:class:`BandwidthLedger` tracks bytes by stream class so the traffic
breakdown of Table 3 / Figure 7 can be reported exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["DramSpec", "DDR4", "HBM2", "BandwidthLedger", "STREAMS"]

_GB = 1e9

#: The stream classes a :class:`BandwidthLedger` accepts.
STREAMS = ("input_rd", "instr_rd", "table_rd", "oorw_rd", "live_wr")


def check_finite_positive(owner, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``owner`` is a
    finite number above zero (NaN and infinity are rejected)."""
    for name in names:
        value = getattr(owner, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class DramSpec:
    """A streaming memory technology."""

    name: str
    bandwidth_gb_s: float

    def __post_init__(self) -> None:
        check_finite_positive(self, "bandwidth_gb_s")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gb_s * _GB


DDR4 = DramSpec(name="DDR4-4400", bandwidth_gb_s=35.2)
HBM2 = DramSpec(name="HBM2", bandwidth_gb_s=512.0)


@dataclass
class BandwidthLedger:
    """Off-chip byte accounting by stream class for one execution."""

    bytes_by_stream: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int), init=False
    )
    """Bytes per stream, filled only by :meth:`charge` (not a
    constructor argument).  ``sim/timing.py`` charges the five
    :data:`STREAMS` (any other name raises ``ValueError``):
    ``input_rd`` (16 B per primary input), ``instr_rd``
    (``instr_bytes`` per instruction), ``table_rd`` (32 B per AND),
    ``oorw_rd`` (16 B label + 4 B address per OoR operand) and
    ``live_wr`` (16 B per live wire, the only write stream)."""

    def charge(self, stream: str, n_bytes: int) -> None:
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}; expected one of {STREAMS}")
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        self.bytes_by_stream[stream] += n_bytes

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_stream.values())

    @property
    def read_bytes(self) -> int:
        return sum(
            count
            for stream, count in self.bytes_by_stream.items()
            if stream != "live_wr"
        )

    @property
    def write_bytes(self) -> int:
        return self.bytes_by_stream.get("live_wr", 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.bytes_by_stream)
