"""Deterministic, seed-driven fault injection plans.

A :class:`FaultPlan` is parsed from a compact spec string::

    drop:0.05,corrupt:0.01,seed=7
    tamper:0.1,delay:0.2,seed=3
    kill_party,tear_cache:0.5

Each ``name:probability`` entry arms one fault class; a bare ``name``
arms it at probability 1.0.  ``seed=N`` seeds the plan's private
``random.Random`` so the *entire* chaos run is reproducible: the
protocol drive is single-threaded and consults the plan in a fixed
order, so identical specs produce identical injected-fault sequences
and (by extension) identical recovery ledgers.

Fault classes
-------------
Frame faults (applied by the lossy wire as frames are pushed):

``drop``       discard the frame entirely
``corrupt``    flip one byte anywhere in the encoded frame (CRC catches it)
``truncate``   cut the frame short (structural decode failure)
``tamper``     flip a payload byte *and* recompute the CRC -- survives
               per-frame checks and is only caught by the end-of-session
               transcript digest exchange
``duplicate``  deliver the frame twice
``delay``      hold the frame back a few delivery slots
``reorder``    swap the frame with the previously queued one

Storage faults (consulted via :func:`repro.faults.active_plan`):

``tear_cache``   corrupt a store entry file just before it is read

Process-scope chaos (consulted by :class:`repro.serve.Supervisor` for
sessions on the ``process`` transport; one mutating kind per attempt,
priority ``kill_party`` > ``sever`` > ``stall``):

``kill_party``  SIGKILL one party worker mid-session
``sever``       shut down the inter-party socket mid-session
``stall``       one party stops making progress (the deadline watchdog
                must kill it)
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "FRAME_FAULTS",
    "PROCESS_FAULTS",
    "PROCESS_CHAOS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_spec",
    "resolve_fault_plan",
]

FRAME_FAULTS = (
    "drop",
    "corrupt",
    "truncate",
    "tamper",
    "duplicate",
    "delay",
    "reorder",
)
PROCESS_FAULTS = ("tear_cache",)
#: Whole-process chaos kinds, applied per session *attempt* by the
#: out-of-process supervisor (priority order: a kill beats a sever
#: beats a stall when several arm on the same attempt).
PROCESS_CHAOS = ("kill_party", "sever", "stall")
FAULT_KINDS = FRAME_FAULTS + PROCESS_FAULTS + PROCESS_CHAOS

_ENV_SPEC = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (what the plan *did*, not what survived)."""

    seq: int
    site: str  # e.g. "garbler->evaluator#12", "cache:<digest>"
    kind: str

    def as_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "site": self.site, "kind": self.kind}


class FaultPlan:
    """Seeded fault schedule shared by one chaos run.

    The plan owns a private RNG; every probability draw both decides
    whether to inject and appends a :class:`FaultEvent` when it does,
    so ``plan.signature()`` is the ground truth for determinism tests.
    Call :meth:`reset` (sessions do this on entry) to replay the same
    schedule from the top.
    """

    def __init__(self, rates: Dict[str, float], seed: int = 0) -> None:
        for name, rate in rates.items():
            if name not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {name!r}; known: {', '.join(FAULT_KINDS)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate for {name!r} out of [0, 1]: {rate}")
        self.rates = dict(rates)
        self.seed = seed
        self.injected: List[FaultEvent] = []
        self._rng = random.Random(seed)

    def reset(self) -> None:
        """Rewind to the start of the schedule (same seed, empty log)."""
        self._rng = random.Random(self.seed)
        self.injected = []

    def _arm(self, site: str, kind: str) -> bool:
        rate = self.rates.get(kind, 0.0)
        # Draw unconditionally so the stream of RNG consumption -- and
        # therefore every later decision -- depends only on the call
        # sequence, not on which kinds happen to be armed.
        hit = self._rng.random() < rate
        if hit:
            self.injected.append(
                FaultEvent(seq=len(self.injected), site=site, kind=kind)
            )
        return hit

    def frame_faults(self, site: str) -> List[str]:
        """Fault kinds to apply to the frame being pushed at ``site``."""
        return [kind for kind in FRAME_FAULTS if self._arm(site, kind)]

    def choose_offset(self, span: int) -> int:
        """Deterministic byte/slot offset for a mutation (0..span-1)."""
        if span <= 0:
            return 0
        return self._rng.randrange(span)

    def tear_cache(self, site: str = "cache") -> bool:
        return self._arm(site, "tear_cache")

    def chaos_kinds(self, site: str = "supervisor") -> List[str]:
        """Process-chaos kinds arming for one session attempt.

        Mirrors :meth:`frame_faults`: every kind draws unconditionally
        so the RNG stream depends only on the call sequence.  The
        supervisor applies at most one (priority order of
        ``PROCESS_CHAOS``)."""
        return [kind for kind in PROCESS_CHAOS if self._arm(site, kind)]

    def signature(self) -> List[Tuple[str, str]]:
        """Order-sensitive (site, kind) pairs for determinism asserts."""
        return [(e.site, e.kind) for e in self.injected]

    def spec(self) -> str:
        """Round-trippable spec string for this plan."""
        parts = [f"{name}:{rate:g}" for name, rate in sorted(self.rates.items())]
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r})"


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse ``"drop:0.05,tamper:0.1,seed=7"`` into a :class:`FaultPlan`."""
    rates: Dict[str, float] = {}
    seed = 0
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):], 0)
            except ValueError as exc:
                raise ValueError(f"bad fault seed in {part!r}") from exc
            continue
        name, _, rate_text = part.partition(":")
        name = name.strip()
        if rate_text:
            try:
                rate = float(rate_text)
            except ValueError as exc:
                raise ValueError(f"bad fault rate in {part!r}") from exc
        else:
            rate = 1.0
        if name not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {name!r}; known: {', '.join(FAULT_KINDS)}"
            )
        rates[name] = rate
    return FaultPlan(rates, seed=seed)


def resolve_fault_plan(
    spec: Union[None, str, FaultPlan] = None,
) -> Optional[FaultPlan]:
    """Resolve the active fault plan for a session.

    Precedence: an explicit plan/spec argument, then the
    ``REPRO_FAULTS`` environment variable.  Returns ``None`` (no
    injection) when neither is set.  A fresh plan is built from spec strings on every call so
    two sessions never share RNG state by accident.
    """
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        return parse_fault_spec(spec)
    if spec is not None:
        raise TypeError(f"fault spec must be str, FaultPlan or None: {spec!r}")
    env_spec = os.environ.get(_ENV_SPEC)
    if env_spec:
        return parse_fault_spec(env_spec)
    return None
