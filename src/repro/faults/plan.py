"""Deterministic, seed-driven fault injection plans.

A :class:`FaultPlan` is parsed from a compact spec string::

    drop:0.05,corrupt:0.01,seed=7
    tamper:0.1,delay:0.2,seed=3
    kill_party,sever:0.5

Each ``name:probability`` entry arms one fault class; a bare ``name``
arms it at probability 1.0; a kind or ``seed=`` named twice is an
error.  ``seed=N`` seeds the plan's private ``random.Random`` so the
*entire* chaos run is reproducible: the protocol drive is
single-threaded and consults the plan in a fixed order, so identical
specs produce identical injected-fault sequences and (by extension)
identical recovery ledgers.

Fault classes
-------------
Each boundary that injects faults accepts only the kinds it can act
on, and :func:`resolve_fault_plan` rejects any other kind with
:class:`~repro.faults.FaultKindUnsupported` before the session runs.

Frame faults (applied by the lossy wire as frames are pushed; the
kinds in-process sessions accept):

``drop``       discard the frame entirely
``corrupt``    flip one byte anywhere in the encoded frame (CRC catches it)
``truncate``   cut the frame short (structural decode failure)
``tamper``     flip a payload byte *and* recompute the CRC -- survives
               per-frame checks and is only caught by the end-of-session
               transcript digest exchange
``duplicate``  deliver the frame twice
``delay``      hold the frame back a few delivery slots
``reorder``    swap the frame with the previously queued one

Process-scope chaos (the kinds :class:`repro.serve.Supervisor`, the
``process`` transport, accepts; one mutating kind per attempt,
priority ``kill_party`` > ``sever`` > ``stall``):

``kill_party``  SIGKILL one party worker mid-session
``sever``       shut down the inter-party socket mid-session
``stall``       one party stops making progress (the deadline watchdog
                must kill it)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import FaultKindUnsupported

__all__ = [
    "FRAME_FAULTS",
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
#: Whole-process chaos kinds, applied per session *attempt* by the
#: out-of-process supervisor (priority order: a kill beats a sever
#: beats a stall when several arm on the same attempt).
PROCESS_CHAOS = ("kill_party", "sever", "stall")
FAULT_KINDS = FRAME_FAULTS + PROCESS_CHAOS


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
    so ``plan.injected`` is the ground truth for determinism tests.  A
    session never draws from the caller's object, but from its own copy
    (:func:`resolve_fault_plan`).
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

    def chaos_kinds(self, site: str = "supervisor") -> List[str]:
        """Process-chaos kinds arming for one session attempt.

        Mirrors :meth:`frame_faults`: every kind draws unconditionally
        so the RNG stream depends only on the call sequence.  The
        supervisor applies at most one (priority order of
        ``PROCESS_CHAOS``)."""
        return [kind for kind in PROCESS_CHAOS if self._arm(site, kind)]

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
    seed: Optional[int] = None
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("seed="):
            if seed is not None:
                raise ValueError(f"fault seed given twice in {spec!r}")
            try:
                seed = int(part[len("seed="):], 0)
            except ValueError as exc:
                raise ValueError(f"bad fault seed in {part!r}") from exc
            continue
        name, _, rate_text = part.partition(":")
        name = name.strip()
        if name in rates:
            raise ValueError(f"fault kind {name!r} given twice in {spec!r}")
        if rate_text:
            try:
                rate = float(rate_text)
            except ValueError as exc:
                raise ValueError(f"bad fault rate in {part!r}") from exc
        else:
            rate = 1.0
        rates[name] = rate
    return FaultPlan(rates, seed=seed or 0)


def resolve_fault_plan(
    spec: Union[None, str, FaultPlan],
    accepted: Tuple[str, ...],
    boundary: str,
) -> Optional[FaultPlan]:
    """Resolve the fault plan for a session handed to ``boundary``.

    ``None`` means no injection and returns ``None``.  Every other call
    builds a fresh plan at the top of its schedule -- from a given plan
    too, copying its rates and seed -- so two sessions never share RNG
    state or injection log.  A plan arming a kind outside ``accepted``
    (the kinds ``boundary`` can inject) raises
    :class:`~repro.faults.FaultKindUnsupported`.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        plan = parse_fault_spec(spec)
    elif isinstance(spec, FaultPlan):
        plan = FaultPlan(spec.rates, seed=spec.seed)
    else:
        raise TypeError(f"fault spec must be str, FaultPlan or None: {spec!r}")
    for kind in plan.rates:
        if kind not in accepted:
            raise FaultKindUnsupported(
                f"fault kind {kind!r} cannot be injected by {boundary}; "
                f"it accepts: {', '.join(accepted)}"
            )
    return plan
