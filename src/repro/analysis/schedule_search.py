"""Schedule search over the shared dependence graph (DESIGN.md 14.4).

The compiler's greedy GE mapping is one point in a schedule space the
shared dependence-graph IR makes cheap to explore, in the population-
search spirit of MOCSA (PAPERS.md): every candidate is re-scored by the
timing simulator, and "performance is deterministic" (paper section
4.2.1) makes the scores exact, not estimates.

**Neighborhood.**  A candidate is ``(opt, segment_size, tie_break)``:

* ``opt`` -- the four reordering configurations (``ro_rn``, ``seg_rn``,
  ``ro_rn_esw``, ``seg_rn_esw``).  ``baseline`` is excluded: without
  renaming the SWW is ineffectual and its schedules are never
  competitive (the paper's Figure 6 gap).
* ``segment_size`` -- for segmented reorders: half (the paper's
  choice), a quarter, or an eighth of the SWW wire capacity.
* ``tie_break`` -- the greedy scheduler's choice among GEs freeing at
  the same cycle (:data:`repro.core.passes.streams.TIE_BREAKS`); only
  this axis re-maps GEs *without* changing the instruction order.

Each generation mutates the incumbent best along **one axis at a
time** (first-improvement hill climbing over a bounded neighborhood);
the search stops when a generation yields no improvement, the
neighborhood is exhausted, or ``generations`` is reached.

**Scoring.**  Every candidate is compiled at the target config's own
latencies (only its tie-break differs), so ``simulate`` reads its
cycles off the compile's schedule: a closed form over
``streams.issue_cycle``, no replay.  The compile is the whole cost of
a candidate.  Compiles route through the
persistent program cache when one is configured, and the tie-break is
part of the cache key (CACHE_SCHEMA v4), so re-running a search is
warm end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits.netlist import Circuit
from ..core.compiler import CacheSpec, OptLevel, compile_circuit
from ..core.passes.streams import TIE_BREAKS, ScheduleParams
from ..sim.config import HaacConfig
from ..sim.timing import simulate

__all__ = [
    "ScheduleCandidate",
    "ScoredSchedule",
    "ScheduleSearchResult",
    "search_schedule",
    "SEARCH_OPT_LEVELS",
    "SEGMENT_DIVISORS",
]

#: Reordering configurations the search explores (baseline excluded --
#: no renaming means no SWW locality to trade).
SEARCH_OPT_LEVELS = (
    OptLevel.RO_RN_ESW,
    OptLevel.SEG_RN_ESW,
    OptLevel.RO_RN,
    OptLevel.SEG_RN,
)

#: Segment sizes tried for segmented reorders, as capacity divisors:
#: half (the paper's choice), quarter, eighth.
SEGMENT_DIVISORS = (2, 4, 8)


@dataclass(frozen=True)
class ScheduleCandidate:
    """One point of the schedule neighborhood."""

    opt: OptLevel
    tie_break: str = "producer"
    segment_size: Optional[int] = None  # None: the opt's default (half)

    def effective_segment(self, capacity: int) -> Optional[int]:
        if not self.opt.segmented:
            return None
        return self.segment_size or capacity // 2

    def key(self, capacity: int) -> Tuple[str, str, Optional[int]]:
        return (self.opt.value, self.tie_break, self.effective_segment(capacity))

    def label(self, capacity: int) -> str:
        parts = [self.opt.value]
        segment = self.effective_segment(capacity)
        if segment is not None:
            parts.append(f"seg={segment}")
        parts.append(f"tie={self.tie_break}")
        return " ".join(parts)


@dataclass
class ScoredSchedule:
    """A compiled-and-replayed candidate."""

    candidate: ScheduleCandidate
    compute_cycles: int
    traffic_cycles: float
    runtime_cycles: float
    makespan: int
    generation: int

    def speedup_vs(self, reference_runtime: float) -> float:
        if self.runtime_cycles == 0:
            return float("inf")
        return reference_runtime / self.runtime_cycles


@dataclass
class ScheduleSearchResult:
    """Ranked outcome of one search run."""

    workload: str
    greedy: ScoredSchedule
    ranked: List[ScoredSchedule]  # best first, includes greedy
    generations_run: int
    evaluated: int

    @property
    def best(self) -> ScoredSchedule:
        return self.ranked[0]

    @property
    def best_beats_greedy(self) -> bool:
        return self.best.runtime_cycles < self.greedy.runtime_cycles


def _neighborhood(
    best: ScheduleCandidate, capacity: int
) -> List[ScheduleCandidate]:
    """Single-axis mutations of ``best`` (bounded, deterministic order)."""
    neighbors: List[ScheduleCandidate] = []
    for tie in TIE_BREAKS:
        if tie != best.tie_break:
            neighbors.append(
                ScheduleCandidate(best.opt, tie, best.segment_size)
            )
    for opt in SEARCH_OPT_LEVELS:
        if opt is not best.opt:
            neighbors.append(ScheduleCandidate(opt, best.tie_break, None))
    if best.opt.segmented:
        current = best.effective_segment(capacity)
        for divisor in SEGMENT_DIVISORS:
            segment = max(1, capacity // divisor)
            if segment != current:
                neighbors.append(
                    ScheduleCandidate(best.opt, best.tie_break, segment)
                )
    return neighbors


def _score(
    circuit: Circuit,
    config: HaacConfig,
    candidate: ScheduleCandidate,
    generation: int,
    cache: CacheSpec,
) -> ScoredSchedule:
    base = config.schedule_params()
    params = ScheduleParams(
        and_latency=base.and_latency,
        xor_latency=base.xor_latency,
        cross_ge_forward=base.cross_ge_forward,
        tie_break=candidate.tie_break,
    )
    result = compile_circuit(
        circuit,
        config.window,
        config.n_ges,
        opt=candidate.opt,
        params=params,
        segment_size=candidate.effective_segment(config.window.capacity),
        cache=cache,
    )
    sim = simulate(result.streams, config)
    return ScoredSchedule(
        candidate=candidate,
        compute_cycles=sim.compute_cycles,
        traffic_cycles=sim.traffic_cycles,
        runtime_cycles=sim.runtime_cycles,
        makespan=result.streams.makespan,
        generation=generation,
    )


def search_schedule(
    circuit: Circuit,
    config: HaacConfig,
    start_opt: OptLevel = OptLevel.RO_RN_ESW,
    generations: int = 4,
    cache: CacheSpec = None,
    workload: str = "",
) -> ScheduleSearchResult:
    """Hill-climb the schedule neighborhood from the greedy default.

    Generation 0 scores the paper-faithful greedy schedule
    (``start_opt``, producer tie-break, default segment); each later
    generation scores the incumbent's single-axis mutations and moves
    to the best strict improvement.  Returns every evaluated schedule
    ranked by simulated runtime (ties: compute cycles, then label).
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    capacity = config.window.capacity
    greedy_candidate = ScheduleCandidate(opt=start_opt)
    greedy = _score(circuit, config, greedy_candidate, 0, cache)

    seen: Dict[Tuple[str, str, Optional[int]], ScoredSchedule] = {
        greedy_candidate.key(capacity): greedy
    }
    best = greedy
    generations_run = 0
    for generation in range(1, generations + 1):
        fresh = [
            candidate
            for candidate in _neighborhood(best.candidate, capacity)
            if candidate.key(capacity) not in seen
        ]
        if not fresh:
            break
        generations_run = generation
        scored = [
            _score(circuit, config, candidate, generation, cache)
            for candidate in fresh
        ]
        for entry in scored:
            seen[entry.candidate.key(capacity)] = entry
        challenger = min(scored, key=lambda s: s.runtime_cycles)
        if challenger.runtime_cycles < best.runtime_cycles:
            best = challenger
        else:
            break

    # Ties rank by discovery order (generation), so the greedy baseline
    # stays on top unless strictly beaten.
    ranked = sorted(
        seen.values(),
        key=lambda s: (
            s.runtime_cycles,
            s.compute_cycles,
            s.generation,
            s.candidate.label(capacity),
        ),
    )
    return ScheduleSearchResult(
        workload=workload or circuit.name,
        greedy=greedy,
        ranked=ranked,
        generations_run=generations_run,
        evaluated=len(seen),
    )
