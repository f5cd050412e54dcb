"""Shared compiled-array replay engine for all timing models.

The decoupled, coupled, pull-based and multicore models all consume one
config-independent flattening of a compiled :class:`StreamSet`
(:class:`CompiledArrays`) instead of re-walking dataclasses per gate.
The default engine is NumPy *level-parallel*: it retires whole
dependence wavefronts as array operations -- the software mirror of the
paper's level-scheduling insight that instructions in one wavefront have
no ordering constraints.

Two engines, selected by ``REPRO_SIM_ENGINE`` (or
``HaacConfig.sim_engine``, which wins when set):

* ``numpy`` -- the default.  Instructions
  are partitioned once per :class:`StreamSet` into dependence levels
  (:meth:`CompiledArrays.ensure_levels`, a config-independent pure
  function persisted through :mod:`repro.core.progcache`); the replay
  then walks level by level, computing operand readiness with bulk
  ``np.maximum`` gathers, in-order issue with a segmented prefix-max
  per GE, and window-sync eviction checks as one array gather.
  ``model_bank_conflicts`` runs on the reference replay below (its
  while-loop port arbitration is inherently sequential).
* ``reference`` -- the straightforward per-gate replay (dataclass
  attribute walks, dicts), the oracle the equivalence suite diffs the
  numpy engine against and the one implementation of bank conflicts.

Both produce bit-identical cycle counts, stall breakdowns and per-GE
issue counts (asserted by ``tests/sim/test_engine_equivalence`` for
every stdlib family at every opt level; bank-conflict replays are
pinned by ``tests/sim/test_bank_conflict_golden``).

The numpy engine additionally offers a *batched config axis*
(:func:`compute_cycles_numpy_batched`, dispatched through
:func:`compute_cycles_batch`): every config-dependent scalar of the
replay gains a leading ``C`` axis so one pass over the dependence
levels retires all C configs of a scenario sweep simultaneously --
each row bit-identical to its serial replay.  The single-config replay
stays beside it on purpose: one config run as a C = 1 batched row is
about 2x slower (DESIGN.md section 8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.isa import HaacOp
from ..core.passes.streams import StreamSet
from .config import HaacConfig
from .stats import StallBreakdown

__all__ = [
    "ENGINE_ENV_VAR",
    "ENGINE_NUMPY",
    "ENGINE_REFERENCE",
    "CompiledArrays",
    "engine_mode",
    "compiled_arrays",
    "compute_cycles",
    "compute_cycles_batch",
    "compute_cycles_numpy",
    "compute_cycles_numpy_batched",
    "compute_cycles_reference",
]

ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"
ENGINE_NUMPY = "numpy"
ENGINE_REFERENCE = "reference"
_ARRAYS_ATTR = "_engine_arrays"
_PLAN_ATTR = "_numpy_plan"
#: Per-segment bias decoupling the level-wide prefix max (see
#: compute_cycles_numpy).  Any replay reaching 2**45 cycles would need
#: trillions of instructions; the engine asserts the bound post-replay.
_SEG_BIAS = 1 << 45


def engine_mode(override: Optional[str] = None) -> str:
    """Active engine, resolved at call time.

    ``override`` (``HaacConfig.sim_engine``) wins over the
    ``REPRO_SIM_ENGINE`` environment variable when set.  ``numpy`` (the
    default when unset or empty) is the level-parallel array replay;
    ``reference`` the per-gate oracle the equivalence suite diffs it
    against.  Any other name raises :class:`ValueError`.
    """
    raw = override if override is not None else os.environ.get(ENGINE_ENV_VAR, "")
    raw = raw.strip().lower()
    if raw in ("", ENGINE_NUMPY):
        return ENGINE_NUMPY
    if raw == ENGINE_REFERENCE:
        return ENGINE_REFERENCE
    raise ValueError(
        f"unknown {ENGINE_ENV_VAR}={raw!r}; expected "
        f"'{ENGINE_NUMPY}' or '{ENGINE_REFERENCE}'"
    )


@dataclass
class CompiledArrays:
    """Config-independent flat arrays for one compiled :class:`StreamSet`.

    Index ``p`` of every list corresponds to instruction ``p`` in
    program order (the ISA writes wire ``n_inputs + p``).  ``oor_a`` /
    ``oor_b`` are the stream generator's per-GE OoR flags scattered back
    to program order; ``oor_per_ge`` counts each GE's OoRW queue length.

    ``level_of`` is the dependence-level partition consumed by the NumPy
    engine (None until :meth:`ensure_levels` runs).  Like everything
    else here it is a pure function of the stream set, so it is computed
    at most once and -- because these arrays ride along when a
    :class:`~repro.core.compiler.CompileResult` is pickled into the
    persistent program cache -- warm runs load it instead of rebuilding.
    Fields stay stdlib sequences (``array('q')`` operand columns,
    ``bytearray`` flag columns, plain lists), the layout the pickled
    cache entry stores.
    """

    n_inputs: int
    n_wires: int
    n_ges: int
    capacity: int
    a_of: Sequence[int]
    b_of: Sequence[int]
    ge_of: List[int]
    is_and: bytearray
    live: bytearray
    oor_a: bytearray
    oor_b: bytearray
    issue_cycle: List[int]
    oor_per_ge: List[int]
    level_of: Optional[List[int]] = None
    n_levels: int = 0

    @property
    def n_instructions(self) -> int:
        return len(self.a_of)

    def ensure_levels(self) -> "CompiledArrays":
        """Compute (once) the dependence-level partition.

        A projection of the shared dependence graph's schedule-aware
        level partition (:func:`repro.core.depgraph.engine_levels` --
        the single definition of the data, window-sync WAW, OoR
        reader-after-evictor and in-order-issue edges the level replay
        must respect).  Persisted with the arrays through the program
        cache, so warm runs never recompute it.
        """
        if self.level_of is not None:
            return self
        from ..core.depgraph import engine_levels

        self.level_of, self.n_levels = engine_levels(
            self.n_inputs,
            self.capacity,
            self.a_of,
            self.b_of,
            self.ge_of,
            self.n_ges,
        )
        return self

    def __getstate__(self):
        # The derived NumPy plan holds ndarray views; keep it out of
        # pickles (the persistent program cache) -- it rebuilds from
        # level_of in O(n) array ops.
        state = dict(self.__dict__)
        state.pop(_PLAN_ATTR, None)
        return state


def compiled_arrays(streams: StreamSet) -> CompiledArrays:
    """Build (or fetch the memoized) flat arrays for ``streams``.

    The arrays are a pure function of the stream set, so they are
    cached on the instance -- every timing model run against the same
    compile result shares one flattening pass.
    """
    cached = getattr(streams, _ARRAYS_ATTR, None)
    if cached is not None:
        return cached
    program = streams.program
    # The shared dependence graph's operand / op columns and its
    # memoized OoR flags (the exact flags stream generation used), the
    # program's live column and the schedule lists are all adopted by
    # reference, so a pickled cache entry stores one copy of each.
    graph = streams.depgraph
    oor_a, oor_b = graph.oor_flags(streams.window.capacity)
    arrays = CompiledArrays(
        n_inputs=program.n_inputs,
        n_wires=program.n_wires,
        n_ges=streams.n_ges,
        capacity=streams.window.capacity,
        a_of=graph.a_of,
        b_of=graph.b_of,
        ge_of=streams.ge_of,
        is_and=graph.is_and,
        live=program.live,
        oor_a=oor_a,
        oor_b=oor_b,
        issue_cycle=streams.issue_cycle,
        oor_per_ge=[len(ge.oor_addresses) for ge in streams.ges],
    )
    setattr(streams, _ARRAYS_ATTR, arrays)
    return arrays


def compute_cycles(
    streams: StreamSet, config: HaacConfig, stalls: StallBreakdown
) -> Tuple[int, Dict[int, int]]:
    """Replay the per-GE streams; returns (cycles, issued per GE).

    Dispatches on :func:`engine_mode` (``config.sim_engine`` overriding
    the environment); both engines implement the exact same model (see
    the module docstring of :mod:`repro.sim.timing`) and return
    identical results.
    """
    if _on_level_replay(config):
        return compute_cycles_numpy(compiled_arrays(streams), config, stalls)
    return compute_cycles_reference(streams, config, stalls)


def _on_level_replay(config: HaacConfig) -> bool:
    # Bank-conflict arbitration is a per-cycle while loop over shared
    # port budgets -- inherently sequential, so it runs on the reference
    # replay whichever engine is selected.
    return (engine_mode(config.sim_engine) == ENGINE_NUMPY
            and not config.model_bank_conflicts)


class _NumpyPlan:
    """Derived, config-independent NumPy view of one ``CompiledArrays``.

    Everything the level replay gathers per level, precomputed once in
    dependence-level order (stable sort by ``(level, ge, position)``) so
    the per-level work is pure array slicing.  Cached unpickled (see
    ``CompiledArrays.__getstate__``) because it rebuilds in O(n) array
    ops from the persisted ``level_of``.
    """

    __slots__ = (
        "order",
        "a_s",
        "b_s",
        "ab_s",
        "out_s",
        "evict_idx_s",
        "fwd_a_cost",
        "fwd_b_cost",
        "is_and_s",
        "k_seg",
        "bias_s",
        "level_bounds",
        "seg_bounds",
        "seg_rel_first",
        "seg_rel_last",
        "seg_ge",
        "level_has_evict",
        "level_multi_seg",
        "max_width",
        "issued_per_ge",
        "_latency_cache",
        # program-order arrays for the coupled model's prefetch replay
        "is_and_p",
        "live_p",
        "oor_a_p",
        "oor_b_p",
        "issue_cycle_p",
    )

    def __init__(self, arrays: "CompiledArrays") -> None:
        arrays.ensure_levels()
        n = arrays.n_instructions
        n_inputs = arrays.n_inputs
        level = np.asarray(arrays.level_of, dtype=np.int64)
        ge = np.asarray(arrays.ge_of, dtype=np.int64)
        a = np.asarray(arrays.a_of, dtype=np.int64)
        b = np.asarray(arrays.b_of, dtype=np.int64)
        # Stable (level, ge, position) order: contiguous levels, and
        # within a level one contiguous program-ordered run per GE.
        order = np.lexsort((ge, level))
        self.order = order
        a_s = a[order]
        b_s = b[order]
        ge_s = ge[order]
        level_s = level[order]
        self.a_s = a_s
        self.b_s = b_s
        # Interleaved (a, b) wire ids: one scatter-max updates both
        # operands' last-read cycles per level.
        ab_s = np.empty(2 * n, dtype=np.int64)
        ab_s[0::2] = a_s
        ab_s[1::2] = b_s
        self.ab_s = ab_s
        self.out_s = order + n_inputs
        evicted = self.out_s - arrays.capacity
        # Wires whose slot is never overwritten gather a sentinel slot
        # (index n_wires) that no instruction ever reads/writes, so the
        # replay needs no per-level mask.
        self.evict_idx_s = np.where(evicted >= 0, evicted, arrays.n_wires)
        # Cross-GE forwarding applies when the operand has a producer
        # (wire >= n_inputs) on a different GE -- both facts are
        # config-independent; the penalty is scaled in at replay time.
        producer_a = ge[np.maximum(a_s - n_inputs, 0)]
        producer_b = ge[np.maximum(b_s - n_inputs, 0)]
        self.fwd_a_cost = ((a_s >= n_inputs) & (producer_a != ge_s)).astype(np.int64)
        self.fwd_b_cost = ((b_s >= n_inputs) & (producer_b != ge_s)).astype(np.int64)
        self.is_and_s = np.asarray(arrays.is_and, dtype=bool)[order]

        counts = np.bincount(level, minlength=max(arrays.n_levels, 1))
        level_bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.level_bounds = level_bounds
        self.max_width = int(counts.max()) if n else 0
        # Segments: runs of equal (level, ge) in sorted order.
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = (ge_s[1:] != ge_s[:-1]) | (level_s[1:] != level_s[:-1])
        seg_first = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        seg_last = np.concatenate((seg_first[1:], [n])) - 1 if n else seg_first
        self.k_seg = np.arange(n, dtype=np.int64) - seg_first[seg_id]
        # Per-level segment table: seg_bounds[l]:seg_bounds[l+1] indexes
        # the per-segment arrays below; seg_rel_* are segment start/end
        # positions relative to their level slice, seg_ge the owning GE.
        seg_level = level_s[seg_first]
        seg_counts = np.bincount(seg_level, minlength=max(arrays.n_levels, 1))
        self.seg_bounds = np.concatenate(
            ([0], np.cumsum(seg_counts))
        ).astype(np.int64)
        self.seg_rel_first = seg_first - level_bounds[seg_level]
        self.seg_rel_last = seg_last - level_bounds[seg_level]
        self.seg_ge = ge_s[seg_first]
        # Prefix-max segment decoupling bias (see compute_cycles_numpy):
        # segment ordinal within its level, scaled by a constant far
        # above any reachable cycle count (validated after each replay).
        seg_in_level = seg_id - self.seg_bounds[level_s]
        self.bias_s = seg_in_level * _SEG_BIAS
        has_evict_counts = np.bincount(
            level_s, weights=(evicted >= 0), minlength=max(arrays.n_levels, 1)
        )
        self.level_has_evict = has_evict_counts > 0
        self.level_multi_seg = (self.seg_bounds[1:] - self.seg_bounds[:-1]) > 1
        self.issued_per_ge = np.bincount(ge, minlength=arrays.n_ges)
        self._latency_cache = {}

        self.is_and_p = np.asarray(arrays.is_and, dtype=bool)
        self.live_p = np.asarray(arrays.live, dtype=bool)
        self.oor_a_p = np.asarray(arrays.oor_a, dtype=bool)
        self.oor_b_p = np.asarray(arrays.oor_b, dtype=bool)
        self.issue_cycle_p = np.asarray(arrays.issue_cycle, dtype=np.int64)


def numpy_plan(arrays: CompiledArrays) -> _NumpyPlan:
    """Build (or fetch the memoized) level-order NumPy plan."""
    plan = getattr(arrays, _PLAN_ATTR, None)
    if plan is None:
        plan = _NumpyPlan(arrays)
        setattr(arrays, _PLAN_ATTR, plan)
    return plan


def compute_cycles_numpy(
    arrays: CompiledArrays, config: HaacConfig, stalls: StallBreakdown
) -> Tuple[int, Dict[int, int]]:
    """Level-parallel replay: one batch of array ops per dependence level.

    Semantics are identical to the reference replay; the sequencing
    argument:

    * Operand readiness and the window-sync gather only read per-wire
      state written by *strictly earlier* levels (guaranteed by
      :meth:`CompiledArrays.ensure_levels`), so ``value_ready`` /
      ``last_read_issue`` are gathered for a whole level at once.
    * In-order issue within a level is a per-GE recurrence
      ``issue_k = max(issue_{k-1} + 1, ready_k)`` over each GE's
      program-ordered run.  Substituting ``s_k = ready_k - k`` turns it
      into a running max (``issue_k = k + max(s_0..s_k, base)``), i.e. a
      *segmented* ``np.maximum.accumulate`` -- segments are decoupled by
      biasing each GE's run with ``segment_ordinal * 2**45``, a constant
      far above any reachable cycle count (asserted after the replay),
      so one accumulate serves the whole level.
    * Stall attribution replays the scalar rules exactly:
      ``dependence`` counts ``ready - earliest_inorder`` and
      ``window_sync`` the further bump past ``max(earliest, ready)``,
      both recovered from the shifted issue vector; the per-instruction
      terms land in two scratch vectors summed once at the end.
    """
    n = arrays.n_instructions
    if n == 0:
        return 0, {}
    plan = numpy_plan(arrays)

    and_latency = config.and_latency
    xor_latency = config.xor_latency
    forward = config.cross_ge_forward
    writeback = config.writeback_stages

    latency_s = plan._latency_cache.get((and_latency, xor_latency))
    if latency_s is None:
        latency_s = np.where(plan.is_and_s, and_latency, xor_latency)
        plan._latency_cache[(and_latency, xor_latency)] = latency_s
    fwd_a = plan.fwd_a_cost * forward if forward != 1 else plan.fwd_a_cost
    fwd_b = plan.fwd_b_cost * forward if forward != 1 else plan.fwd_b_cost

    value_ready = np.zeros(arrays.n_wires + 1, dtype=np.int64)
    last_read = np.zeros(arrays.n_wires + 1, dtype=np.int64)
    ge_last_issue = np.full(arrays.n_ges, -1, dtype=np.int64)
    dep_terms = np.zeros(n, dtype=np.int64)
    ws_terms = np.zeros(n, dtype=np.int64)
    read2 = np.empty(2 * plan.max_width, dtype=np.int64)

    level_bounds = plan.level_bounds
    seg_bounds = plan.seg_bounds
    seg_rel_first = plan.seg_rel_first
    seg_rel_last = plan.seg_rel_last
    seg_ge = plan.seg_ge
    for li in range(arrays.n_levels):
        s = level_bounds[li]
        e = level_bounds[li + 1]
        a = plan.a_s[s:e]
        b = plan.b_s[s:e]
        k = plan.k_seg[s:e]

        ready = np.maximum(value_ready[a] + fwd_a[s:e],
                           value_ready[b] + fwd_b[s:e])
        data_avail = ready
        if plan.level_has_evict[li]:
            ws = last_read[plan.evict_idx_s[s:e]]
            ready = np.maximum(data_avail, ws)
        else:
            ws = None

        # Segmented prefix max for the in-order recurrence.
        sp = ready - k
        seg_lo = seg_bounds[li]
        seg_hi = seg_bounds[li + 1]
        starts = seg_rel_first[seg_lo:seg_hi]
        base = ge_last_issue[seg_ge[seg_lo:seg_hi]] + 1
        sp[starts] = np.maximum(sp[starts], base)
        if plan.level_multi_seg[li]:
            bias = plan.bias_s[s:e]
            issue = np.maximum.accumulate(sp + bias) - bias
        else:
            issue = np.maximum.accumulate(sp)
        issue += k

        # earliest_inorder: previous issue + 1 inside a segment, the
        # GE's cross-level last issue + 1 at segment starts.
        earliest = np.empty_like(issue)
        earliest[1:] = issue[:-1] + 1
        earliest[starts] = base
        np.subtract(data_avail, earliest, out=dep_terms[s:e])
        if ws is not None:
            np.subtract(ws, np.maximum(earliest, data_avail), out=ws_terms[s:e])

        value_ready[plan.out_s[s:e]] = issue + latency_s[s:e]
        read = issue + 1
        # The write is its out wire's first slot access (virgin entry:
        # data levels put every reader strictly later), so plain
        # assignment matches the reference replay's WAW ordering.
        last_read[plan.out_s[s:e]] = read
        pair = read2[: 2 * (e - s)]
        pair[0::2] = read
        pair[1::2] = read
        np.maximum.at(last_read, plan.ab_s[2 * s:2 * e], pair)
        ends = seg_rel_last[seg_lo:seg_hi]
        ge_last_issue[seg_ge[seg_lo:seg_hi]] = issue[ends]

    # finish(p) = issue + latency + writeback; issue + latency is what
    # the scatter above stored per out wire.
    max_finish = int(value_ready[arrays.n_inputs:arrays.n_inputs + n].max())
    max_finish += writeback
    assert max_finish + n < _SEG_BIAS, "cycle count overflows segment bias"
    stalls.dependence += int(dep_terms[dep_terms > 0].sum())
    stalls.window_sync += int(ws_terms[ws_terms > 0].sum())
    last_issue = int(ge_last_issue.max())
    stalls.drain += max(0, max_finish - (last_issue + 1))
    issued = {
        index: int(count)
        for index, count in enumerate(plan.issued_per_ge)
        if count
    }
    return max_finish, issued


def compute_cycles_batch(
    streams: StreamSet,
    configs,
    stalls_list: Optional[List[StallBreakdown]] = None,
) -> List[Tuple[int, Dict[int, int]]]:
    """Replay one compiled program under many configs, batching the work.

    Configs that resolve to the numpy engine without bank-conflict
    modelling retire together through
    :func:`compute_cycles_numpy_batched` (a leading config axis on the
    level replay); every other config -- a pinned ``reference`` engine,
    or ``model_bank_conflicts`` (whose port arbitration is inherently
    sequential) -- falls back to its own :func:`compute_cycles` call.
    Mixed batches therefore always work; per-config results are
    bit-identical to serial ``compute_cycles`` calls either way.

    ``stalls_list`` (one :class:`StallBreakdown` per config, fresh ones
    when omitted) is mutated exactly like the serial path mutates its
    single breakdown.
    """
    configs = list(configs)
    if stalls_list is None:
        stalls_list = [StallBreakdown() for _ in configs]
    if len(stalls_list) != len(configs):
        raise ValueError("need one StallBreakdown per config")
    results: List[Optional[Tuple[int, Dict[int, int]]]] = [None] * len(configs)
    batched: List[int] = []
    for index, config in enumerate(configs):
        if _on_level_replay(config):
            batched.append(index)
        else:
            results[index] = compute_cycles(streams, config, stalls_list[index])
    if batched:
        sub = compute_cycles_numpy_batched(
            compiled_arrays(streams),
            [configs[index] for index in batched],
            [stalls_list[index] for index in batched],
        )
        for index, value in zip(batched, sub):
            results[index] = value
    return results  # type: ignore[return-value]


def compute_cycles_numpy_batched(
    arrays: CompiledArrays,
    configs,
    stalls_list: Optional[List[StallBreakdown]] = None,
) -> List[Tuple[int, Dict[int, int]]]:
    """Level-parallel replay of **all configs at once** (leading C axis).

    The batched sibling of :func:`compute_cycles_numpy`: every
    config-dependent scalar of the replay -- AND/XOR latency (the
    role's Half-Gate depth), the cross-GE forwarding penalty and the
    writeback depth -- becomes a ``(C, 1)`` column broadcast against
    the per-level slices, and every piece of replay state
    (``value_ready``, ``last_read``, ``ge_last_issue``, the stall
    scratch vectors) gains a leading config axis.  Each dependence
    level then retires once for all C configs: the gathers, the
    segmented prefix-max issue rule (``np.maximum.accumulate`` along
    ``axis=1``; the segment bias broadcasts unchanged) and the stall
    recovery are the exact same integer array ops row-for-row, so each
    row is bit-identical to a serial :func:`compute_cycles_numpy` call
    with that config.

    Configs whose four compute scalars coincide (a DRAM-bandwidth or
    queue sweep varies nothing the compute replay reads) are deduped to
    one replay row and share its results -- the common scenario-grid
    case pays for one replay regardless of grid size.

    Callers must guarantee no config sets ``model_bank_conflicts`` (use
    :func:`compute_cycles_batch` for the general dispatch).
    """
    configs = list(configs)
    if stalls_list is None:
        stalls_list = [StallBreakdown() for _ in configs]
    if len(stalls_list) != len(configs):
        raise ValueError("need one StallBreakdown per config")
    if not configs:
        return []
    n = arrays.n_instructions
    if n == 0:
        return [(0, {}) for _ in configs]
    plan = numpy_plan(arrays)

    signatures = [
        (
            config.and_latency,
            config.xor_latency,
            config.cross_ge_forward,
            config.writeback_stages,
        )
        for config in configs
    ]
    unique: Dict[Tuple[int, int, int, int], int] = {}
    row_of = []
    for signature in signatures:
        row = unique.get(signature)
        if row is None:
            row = len(unique)
            unique[signature] = row
        row_of.append(row)
    rows = list(unique)
    and_lat = np.array([sig[0] for sig in rows], dtype=np.int64)[:, None]
    xor_lat = np.array([sig[1] for sig in rows], dtype=np.int64)[:, None]
    forward = np.array([sig[2] for sig in rows], dtype=np.int64)[:, None]
    writeback = np.array([sig[3] for sig in rows], dtype=np.int64)
    n_rows = len(rows)

    latency_s = np.where(plan.is_and_s[None, :], and_lat, xor_lat)
    fwd_a = plan.fwd_a_cost[None, :] * forward
    fwd_b = plan.fwd_b_cost[None, :] * forward

    n_slots = arrays.n_wires + 1
    value_ready = np.zeros((n_rows, n_slots), dtype=np.int64)
    last_read = np.zeros((n_rows, n_slots), dtype=np.int64)
    # Scatter-max target as a flat view: per-level indices become
    # row_offset + wire id, one np.maximum.at for the whole batch.
    last_read_flat = last_read.reshape(-1)
    row_offset = (np.arange(n_rows, dtype=np.int64) * n_slots)[:, None]
    ge_last_issue = np.full((n_rows, arrays.n_ges), -1, dtype=np.int64)
    dep_terms = np.zeros((n_rows, n), dtype=np.int64)
    ws_terms = np.zeros((n_rows, n), dtype=np.int64)

    level_bounds = plan.level_bounds
    seg_bounds = plan.seg_bounds
    seg_rel_first = plan.seg_rel_first
    seg_rel_last = plan.seg_rel_last
    seg_ge = plan.seg_ge
    for li in range(arrays.n_levels):
        s = level_bounds[li]
        e = level_bounds[li + 1]
        a = plan.a_s[s:e]
        b = plan.b_s[s:e]
        k = plan.k_seg[s:e]

        ready = np.maximum(value_ready[:, a] + fwd_a[:, s:e],
                           value_ready[:, b] + fwd_b[:, s:e])
        data_avail = ready
        if plan.level_has_evict[li]:
            ws = last_read[:, plan.evict_idx_s[s:e]]
            ready = np.maximum(data_avail, ws)
        else:
            ws = None

        sp = ready - k
        seg_lo = seg_bounds[li]
        seg_hi = seg_bounds[li + 1]
        starts = seg_rel_first[seg_lo:seg_hi]
        base = ge_last_issue[:, seg_ge[seg_lo:seg_hi]] + 1
        sp[:, starts] = np.maximum(sp[:, starts], base)
        if plan.level_multi_seg[li]:
            bias = plan.bias_s[s:e]
            issue = np.maximum.accumulate(sp + bias, axis=1) - bias
        else:
            issue = np.maximum.accumulate(sp, axis=1)
        issue += k

        earliest = np.empty_like(issue)
        earliest[:, 1:] = issue[:, :-1] + 1
        earliest[:, starts] = base
        np.subtract(data_avail, earliest, out=dep_terms[:, s:e])
        if ws is not None:
            np.subtract(
                ws, np.maximum(earliest, data_avail), out=ws_terms[:, s:e]
            )

        value_ready[:, plan.out_s[s:e]] = issue + latency_s[:, s:e]
        read = issue + 1
        last_read[:, plan.out_s[s:e]] = read
        width = e - s
        pair = np.empty((n_rows, 2 * width), dtype=np.int64)
        pair[:, 0::2] = read
        pair[:, 1::2] = read
        flat_idx = row_offset + plan.ab_s[2 * s:2 * e][None, :]
        np.maximum.at(last_read_flat, flat_idx.reshape(-1), pair.reshape(-1))
        ends = seg_rel_last[seg_lo:seg_hi]
        ge_last_issue[:, seg_ge[seg_lo:seg_hi]] = issue[:, ends]

    finish = value_ready[:, arrays.n_inputs:arrays.n_inputs + n].max(axis=1)
    finish += writeback
    assert int(finish.max()) + n < _SEG_BIAS, "cycle count overflows segment bias"
    dep_sum = np.where(dep_terms > 0, dep_terms, 0).sum(axis=1)
    ws_sum = np.where(ws_terms > 0, ws_terms, 0).sum(axis=1)
    drain = np.maximum(finish - (ge_last_issue.max(axis=1) + 1), 0)
    issued = {
        index: int(count)
        for index, count in enumerate(plan.issued_per_ge)
        if count
    }
    results = []
    for stalls, row in zip(stalls_list, row_of):
        stalls.dependence += int(dep_sum[row])
        stalls.window_sync += int(ws_sum[row])
        stalls.drain += int(drain[row])
        results.append((int(finish[row]), dict(issued)))
    return results


def compute_cycles_reference(
    streams: StreamSet, config: HaacConfig, stalls: StallBreakdown
) -> Tuple[int, Dict[int, int]]:
    """Straightforward per-gate replay: the oracle, and bank conflicts.

    Walks the program and netlist columns gate by gate with a
    dict-based scoreboard.  The equivalence suite asserts it and the
    numpy engine return identical (cycles, stalls, issued-per-GE) on
    every stdlib circuit family; with ``model_bank_conflicts`` it is the
    only implementation, pinned by a golden table.
    """
    program = streams.program
    n_inputs = program.n_inputs
    capacity = streams.window.capacity
    ports_per_cycle = max(1, int(config.sww_clock_hz / config.ge_clock_hz))

    value_ready: Dict[int, int] = {}
    producer_ge: Dict[int, int] = {}
    ge_last_issue: Dict[int, int] = {}
    issued_per_ge: Dict[int, int] = {}
    last_read_issue: Dict[int, int] = {}
    bank_load: Dict[int, List[int]] = {}

    max_finish = 0
    netlist = program.netlist
    for position, (op, a, b) in enumerate(zip(program.op, netlist.a, netlist.b)):
        ge = streams.ge_of[position]
        latency = config.and_latency if op == HaacOp.AND else config.xor_latency
        earliest_inorder = ge_last_issue.get(ge, -1) + 1
        ready = earliest_inorder
        for wire in (a, b):
            available = value_ready.get(wire, 0)
            source = producer_ge.get(wire, -1)
            if wire >= n_inputs and source >= 0 and source != ge:
                available += config.cross_ge_forward
            if available > ready:
                ready = available
        if ready > earliest_inorder:
            stalls.dependence += ready - earliest_inorder
        out = program.out_addr(position)
        evicted = out - capacity
        if evicted >= 0:
            reader = last_read_issue.get(evicted, 0)
            if reader > ready:
                stalls.window_sync += reader - ready
                ready = reader
        issue = ready

        if config.model_bank_conflicts:
            bank_a = a % config.n_banks
            bank_b = b % config.n_banks
            while True:
                cycle_loads = bank_load.setdefault(
                    issue + 1, [0] * config.n_banks
                )
                if bank_a == bank_b:
                    fits = cycle_loads[bank_a] + 2 <= ports_per_cycle
                else:
                    fits = (
                        cycle_loads[bank_a] + 1 <= ports_per_cycle
                        and cycle_loads[bank_b] + 1 <= ports_per_cycle
                    )
                if fits:
                    cycle_loads[bank_a] += 1
                    cycle_loads[bank_b] += 1
                    break
                stalls.bank_conflict += 1
                issue += 1

        ge_last_issue[ge] = issue
        issued_per_ge[ge] = issued_per_ge.get(ge, 0) + 1
        value_ready[out] = issue + latency
        producer_ge[out] = ge
        last_read_issue[out] = issue + 1
        for wire in (a, b):
            if issue + 1 > last_read_issue.get(wire, 0):
                last_read_issue[wire] = issue + 1
        finish = issue + latency + config.writeback_stages
        if finish > max_finish:
            max_finish = finish

    if ge_last_issue:
        last_issue = max(ge_last_issue.values())
        stalls.drain += max(0, max_finish - (last_issue + 1))
    return max_finish, dict(sorted(issued_per_ge.items()))
