"""Shared compiled-array timing engine for all timing models.

The decoupled, coupled, pull-based and multicore models all consume one
config-independent flattening of a compiled :class:`StreamSet`
(:class:`CompiledArrays`) instead of re-walking dataclasses per gate.
Two engines, selected by ``REPRO_SIM_ENGINE`` (or
``HaacConfig.sim_engine``, which wins when set):

* ``numpy`` -- the default.  It picks its path from the input:

  - A config *on the compile's schedule* -- ``(and_latency,
    xor_latency, cross_ge_forward)`` equal to the ``streams.params``
    the program was compiled under, as for every config ``src/``
    simulates -- is not replayed.  The compiler's greedy GE mapping
    applies the replay's issue rule to the same ``ge_of``, so
    ``streams.issue_cycle`` *is* the replay's answer, and cycles and
    stalls are a closed form over it (:func:`_scheduled_row`).
  - Any other config takes the level-parallel replay
    (:func:`compute_cycles_numpy_batched`): instructions are
    partitioned once into dependence levels
    (:meth:`CompiledArrays.ensure_levels`, persisted through
    :mod:`repro.core.progcache`), and each level retires for every
    config of the call at once as array ops.

  ``model_bank_conflicts`` runs on the reference replay (its port
  arbitration is inherently sequential).
* ``reference`` -- the per-gate replay, the oracle the equivalence
  suite diffs the numpy engine against and the one implementation of
  bank conflicts.  It never reads the compile's schedule.

All paths produce bit-identical cycle counts, stall breakdowns and
per-GE issue counts (``tests/sim/test_engine_equivalence``: every
stdlib family at every opt level, on and off the schedule; bank
conflicts are pinned by ``tests/sim/test_bank_conflict_golden``).  A
config whose GE count or SWW capacity is not the compile's raises
:class:`ValueError`.
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
    "check_compiled_for",
    "compiled_arrays",
    "compute_cycles_batch",
    "compute_cycles_numpy_batched",
    "compute_cycles_reference",
]

ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"
ENGINE_NUMPY = "numpy"
ENGINE_REFERENCE = "reference"
_ARRAYS_ATTR = "_engine_arrays"
_PLAN_ATTR = "_numpy_plan"
_SCHEDULE_ATTR = "_schedule_plan"
#: Per-segment bias decoupling the level-wide prefix max (see
#: _level_replay).  Any replay reaching 2**45 cycles would need
#: trillions of instructions; the engine asserts the bound post-replay.
_SEG_BIAS = 1 << 45


def engine_mode(override: Optional[str] = None) -> str:
    """Active engine, resolved at call time.

    ``override`` (``HaacConfig.sim_engine``) wins over the
    ``REPRO_SIM_ENGINE`` environment variable when set.  ``numpy`` (the
    default when unset or empty) is the closed form / level-parallel
    array path; ``reference`` the per-gate oracle the equivalence suite
    diffs it against.  Any other name raises :class:`ValueError`.
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


def check_compiled_for(streams: StreamSet, config: HaacConfig) -> None:
    """Raise :class:`ValueError` unless ``config`` is the machine
    ``streams`` was compiled for.

    Every timing model reads the GE mapping, the OoR flags and the
    window-sync slots off the compile, so a config with another GE count
    or SWW capacity would be timed on the compiled shape, not its own.
    """
    capacity = config.window.capacity
    if config.n_ges != streams.n_ges or capacity != streams.window.capacity:
        raise ValueError(
            f"config ({config.n_ges} GEs, {capacity}-wire SWW) does not "
            f"match the compiled streams ({streams.n_ges} GEs, "
            f"{streams.window.capacity}-wire SWW); compile for this config"
        )


def _replay_key(config) -> Tuple[int, int, int]:
    """What a replay reads of a config, and what a compile fixes in its
    ``ScheduleParams``: ``(and_latency, xor_latency, cross_ge_forward)``."""
    return (config.and_latency, config.xor_latency, config.cross_ge_forward)


@dataclass
class CompiledArrays:
    """Config-independent flat arrays for one compiled :class:`StreamSet`.

    Index ``p`` of every list corresponds to instruction ``p`` in
    program order (the ISA writes wire ``n_inputs + p``).  ``oor_a`` /
    ``oor_b`` are the stream generator's per-GE OoR flags scattered back
    to program order; ``oor_per_ge`` counts each GE's OoRW queue length.

    ``level_of`` is the dependence-level partition consumed by the level
    replay (None until :meth:`ensure_levels` runs).  Like everything
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
        # The derived NumPy plans hold ndarrays; keep them out of
        # pickles (the persistent program cache) -- they rebuild from
        # the columns and level_of in O(n) array ops.
        state = dict(self.__dict__)
        state.pop(_PLAN_ATTR, None)
        state.pop(_SCHEDULE_ATTR, None)
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


def compute_cycles_batch(
    streams: StreamSet,
    configs,
    stalls_list: Optional[List[StallBreakdown]] = None,
) -> List[Tuple[int, Dict[int, int]]]:
    """Time one compiled program under many configs, batching the work.

    Each config takes one of three paths, chosen from the input:

    * a pinned ``reference`` engine or ``model_bank_conflicts`` (whose
      port arbitration is inherently sequential) runs its own
      :func:`compute_cycles_reference` call;
    * on ``numpy``, a config whose ``(and_latency, xor_latency,
      cross_ge_forward)`` equal the compile's ``streams.params`` reads
      the closed form over ``streams.issue_cycle`` (once per call);
    * every other config joins one :func:`compute_cycles_numpy_batched`
      level replay.

    Mixed batches therefore always work, and every result is
    bit-identical to a serial :func:`compute_cycles_reference` call.
    ``stalls_list`` (one :class:`StallBreakdown` per config, fresh ones
    when omitted) is mutated exactly like the serial path mutates its
    single breakdown.  A config that is not the compile's machine
    raises (:func:`check_compiled_for`).
    """
    configs = list(configs)
    stalls_list = _stalls_for(configs, stalls_list)
    for config in configs:
        check_compiled_for(streams, config)
    arrays = compiled_arrays(streams)
    if not arrays.n_instructions:  # nothing issues, nothing drains
        return [(0, {}) for _ in configs]
    scheduled = _replay_key(streams.params)
    results: List[Optional[Tuple[int, Dict[int, int]]]] = [None] * len(configs)
    replayed: List[int] = []
    row = None
    for index, (config, stalls) in enumerate(zip(configs, stalls_list)):
        if (engine_mode(config.sim_engine) != ENGINE_NUMPY
                or config.model_bank_conflicts):
            results[index] = compute_cycles_reference(streams, config, stalls)
        elif _replay_key(config) == scheduled:
            row = row or _scheduled_row(arrays, scheduled)
            results[index] = _charge(arrays, row, config, stalls)
        else:
            replayed.append(index)
    sub = compute_cycles_numpy_batched(
        arrays,
        [configs[index] for index in replayed],
        [stalls_list[index] for index in replayed],
    )
    for index, value in zip(replayed, sub):
        results[index] = value
    return results  # type: ignore[return-value]


def compute_cycles_numpy_batched(
    arrays: CompiledArrays,
    configs,
    stalls_list: Optional[List[StallBreakdown]] = None,
) -> List[Tuple[int, Dict[int, int]]]:
    """Level-parallel replay of **all configs at once** (leading C axis).

    Replays every config, on the compile's schedule or not.  Configs
    sharing ``(and_latency, xor_latency, cross_ge_forward)`` -- a
    DRAM-bandwidth, queue or writeback sweep varies none of them --
    share one :func:`_level_replay` row; ``writeback_stages`` is added
    per config afterwards.  Callers must guarantee no config sets
    ``model_bank_conflicts`` (use :func:`compute_cycles_batch` for the
    general dispatch).
    """
    configs = list(configs)
    stalls_list = _stalls_for(configs, stalls_list)
    if not configs or not arrays.n_instructions:
        return [(0, {}) for _ in configs]
    keys = [_replay_key(config) for config in configs]
    unique = list(dict.fromkeys(keys))
    rows = dict(zip(unique, _level_replay(arrays, unique)))
    return [
        _charge(arrays, rows[key], config, stalls)
        for key, config, stalls in zip(keys, configs, stalls_list)
    ]


def _stalls_for(configs, stalls_list) -> List[StallBreakdown]:
    if stalls_list is None:
        return [StallBreakdown() for _ in configs]
    if len(stalls_list) != len(configs):
        raise ValueError("need one StallBreakdown per config")
    return stalls_list


def _charge(arrays, row, config, stalls) -> Tuple[int, Dict[int, int]]:
    """One config's (cycles, issued per GE) from its key's row
    ``(finish before writeback, dependence, window_sync, last issue)``:
    its writeback and drain go on top."""
    finish, dependence, window_sync, last_issue = row
    finish += config.writeback_stages
    stalls.dependence += dependence
    stalls.window_sync += window_sync
    stalls.drain += max(0, finish - (last_issue + 1))
    return finish, dict(schedule_plan(arrays).issued)


class _SchedulePlan:
    """Program-order NumPy view of the compile's schedule.

    Config-independent and cached unpickled like the level plan.  The
    closed form reads ``issue``, ``earliest`` (the GE's previous issue
    + 1, 0 for its first instruction), the operand producer indices
    ``src_a`` / ``src_b`` (``n`` for a primary input: a slot that is
    always 0) and the cross-GE forwarding flags; the coupled model reads
    the byte-charge flags.
    """

    __slots__ = ("issue", "earliest", "src_a", "src_b", "fwd_a", "fwd_b",
                 "is_and", "live", "oor_a", "oor_b", "issued")

    def __init__(self, arrays: CompiledArrays) -> None:
        n = arrays.n_instructions
        issue = np.fromiter(arrays.issue_cycle, dtype=np.int64, count=n)
        ge = np.fromiter(arrays.ge_of, dtype=np.int64, count=n)
        self.issue = issue
        # Each GE's stream in program order (a stable sort by GE, a radix
        # sort on the narrowest dtype); the in-order floor is the
        # previous entry's issue + 1 within a GE.
        narrow = ge.astype(np.min_scalar_type(arrays.n_ges))
        order = np.argsort(narrow, kind="stable")
        earliest = np.zeros(n, dtype=np.int64)
        earliest[1:] = issue[order[:-1]] + 1
        earliest[np.flatnonzero(np.diff(ge[order]) != 0) + 1] = 0
        self.earliest = np.empty(n, dtype=np.int64)
        self.earliest[order] = earliest
        producer_ge = np.append(ge, -1)
        for name, column in (("a", arrays.a_of), ("b", arrays.b_of)):
            wire = np.asarray(column, dtype=np.int64)
            src = np.where(wire >= arrays.n_inputs, wire - arrays.n_inputs, n)
            setattr(self, "src_" + name, src)
            setattr(self, "fwd_" + name,
                    (producer_ge[src] >= 0) & (producer_ge[src] != ge))
        for name in ("is_and", "live", "oor_a", "oor_b"):
            setattr(self, name, np.asarray(getattr(arrays, name), dtype=bool))
        counts = np.bincount(ge, minlength=arrays.n_ges)
        self.issued = {g: int(count) for g, count in enumerate(counts) if count}


def schedule_plan(arrays: CompiledArrays) -> _SchedulePlan:
    """Build (or fetch the memoized) program-order schedule plan."""
    plan = getattr(arrays, _SCHEDULE_ATTR, None)
    if plan is None:
        plan = _SchedulePlan(arrays)
        setattr(arrays, _SCHEDULE_ATTR, plan)
    return plan


def _scheduled_row(arrays: CompiledArrays, key) -> Tuple[int, int, int, int]:
    """The level replay's row, read off the compile's schedule.

    Valid only when ``key`` is the compile's own latencies: the greedy
    mapping then issued each instruction at exactly ``max(earliest,
    data, slot_free)`` on its ``ge_of`` GE -- the replay's rule -- so
    its ``issue_cycle`` is the replay's, and ``verify_streams`` holds a
    compile to that.  With ``data`` the operand readiness (producer
    issue + latency, + the forwarding penalty across GEs; 0 for primary
    inputs):

    * ``dependence = sum(max(0, data - earliest))``;
    * ``window_sync = sum(max(0, issue - max(earliest, data)))`` -- the
      part of each issue only the evicted slot explains;
    * the finish before writeback is ``max(issue + latency)``, and the
      last issue ``max(issue)``.
    """
    and_latency, xor_latency, forward = key
    plan = schedule_plan(arrays)
    issue = plan.issue
    n = len(issue)
    done = np.zeros(n + 1, dtype=np.int64)
    np.add(issue, np.where(plan.is_and, and_latency, xor_latency), out=done[:n])
    data = np.maximum(
        done[plan.src_a] + forward * plan.fwd_a,
        done[plan.src_b] + forward * plan.fwd_b,
    )
    earliest = plan.earliest
    dependence = np.maximum(data - earliest, 0).sum()
    window_sync = np.maximum(issue - np.maximum(earliest, data), 0).sum()
    return int(done.max()), int(dependence), int(window_sync), int(issue.max())


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
        # The program-order cross-GE forwarding flags, in level order;
        # the penalty is scaled in at replay time.
        schedule = schedule_plan(arrays)
        self.fwd_a_cost = schedule.fwd_a[order]
        self.fwd_b_cost = schedule.fwd_b[order]
        self.is_and_s = schedule.is_and[order]

        counts = np.bincount(level, minlength=max(arrays.n_levels, 1))
        level_bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.level_bounds = level_bounds
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
        # Prefix-max segment decoupling bias (see _level_replay):
        # segment ordinal within its level, scaled by a constant far
        # above any reachable cycle count (validated after each replay).
        seg_in_level = seg_id - self.seg_bounds[level_s]
        self.bias_s = seg_in_level * _SEG_BIAS
        has_evict_counts = np.bincount(
            level_s, weights=(evicted >= 0), minlength=max(arrays.n_levels, 1)
        )
        self.level_has_evict = has_evict_counts > 0
        self.level_multi_seg = (self.seg_bounds[1:] - self.seg_bounds[:-1]) > 1


def numpy_plan(arrays: CompiledArrays) -> _NumpyPlan:
    """Build (or fetch the memoized) level-order NumPy plan."""
    plan = getattr(arrays, _PLAN_ATTR, None)
    if plan is None:
        plan = _NumpyPlan(arrays)
        setattr(arrays, _PLAN_ATTR, plan)
    return plan


def _level_replay(arrays: CompiledArrays, keys) -> List[Tuple[int, int, int, int]]:
    """Level-parallel replay of one row per :func:`_replay_key`: one
    batch of array ops per dependence level, for every row at once.

    Semantics are identical to the reference replay; the sequencing
    argument:

    * Operand readiness and the window-sync gather only read per-wire
      state written by *strictly earlier* levels (guaranteed by
      :meth:`CompiledArrays.ensure_levels`), so ``value_ready`` /
      ``last_read`` are gathered for a whole level at once.
    * In-order issue within a level is a per-GE recurrence
      ``issue_k = max(issue_{k-1} + 1, ready_k)`` over each GE's
      program-ordered run.  Substituting ``s_k = ready_k - k`` turns it
      into a running max (``issue_k = k + max(s_0..s_k, base)``), i.e. a
      *segmented* ``np.maximum.accumulate`` along ``axis=1`` -- segments
      are decoupled by biasing each GE's run with ``segment_ordinal *
      2**45``, a constant far above any reachable cycle count (asserted
      after the replay), so one accumulate serves the whole level.
    * Stall attribution replays the scalar rules exactly:
      ``dependence`` counts ``ready - earliest_inorder`` and
      ``window_sync`` the further bump past ``max(earliest, ready)``,
      both recovered from the shifted issue vector; the per-instruction
      terms land in two scratch arrays summed once at the end.

    Every key becomes a ``(R, 1)`` column broadcast against the
    per-level slices, and every piece of replay state gains a leading
    row axis, so each row is the replay of its key alone.
    """
    n = arrays.n_instructions
    plan = numpy_plan(arrays)
    n_rows = len(keys)
    and_lat, xor_lat, forward = (
        np.array(column, dtype=np.int64)[:, None] for column in zip(*keys)
    )
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

        # earliest_inorder: previous issue + 1 inside a segment, the
        # GE's cross-level last issue + 1 at segment starts.
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
        # The write is its out wire's first slot access (virgin entry:
        # data levels put every reader strictly later), so plain
        # assignment matches the reference replay's WAW ordering.
        last_read[:, plan.out_s[s:e]] = read
        width = e - s
        pair = np.empty((n_rows, 2 * width), dtype=np.int64)
        pair[:, 0::2] = read
        pair[:, 1::2] = read
        flat_idx = row_offset + plan.ab_s[2 * s:2 * e][None, :]
        np.maximum.at(last_read_flat, flat_idx.reshape(-1), pair.reshape(-1))
        ends = seg_rel_last[seg_lo:seg_hi]
        ge_last_issue[:, seg_ge[seg_lo:seg_hi]] = issue[:, ends]

    # issue + latency is what the scatter above stored per out wire.
    finish = value_ready[:, arrays.n_inputs:arrays.n_inputs + n].max(axis=1)
    assert int(finish.max()) + n < _SEG_BIAS, "cycle count overflows segment bias"
    dep_sum = np.where(dep_terms > 0, dep_terms, 0).sum(axis=1)
    ws_sum = np.where(ws_terms > 0, ws_terms, 0).sum(axis=1)
    return list(zip(*(column.tolist() for column in (
        finish, dep_sum, ws_sum, ge_last_issue.max(axis=1)
    ))))


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
