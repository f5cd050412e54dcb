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
    ``streams.issue_cycle`` *is* the replay's answer.
  - Any other config takes the level-parallel replay
    (:func:`compute_cycles_numpy_batched`) over the dependence levels
    persisted through :mod:`repro.core.progcache`: each level's issue
    cycles for every config of the call at once, in five array calls.

  Either way, cycles and stalls are one closed form over the issue
  vector, the compile's or the replay's (:func:`_scheduled_rows`).

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
#: trillions of instructions; the replay raises OverflowError past it.
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
    for index, (config, stalls) in enumerate(zip(configs, stalls_list)):
        if (engine_mode(config.sim_engine) != ENGINE_NUMPY
                or config.model_bank_conflicts):
            results[index] = compute_cycles_reference(streams, config, stalls)
        elif _replay_key(config) == scheduled:
            plan = schedule_plan(arrays)
            if plan.own_row is None:  # config-independent: once per plan
                plan.own_row = _scheduled_rows(arrays, [scheduled], plan.issue[None])[0]
            results[index] = _charge(arrays, plan.own_row, config, stalls)
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

    Config-independent and cached unpickled like the level plan, which
    shares its ``ge``.  The closed form reads ``issue``, ``prev`` (the
    GE's previous instruction, ``n`` for its first), the operand
    producer indices ``src_a`` / ``src_b`` (``n`` for a primary input)
    and the cross-GE flags -- index ``n`` is a slot that is always 0 --
    and keeps its row for the compile's own key in ``own_row``; the
    coupled model reads the byte-charge flags.
    """

    __slots__ = ("issue", "ge", "prev", "src_a", "src_b", "fwd_a", "fwd_b",
                 "is_and", "live", "oor_a", "oor_b", "issued", "own_row")

    def __init__(self, arrays: CompiledArrays) -> None:
        n = arrays.n_instructions
        self.issue = np.fromiter(arrays.issue_cycle, dtype=np.int64, count=n)
        ge = np.fromiter(arrays.ge_of, dtype=np.int64, count=n)
        self.own_row = None
        # Each GE's stream in program order (a stable sort by GE, a radix
        # sort on the narrowest dtype); the previous entry within a GE.
        self.ge = ge.astype(np.min_scalar_type(arrays.n_ges))
        order = np.argsort(self.ge, kind="stable")
        prev = np.full(n, n, dtype=np.int64)
        prev[1:] = order[:-1]
        prev[np.flatnonzero(np.diff(ge[order]) != 0) + 1] = n
        self.prev = np.empty(n, dtype=np.int32)
        self.prev[order] = prev
        producer_ge = np.append(ge, -1)
        for name, column in (("a", arrays.a_of), ("b", arrays.b_of)):
            wire = np.asarray(column, dtype=np.int64)
            src = np.where(wire >= arrays.n_inputs, wire - arrays.n_inputs, n)
            src = src.astype(np.int32)  # an index table, like the level plan's
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


def _key_columns(keys):
    """``(R, 1)`` AND-latency, XOR-latency and forward columns of
    :func:`_replay_key` tuples, broadcast against per-instruction rows."""
    return (np.array(column, dtype=np.int64)[:, None] for column in zip(*keys))


def _scheduled_rows(
    arrays: CompiledArrays, keys, issue: np.ndarray
) -> List[Tuple[int, int, int, int]]:
    """One row ``(finish before writeback, dependence, window_sync, last
    issue)`` per key, read off a program-order ``(R, n)`` issue array.

    The one definition of cycles and stalls, for the compile's
    ``issue_cycle`` (``R = 1``, the compile's own key) and for the level
    replay's issue vectors alike.  Exact for any issue vector that obeys
    the replay's rule -- each instruction issues at exactly
    ``max(earliest, data, slot_free)`` on its ``ge_of`` GE -- and the
    greedy mapping applies that rule, which ``verify_streams`` holds a
    compile to.  With ``earliest`` the GE's previous issue + 1 (0 for
    its first instruction) and ``data`` the operand readiness (producer
    issue + latency, + the forwarding penalty across GEs; 0 for primary
    inputs):

    * ``dependence = sum(max(0, data - earliest))``;
    * ``window_sync = sum(max(0, issue - max(earliest, data)))`` -- the
      part of each issue only the evicted slot explains;
    * the finish before writeback is ``max(issue + latency)``, and the
      last issue ``max(issue)``.
    """
    and_lat, xor_lat, forward = _key_columns(keys)
    plan = schedule_plan(arrays)
    rows, n = issue.shape
    # Column n stays 0: the primary-input / first-on-GE slot.  It holds
    # issue + 1 for the earliest gather, then issue + latency.
    padded = np.zeros((rows, n + 1), dtype=np.int64)
    np.add(issue, 1, out=padded[:, :n])
    earliest = np.take(padded, plan.prev, axis=1)
    np.add(issue, np.where(plan.is_and, and_lat, xor_lat), out=padded[:, :n])
    data = np.take(padded, plan.src_a, axis=1)
    data += forward * plan.fwd_a
    scratch = np.take(padded, plan.src_b, axis=1)
    scratch += forward * plan.fwd_b
    np.maximum(data, scratch, out=data)
    np.subtract(data, earliest, out=scratch)
    dependence = np.maximum(scratch, 0, out=scratch).sum(axis=1)
    np.maximum(earliest, data, out=earliest)
    np.subtract(issue, earliest, out=scratch)
    window_sync = np.maximum(scratch, 0, out=scratch).sum(axis=1)
    return list(zip(*(column.tolist() for column in (
        padded.max(axis=1), dependence, window_sync, issue.max(axis=1)
    ))))


class _NumpyPlan:
    """The level replay's config-independent predecessor tables.

    Instructions are indexed in stable ``(level, ge, position)`` order,
    so level ``l`` is the slice ``level_bounds[l]:level_bounds[l + 1]``
    of ``m`` instructions and each GE's run in it a program-ordered
    *segment*; index ``n`` is a sentinel kept at 0.  Cached unpickled
    (``CompiledArrays.__getstate__``): it rebuilds in O(n) array ops.

    * ``gather[gather_bounds[l]:gather_bounds[l + 1]]`` -- two blocks
      of ``m``, the producers of operands ``a`` and ``b`` (the sentinel
      for an input), then one run per instruction: the GE's previous
      instruction at segment starts (the sentinel elsewhere) and, if it
      overwrites a slot, the evicted wire's producer and earlier
      readers; ``run_rel`` is each run's offset after the blocks;
    * ``kind`` -- each entry's column of the per-call weight table: 0
      nothing, else ``1 + producer is AND + 2 * cross-GE``;
    * ``shift`` -- ``segment ordinal * _SEG_BIAS - k`` for the ``k``-th
      instruction of its segment; ``unshift = 1 - shift`` (0 at the
      sentinel), and ``bias`` is each entry's ``unshift`` plus its
      owner's ``shift``;
    * ``pos`` -- program position -> level-order index.
    """

    __slots__ = ("level_bounds", "gather_bounds", "gather", "kind", "bias",
                 "run_rel", "shift", "pos")

    def __init__(self, arrays: CompiledArrays) -> None:
        arrays.ensure_levels()
        n = arrays.n_instructions
        n_levels = max(arrays.n_levels, 1)
        schedule = schedule_plan(arrays)
        level = np.fromiter(arrays.level_of, dtype=np.int64, count=n)
        # One stable sort (a radix sort on the narrowest dtype).
        key = level * arrays.n_ges + schedule.ge
        order = np.argsort(
            key.astype(np.min_scalar_type(n_levels * arrays.n_ges)), kind="stable"
        )
        index = np.arange(n, dtype=np.int64)
        # int32 index tables halve the resident plan; the gathers widen
        # each level's slice.  pos[n] is the sentinel.
        pos = np.full(n + 1, n, dtype=np.int32)
        pos[order] = index
        self.pos = pos[:n]
        level, key = level[order], key[order]  # level order from here on
        counts = np.bincount(level, minlength=n_levels)
        level_bounds = np.concatenate(([0], np.cumsum(counts)))
        self.level_bounds = level_bounds.tolist()

        # Segments: runs of equal (level, ge), i.e. of equal key.
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = key[1:] != key[:-1]
        seg_first = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        level_first_seg = np.concatenate(([0], np.cumsum(
            np.bincount(level[seg_first], minlength=n_levels)
        )))
        self.shift = shift = (
            (seg_id - level_first_seg[level]) * _SEG_BIAS - (index - seg_first[seg_id])
        )
        unshift = np.append(1 - shift, 0)

        # One run per instruction t: its GE predecessor at a segment start
        # (else the sentinel) and, when t overwrites the slot of wire w =
        # n_inputs + t - capacity, w's producer t - capacity and readers q < t.
        capacity = arrays.capacity
        # The instruction that evicts each operand's wire.
        evictor_a, evictor_b = (
            np.asarray(column, dtype=np.int64) + capacity - arrays.n_inputs
            for column in (arrays.a_of, arrays.b_of)
        )
        read_a = (evictor_a > index) & (evictor_a < n)
        read_b = (evictor_b > index) & (evictor_b < n) & (evictor_b != evictor_a)
        owner = np.concatenate((index, pos[np.concatenate((
            index[capacity:], evictor_a[read_a], evictor_b[read_b]
        ))]))
        by_owner = np.argsort(owner, kind="stable")
        runs = np.concatenate((np.where(new_seg, pos[schedule.prev[order]], n), pos[
            np.concatenate((index[:max(n - capacity, 0)], index[read_a], index[read_b]))
        ]))[by_owner]
        run_start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
        run_bounds = run_start[level_bounds]
        self.run_rel = (run_start[:n] - run_bounds[level]).astype(np.int32)

        # Scatter the blocks and the runs into level-major order.
        gather_bounds = 2 * level_bounds + run_bounds
        self.gather_bounds = gather_bounds.tolist()
        first = index + (gather_bounds - level_bounds)[level]
        self.gather = np.empty(2 * n + len(runs), dtype=np.int32)
        self.bias = np.empty(len(self.gather), dtype=np.int64)
        self.kind = np.zeros(len(self.gather), dtype=np.uint8)
        producer_and = np.append(schedule.is_and, False)
        for dest, src, fwd in (
            (first, schedule.src_a, schedule.fwd_a),
            (first + counts[level], schedule.src_b, schedule.fwd_b),
        ):
            src = src[order]
            self.gather[dest] = entry = pos[src]
            self.bias[dest] = unshift[entry] + shift
            self.kind[dest] = (src < n) * (1 + producer_and[src] + 2 * fwd[order])
        dest = np.arange(len(runs)) + np.repeat(
            2 * level_bounds[1:], np.diff(run_bounds))
        self.gather[dest] = runs
        self.bias[dest] = unshift[runs] + shift[owner[by_owner]]


def numpy_plan(arrays: CompiledArrays) -> _NumpyPlan:
    """Build (or fetch the memoized) level-order NumPy plan."""
    plan = getattr(arrays, _PLAN_ATTR, None)
    if plan is None:
        plan = _NumpyPlan(arrays)
        setattr(arrays, _PLAN_ATTR, plan)
    return plan


def _level_replay(arrays: CompiledArrays, keys) -> List[Tuple[int, int, int, int]]:
    """Level-parallel replay of one row per :func:`_replay_key`: it
    computes only issue cycles, one level at a time for every row at
    once, and reads the row off :func:`_scheduled_rows`.

    The state is one ``(n + 1, R)`` array ``acc`` of each instruction's
    *biased* issue, ``issue + shift`` (:class:`_NumpyPlan`), in level
    order.  Every predecessor of an issue sits in an earlier level, so
    per level (DESIGN.md section 8) one ``take`` through the level's
    ``gather`` slice plus the per-call weight (producer latency - 1, +
    ``forward`` across GEs, + ``bias``) gives each candidate's ``issue +
    1`` biased by the reader's shift; two ``np.maximum`` over the blocks
    and the runs (one entry each unless the level evicts, then one
    ``np.maximum.reduceat`` first) give ``max(data, earliest,
    slot_free)``.  In-order issue, ``issue_k = max(issue_{k-1} + 1,
    ready_k)``, is a running max of ``ready_k - k``, so with each segment
    biased by ``ordinal * _SEG_BIAS`` (checked after the replay) one
    ``np.maximum.accumulate`` into ``acc[s:e]`` serves the level.  Stalls
    and the finish are the closed form over the issue vector.
    """
    rows = _scheduled_rows(arrays, keys, _replay_issue(arrays, keys))
    if max(row[0] for row in rows) + arrays.n_instructions >= _SEG_BIAS:
        raise OverflowError("cycle count overflows the segment bias")
    return rows


def _replay_issue(arrays: CompiledArrays, keys) -> np.ndarray:
    """The ``(R, n)`` program-order issue cycles of :func:`_level_replay`."""
    plan = numpy_plan(arrays)
    and_lat, xor_lat, forward = _key_columns(keys)
    # Per-row weight of each entry kind (see _NumpyPlan.kind), (5, R).
    table = np.hstack([
        np.zeros_like(and_lat), xor_lat - 1, and_lat - 1,
        xor_lat - 1 + forward, and_lat - 1 + forward,
    ]).T
    weight = np.take(table, plan.kind, axis=0)
    weight += plan.bias[:, None]
    acc = np.zeros((arrays.n_instructions + 1, len(keys)), dtype=np.int64)

    gather, run_rel = plan.gather, plan.run_rel
    bounds, g_bounds = plan.level_bounds, plan.gather_bounds
    for s, e, gs, ge in zip(bounds, bounds[1:], g_bounds, g_bounds[1:]):
        ready = acc.take(gather[gs:ge], axis=0)
        ready += weight[gs:ge]
        m = e - s
        head, runs = ready[:m], ready[2 * m:]
        np.maximum(head, ready[m:2 * m], out=head)
        if len(runs) > m:  # the level evicts: one max per run
            runs = np.maximum.reduceat(runs, run_rel[s:e])
        np.maximum(head, runs, out=head)
        np.maximum.accumulate(head, out=acc[s:e])
    issue = acc[plan.pos]
    issue -= plan.shift[plan.pos, None]
    return issue.T


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
