"""Shared timing engine for all timing models.

The decoupled, coupled and pull-based models all read one compiled
:class:`StreamSet` -- the program, its dependence graph's columns and
the compile's ``ge_of`` / ``issue_cycle`` / ``level_of`` -- through two
config-independent NumPy plans memoized on it, instead of re-walking
dataclasses per gate.  :func:`compute_cycles_batch` is the one entry,
and the one reader of ``HaacConfig.sim_engine``.  Per config it picks:

* ``numpy`` -- the default (``None`` names it too), chosen from the input:

  - A config *on the compile's schedule* -- ``(and_latency,
    xor_latency, cross_ge_forward)`` equal to the ``streams.params``
    the program was compiled under, as for every config ``src/``
    simulates -- is not replayed.  The compiler's greedy GE mapping
    applies the replay's issue rule to the same ``ge_of``, so
    ``streams.issue_cycle`` *is* the replay's answer.
  - Any other config takes the level-parallel replay
    (:func:`_level_replay`) over ``streams.level_of``, persisted
    through :mod:`repro.core.progcache`: each level's issue cycles for
    every config of the call at once, in five array calls.

  Either way, cycles and stalls are one closed form over the issue
  vector, the compile's or the replay's (:func:`_scheduled_rows`).

  ``model_bank_conflicts`` runs on the reference replay (its port
  arbitration is inherently sequential).
* ``reference`` -- the per-gate replay, the oracle the equivalence
  suite diffs the numpy engine against and the one implementation of
  bank conflicts.  It never reads the compile's schedule.

All paths return bit-identical cycle counts, stall breakdowns and
per-GE issue counts (``tests/sim/test_engine_equivalence``: every
stdlib family at every opt level, on and off the schedule; bank
conflicts are pinned by ``tests/sim/test_bank_conflict_golden``).  A
config whose GE count or SWW capacity is not the compile's raises
:class:`ValueError`.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..circuits.netlist import column_view
from ..core.isa import HaacOp
from ..core.passes.streams import StreamSet
from .config import HaacConfig
from .stats import StallBreakdown

__all__ = [
    "check_compiled_for",
    "compute_cycles_batch",
    "compute_cycles_reference",
]

#: The plans memoized on a StreamSet (never pickled: StreamSet.__getstate__).
_PLAN_ATTR = "_numpy_plan"
_SCHEDULE_ATTR = "_schedule_plan"
#: Per-segment bias decoupling the level-wide prefix max (see
#: _level_replay).  Any replay reaching 2**45 cycles would need
#: trillions of instructions; the replay raises OverflowError past it.
_SEG_BIAS = 1 << 45


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


def compute_cycles_batch(
    streams: StreamSet, configs
) -> List[Tuple[int, Dict[int, int], StallBreakdown]]:
    """Time one compiled program under many configs, batching the work.

    Returns ``(cycles, issued per GE, stalls)`` per config.  Each config
    takes one of three paths, chosen from the input:

    * a pinned ``reference`` engine or ``model_bank_conflicts`` (whose
      port arbitration is inherently sequential) runs its own
      :func:`compute_cycles_reference` call;
    * on ``numpy``, a config whose ``(and_latency, xor_latency,
      cross_ge_forward)`` equal the compile's ``streams.params`` reads
      the closed form over ``streams.issue_cycle`` (once per call);
    * every other config joins one :func:`_level_replay`, one row per
      distinct ``(and_latency, xor_latency, cross_ge_forward)`` -- a
      DRAM-bandwidth, queue or writeback sweep varies none of them;
      ``writeback_stages`` is added per config afterwards.

    Mixed batches therefore always work, and every result is
    bit-identical to a serial :func:`compute_cycles_reference` call.
    A config that is not the compile's machine raises
    (:func:`check_compiled_for`).
    """
    configs = list(configs)
    for config in configs:
        check_compiled_for(streams, config)
    if not streams.n_instructions:  # nothing issues, nothing drains
        return [(0, {}, StallBreakdown()) for _ in configs]
    scheduled = _replay_key(streams.params)
    results: List = [None] * len(configs)
    replayed: List[int] = []
    for index, config in enumerate(configs):
        if config.sim_engine == "reference" or config.model_bank_conflicts:
            results[index] = compute_cycles_reference(streams, config)
        elif _replay_key(config) == scheduled:
            plan = schedule_plan(streams)
            if plan.own_row is None:  # config-independent: once per plan
                plan.own_row = _scheduled_rows(streams, [scheduled], plan.issue[None])[0]
            results[index] = _charge(streams, plan.own_row, config)
        else:
            replayed.append(index)
    if replayed:
        keys = [_replay_key(configs[index]) for index in replayed]
        unique = list(dict.fromkeys(keys))
        rows = dict(zip(unique, _level_replay(streams, unique)))
        for index, key in zip(replayed, keys):
            results[index] = _charge(streams, rows[key], configs[index])
    return results


def _charge(streams, row, config) -> Tuple[int, Dict[int, int], StallBreakdown]:
    """One config's (cycles, issued per GE, stalls) from its key's row
    ``(finish before writeback, dependence, window_sync, last issue)``:
    its writeback and drain go on top."""
    finish, dependence, window_sync, last_issue = row
    finish += config.writeback_stages
    stalls = StallBreakdown(
        dependence=dependence,
        window_sync=window_sync,
        drain=max(0, finish - (last_issue + 1)),
    )
    return finish, dict(schedule_plan(streams).issued), stalls


class _SchedulePlan:
    """Program-order NumPy view of the compile's schedule.

    Config-independent and kept out of pickles like the level plan,
    which shares its ``ge``.  The closed form reads ``issue``, ``prev`` (the
    GE's previous instruction, ``n`` for its first), the operand
    producer indices ``src_a`` / ``src_b`` (``n`` for a primary input)
    and the cross-GE flags -- index ``n`` is a slot that is always 0 --
    and keeps its row for the compile's own key in ``own_row``; the
    coupled model reads the byte-charge flags.
    """

    __slots__ = ("issue", "ge", "prev", "src_a", "src_b", "fwd_a", "fwd_b",
                 "is_and", "live", "oor_a", "oor_b", "issued", "own_row")

    def __init__(self, streams: StreamSet) -> None:
        graph = streams.depgraph
        n, n_inputs = streams.n_instructions, graph.n_inputs
        # Copies of the narrow columns: a plan never keeps a view.
        self.issue = column_view(streams.issue_cycle).astype(np.int64)
        self.ge = np.array(column_view(streams.ge_of))
        ge = self.ge.astype(np.int64)
        self.own_row = None
        # Each GE's stream in program order (a stable sort by GE, a radix
        # sort on the narrow dtype); the previous entry within a GE.
        order = np.argsort(self.ge, kind="stable")
        prev = np.full(n, n, dtype=np.int64)
        prev[1:] = order[:-1]
        prev[np.flatnonzero(np.diff(ge[order]) != 0) + 1] = n
        self.prev = np.empty(n, dtype=np.int32)
        self.prev[order] = prev
        producer_ge = np.append(ge, -1)
        for name, column in (("a", graph.a_of), ("b", graph.b_of)):
            wire = column_view(column)
            src = np.where(wire >= n_inputs, wire - n_inputs, n)
            src = src.astype(np.int32)  # an index table, like the level plan's
            setattr(self, "src_" + name, src)
            setattr(self, "fwd_" + name,
                    (producer_ge[src] >= 0) & (producer_ge[src] != ge))
        oor_a, oor_b = graph.oor_flags(streams.window.capacity)
        for name, column in (("is_and", graph.is_and), ("live", streams.program.live),
                             ("oor_a", oor_a), ("oor_b", oor_b)):
            setattr(self, name, column_view(column).astype(bool))
        counts = np.bincount(ge, minlength=streams.n_ges)
        self.issued = {g: int(count) for g, count in enumerate(counts) if count}


def schedule_plan(streams: StreamSet) -> _SchedulePlan:
    """Build (or fetch the memoized) program-order schedule plan."""
    plan = getattr(streams, _SCHEDULE_ATTR, None)
    if plan is None:
        plan = _SchedulePlan(streams)
        setattr(streams, _SCHEDULE_ATTR, plan)
    return plan


def _key_columns(keys):
    """``(R, 1)`` AND-latency, XOR-latency and forward columns of
    :func:`_replay_key` tuples, broadcast against per-instruction rows."""
    return (np.array(column, dtype=np.int64)[:, None] for column in zip(*keys))


def _scheduled_rows(
    streams: StreamSet, keys, issue: np.ndarray
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
    plan = schedule_plan(streams)
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
    *segment*; index ``n`` is a sentinel kept at 0.  Kept out of pickles
    (``StreamSet.__getstate__``): it rebuilds in O(n) array ops from
    ``streams.level_of``.

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

    def __init__(self, streams: StreamSet) -> None:
        graph = streams.depgraph
        n, n_ges = streams.n_instructions, streams.n_ges
        n_levels = max(streams.n_levels, 1)
        schedule = schedule_plan(streams)
        level = column_view(streams.level_of).astype(np.int64)
        # One stable sort (a radix sort on the narrowest dtype).
        key = level * n_ges + schedule.ge
        order = np.argsort(
            key.astype(np.min_scalar_type(n_levels * n_ges)), kind="stable"
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
        capacity = streams.window.capacity
        # The instruction that evicts each operand's wire.
        evictor_a, evictor_b = (
            column_view(column) + (capacity - graph.n_inputs)
            for column in (graph.a_of, graph.b_of)
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


def numpy_plan(streams: StreamSet) -> _NumpyPlan:
    """Build (or fetch the memoized) level-order NumPy plan."""
    plan = getattr(streams, _PLAN_ATTR, None)
    if plan is None:
        plan = _NumpyPlan(streams)
        setattr(streams, _PLAN_ATTR, plan)
    return plan


def _level_replay(streams: StreamSet, keys) -> List[Tuple[int, int, int, int]]:
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
    rows = _scheduled_rows(streams, keys, _replay_issue(streams, keys))
    if max(row[0] for row in rows) + streams.n_instructions >= _SEG_BIAS:
        raise OverflowError("cycle count overflows the segment bias")
    return rows


def _replay_issue(streams: StreamSet, keys) -> np.ndarray:
    """The ``(R, n)`` program-order issue cycles of :func:`_level_replay`."""
    plan = numpy_plan(streams)
    and_lat, xor_lat, forward = _key_columns(keys)
    # Per-row weight of each entry kind (see _NumpyPlan.kind), (5, R).
    table = np.hstack([
        np.zeros_like(and_lat), xor_lat - 1, and_lat - 1,
        xor_lat - 1 + forward, and_lat - 1 + forward,
    ]).T
    weight = np.take(table, plan.kind, axis=0)
    weight += plan.bias[:, None]
    acc = np.zeros((streams.n_instructions + 1, len(keys)), dtype=np.int64)

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
    streams: StreamSet, config: HaacConfig
) -> Tuple[int, Dict[int, int], StallBreakdown]:
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

    stalls = StallBreakdown()
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
    return max_finish, dict(sorted(issued_per_ge.items())), stalls
