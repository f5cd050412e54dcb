"""The row-major level replay, kept as the test oracle.

This is ``engine._NumpyPlan`` and ``engine._replay_issue`` as they stood
before the replay state became instruction-major and biased: an ``(R, n
+ 1)`` array of ``issue + 1``, a ``(3, n)`` predecessor table, a
separate window-sync CSR, and the segment shifts added and taken off
around each level's prefix max.  Moved here verbatim (the plan is built
per call instead of memoized): ``src/`` keeps one replay, and the
differential tests hold its issue arrays to this one.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import (
    _SEG_BIAS,
    CompiledArrays,
    _key_columns,
    schedule_plan,
)


class _NumpyPlan:
    """The level replay's config-independent predecessor tables.

    Instructions are indexed in dependence-level order (stable sort by
    ``(level, ge, position)``), so level ``l`` is the contiguous slice
    ``level_bounds[l]:level_bounds[l + 1]`` and each GE's run within it
    a contiguous, program-ordered *segment*.  Index ``n`` is a sentinel
    the replay keeps at 0.  Cached unpickled (see
    ``CompiledArrays.__getstate__``) because it rebuilds in O(n) array
    ops from the persisted ``level_of``.

    * ``pred`` -- ``(3, n)``, so level ``[s, e)`` gathers three blocks
      ``pred[:, s:e]``: the producer of operand ``a``, the producer of
      operand ``b`` (the sentinel for a primary input) and the GE's
      previous instruction at segment starts (the sentinel elsewhere);
    * ``kind`` -- which column of the replay's per-call weight table
      each ``pred`` entry adds: 0 nothing, else ``1 + producer is AND
      + 2 * cross-GE``;
    * ``ws_idx`` -- the window-sync CSR, on levels that evict only: per
      instruction the evicted wire's producer, its readers earlier in
      program order and one sentinel (so no run is empty).  Level ``l``
      owns ``ws_idx[ws_bounds[l]:ws_bounds[l + 1]]`` (empty when it
      evicts nothing) and ``ws_rel`` is each run's offset in it;
    * ``shift`` -- ``segment ordinal * _SEG_BIAS - k`` for the ``k``-th
      instruction of its segment, ``unshift`` is ``1 - shift``;
    * ``pos`` -- program position -> level-order index.
    """

    __slots__ = ("level_bounds", "pred", "kind", "ws_idx", "ws_bounds",
                 "ws_rel", "shift", "unshift", "pos")

    def __init__(self, arrays: CompiledArrays) -> None:
        arrays.ensure_levels()
        n = arrays.n_instructions
        n_levels = max(arrays.n_levels, 1)
        level = np.asarray(arrays.level_of, dtype=np.int64)
        ge = np.asarray(arrays.ge_of, dtype=np.int64)
        order = np.lexsort((ge, level))
        index = np.arange(n, dtype=np.int64)
        # int32 index tables halve the resident plan; the gathers widen
        # each level's slice.  pos[n] is the sentinel.
        pos = np.full(n + 1, n, dtype=np.int32)
        pos[order] = index
        self.pos = pos[:n]
        level_s = level[order]
        ge_s = ge[order]
        counts = np.bincount(level, minlength=n_levels)
        level_bounds = np.concatenate(([0], np.cumsum(counts)))
        self.level_bounds = level_bounds.tolist()

        # Segments: runs of equal (level, ge) in level order.
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = (ge_s[1:] != ge_s[:-1]) | (level_s[1:] != level_s[:-1])
        seg_first = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        level_first_seg = np.concatenate(([0], np.cumsum(
            np.bincount(level_s[seg_first], minlength=n_levels)
        )))
        ordinal = seg_id - level_first_seg[level_s]
        self.shift = ordinal * _SEG_BIAS - (index - seg_first[seg_id])
        self.unshift = 1 - self.shift

        schedule = schedule_plan(arrays)
        producer_and = np.append(schedule.is_and, False)
        self.pred = np.empty((3, n), dtype=np.int32)
        self.kind = np.zeros((3, n), dtype=np.uint8)
        for block, (src, fwd) in enumerate((
            (schedule.src_a, schedule.fwd_a), (schedule.src_b, schedule.fwd_b)
        )):
            src = src[order]
            self.pred[block] = pos[src]
            self.kind[block] = (src < n) * (1 + producer_and[src] + 2 * fwd[order])
        self.pred[2] = np.where(new_seg, pos[schedule.prev[order]], n)

        # Window-sync CSR: owner t (program order) overwrites the slot of
        # wire w = n_inputs + t - capacity; members are w's producer
        # t - capacity, its readers q < t and the sentinel n.
        capacity = arrays.capacity
        evicting = np.zeros(n_levels, dtype=bool)
        evicting[level[max(capacity - arrays.n_inputs, 0):]] = True
        sentinel_owners = np.flatnonzero(evicting[level])
        # The instruction that evicts each operand's wire.
        evictor_a, evictor_b = (
            np.asarray(column, dtype=np.int64) + capacity - arrays.n_inputs
            for column in (arrays.a_of, arrays.b_of)
        )
        read_a = (evictor_a > index) & (evictor_a < n)
        read_b = (evictor_b > index) & (evictor_b < n) & (evictor_b != evictor_a)
        owner_s = pos[np.concatenate((
            sentinel_owners, index[capacity:], evictor_a[read_a], evictor_b[read_b]
        ))]
        members = np.concatenate((
            np.full(len(sentinel_owners), n), index[:max(n - capacity, 0)],
            index[read_a], index[read_b],
        ))
        self.ws_idx = pos[members[np.argsort(owner_s)]]
        run_start = np.concatenate(([0], np.cumsum(np.bincount(owner_s, minlength=n))))
        self.ws_bounds = run_start[level_bounds].tolist()
        self.ws_rel = (run_start[:n] - run_start[level_bounds[level_s]]).astype(np.int32)


def scalar_replay_issue(arrays: CompiledArrays, keys) -> np.ndarray:
    """The ``(R, n)`` program-order issue cycles of :func:`_level_replay`."""
    n = arrays.n_instructions
    plan = _NumpyPlan(arrays)
    n_rows = len(keys)
    and_lat, xor_lat, forward = _key_columns(keys)
    # Per-row weight of each pred kind (see _NumpyPlan.kind).
    table = np.hstack([
        np.zeros_like(and_lat), xor_lat - 1, and_lat - 1,
        xor_lat - 1 + forward, and_lat - 1 + forward,
    ])
    weight = np.take(table, plan.kind, axis=1)
    nxt = np.zeros((n_rows, n + 1), dtype=np.int64)

    pred, ws_idx, ws_rel = plan.pred, plan.ws_idx, plan.ws_rel
    shift, unshift = plan.shift, plan.unshift
    bounds, ws_bounds = plan.level_bounds, plan.ws_bounds
    for s, e, cs, ce in zip(bounds, bounds[1:], ws_bounds, ws_bounds[1:]):
        ready = np.take(nxt, pred[:, s:e], axis=1)
        ready += weight[:, :, s:e]
        ready = ready.max(axis=1)
        if cs != ce:
            slot_free = np.maximum.reduceat(
                np.take(nxt, ws_idx[cs:ce], axis=1), ws_rel[s:e], axis=1
            )
            np.maximum(ready, slot_free, out=ready)
        ready += shift[s:e]
        level = nxt[:, s:e]
        np.maximum.accumulate(ready, axis=1, out=level)
        level += unshift[s:e]
    return nxt[:, plan.pos] - 1
