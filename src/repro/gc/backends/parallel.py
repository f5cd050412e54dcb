"""Process-parallel label-hash backend: sharded AND-level batches.

The paper's throughput claim is that garbling scales with the number of
gate engines working independent AND gates within a level.  This backend
is the software analogue: every batch call (one multiplicative-depth
level of AND gates, see :func:`repro.gc.garble.garble_circuit_batched`)
is split into contiguous shards and dispatched to a **persistent pool of
worker processes**, each running the ``numpy`` backend (or the ``inner``
one named).

Design invariants (see DESIGN.md section 7):

* **Deterministic reassembly.**  A batch of ``n`` labels is split into
  ``workers`` contiguous shards whose boundaries depend only on
  ``(n, workers)``.  Worker ``i`` writes its results into the disjoint
  slice ``[start_i, stop_i)`` of the shared output array, so the
  reassembled batch is *bitwise identical* to a serial evaluation
  regardless of worker scheduling.  The gate hash is a pure function,
  hence whole-circuit transcripts (tables, labels, decode bits) match
  the serial batched path exactly.
* **Shared-memory transport.**  Label, key-schedule and ciphertext
  arrays travel through :mod:`multiprocessing.shared_memory` blocks --
  one reusable, grow-on-demand pair per pool -- so per-level dispatch
  costs two memcpys, not a pickle of the arrays.  Task tuples contain
  only primitives (block names, shard bounds), so they pickle cheaply on
  both fork- and spawn-based platforms.
* **Per-worker key expansion.**  In re-keyed mode the per-gate AES key
  schedules are expanded *inside* the worker that hashes the shard
  (``hash_labels``), or sharded across the pool when the caller
  pre-expands whole-program schedules (``expand_keys``), mirroring HAAC
  streaming round keys to each gate engine rather than broadcasting
  them.
* **Worker-resident schedules.**  ``expand_keys_program`` shards the
  whole-program expansion *into a dedicated resident block* that stays
  mapped in every worker (the attachment LRU keeps it hot); per-level
  ``hash_schedule_rows`` calls then ship 8-byte row indices instead of
  re-copying 176-byte schedule rows through the transport blocks every
  AND level.  Each expansion gets its own block under a generation
  stamp, and a pool keeps the most recent ``_SCHED_BLOCK_CAP``
  generations live so concurrent sessions sharing the pool all stay
  hot; a handle whose generation was evicted (or whose pool died)
  silently degrades to the parent-side copy of the expansion.
* **Per-shard retry, then serial fallback.**  A failed shard is
  re-dispatched once (task errors retry just the failed shards; a
  broken/timed-out pool is rebuilt with fresh transport blocks and the
  whole batch re-dispatched) before the backend permanently falls back
  to its in-process inner backend.  The fallback is observable: a
  ``RuntimeWarning`` fires once, the reason lands in
  :attr:`pool_disabled_reason` and -- via :mod:`repro.faults` -- in
  ``SessionResult.recovery_events``.  Small batches (below
  :attr:`min_batch` labels) never pay the dispatch overhead.

Select with ``backend="parallel"`` (worker count from the
``REPRO_GC_WORKERS`` environment variable, default ``os.cpu_count()``)
or pin the count in the spec: ``backend="parallel:4"``,
``REPRO_GC_BACKEND=parallel:4``, ``HaacConfig.gc_workers`` or the CLI
``--workers`` flag.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import signal
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from ...faults import active_plan as _active_plan
from ...faults import record_recovery as _record_recovery
from .base import _WARN_ONCE, BackendUnavailable, LabelHashBackend, get_backend

__all__ = [
    "ParallelLabelHashBackend",
    "ResidentSchedules",
    "WORKERS_ENV_VAR",
    "shard_bounds",
    "shutdown_pools",
]

WORKERS_ENV_VAR = "REPRO_GC_WORKERS"

#: Batches smaller than this many labels run in-process: the dispatch
#: memcpy + wakeup costs more than the hashing it would spread out.
DEFAULT_MIN_BATCH = 512

_LABEL_BYTES = 16
_SCHED_BYTES = 176  # 44 uint32 round-key words


def shard_bounds(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even shard boundaries -- a pure function of
    ``(n, workers)`` so reassembly order never depends on scheduling."""
    shards = min(workers, n)
    bounds = []
    base, extra = divmod(n, shards)
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def default_workers() -> int:
    """Worker count when the spec does not pin one: environment, else
    every core."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise BackendUnavailable(
                f"{WORKERS_ENV_VAR}={env!r} is not an integer"
            ) from None
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

_WORKER_BACKEND: Optional[LabelHashBackend] = None
_WORKER_SHM: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _worker_init(inner_name: str, start_method: str) -> None:
    """Pool initializer: resolve the in-worker compute backend once.

    Importing this module (which spawn does to unpickle the function)
    pulls in the :mod:`repro.gc.backends` package, so the registry is
    populated in fresh interpreters too.  ``start_method`` is recorded
    in the task environment purely for debuggability.
    """
    global _WORKER_BACKEND
    _WORKER_BACKEND = get_backend(inner_name)
    os.environ["REPRO_GC_PARALLEL_START"] = start_method


#: Attachment-cache bound: a task references at most two block names,
#: so anything beyond a few generations of grow-on-demand replacement
#: is a dead mapping worth releasing.
_WORKER_SHM_CAP = 8


def _worker_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to (and cache, LRU-bounded) a parent-owned block.

    Attaching re-registers the segment with the resource tracker, but
    pool workers (fork *and* spawn) inherit the parent's tracker, whose
    name cache is a set -- the duplicate collapses, and the parent's
    explicit ``unlink`` on close/atexit retires the registration.  Do
    NOT unregister here: the tracker is shared, so that would drop the
    parent's own registration out from under it.
    """
    shm = _WORKER_SHM.pop(name, None)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
    _WORKER_SHM[name] = shm  # re-insert = move to MRU position
    while len(_WORKER_SHM) > _WORKER_SHM_CAP:
        _, stale = _WORKER_SHM.popitem(last=False)
        stale.close()
    return shm


def _run_shard(task: Tuple) -> int:
    """Execute one shard: read slice, hash, write slice.  Returns the
    number of items processed (a cheap liveness signal).

    ``extra`` carries kind-specific primitives; for ``sched_rows`` it
    names the resident whole-program schedule block (attached once per
    worker and kept mapped by the LRU cache, so per-level tasks ship
    only row indices)."""
    kind, in_name, out_name, start, stop, n, rekeyed, extra = task
    backend = _WORKER_BACKEND
    if backend is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("parallel worker used before initialization")
    in_buf = _worker_attach(in_name).buf
    out_buf = _worker_attach(out_name).buf

    if kind == "ints":
        labels = [
            int.from_bytes(in_buf[_LABEL_BYTES * i : _LABEL_BYTES * (i + 1)], "big")
            for i in range(start, stop)
        ]
        tweak_base = _LABEL_BYTES * n
        tweaks = [
            int.from_bytes(
                in_buf[tweak_base + _LABEL_BYTES * i : tweak_base + _LABEL_BYTES * (i + 1)],
                "big",
            )
            for i in range(start, stop)
        ]
        hashes = backend.hash_labels(labels, tweaks, rekeyed)
        for i, value in zip(range(start, stop), hashes):
            out_buf[_LABEL_BYTES * i : _LABEL_BYTES * (i + 1)] = value.to_bytes(
                _LABEL_BYTES, "big"
            )
        return stop - start

    import numpy as np

    if kind == "expand":
        keys = np.ndarray((n, 4), dtype=np.uint32, buffer=in_buf)
        out = np.ndarray((n, 44), dtype=np.uint32, buffer=out_buf)
        out[start:stop] = backend.expand_keys(keys[start:stop])
    elif kind == "sched":
        labels = np.ndarray((n, 4), dtype=np.uint32, buffer=in_buf)
        scheds = np.ndarray(
            (n, 44), dtype=np.uint32, buffer=in_buf, offset=_LABEL_BYTES * n
        )
        out = np.ndarray((n, 4), dtype=np.uint32, buffer=out_buf)
        out[start:stop] = backend.hash_with_schedules(
            labels[start:stop], scheds[start:stop]
        )
    elif kind == "sched_rows":
        sched_name, sched_n = extra
        labels = np.ndarray((n, 4), dtype=np.uint32, buffer=in_buf)
        rows = np.ndarray(
            (n,), dtype=np.int64, buffer=in_buf, offset=_LABEL_BYTES * n
        )
        resident = np.ndarray(
            (sched_n, 44),
            dtype=np.uint32,
            buffer=_worker_attach(sched_name).buf,
        )
        out = np.ndarray((n, 4), dtype=np.uint32, buffer=out_buf)
        out[start:stop] = backend.hash_with_schedules(
            labels[start:stop], resident[rows[start:stop]]
        )
    elif kind == "fixed":
        labels = np.ndarray((n, 4), dtype=np.uint32, buffer=in_buf)
        tweaks = np.ndarray(
            (n, 4), dtype=np.uint32, buffer=in_buf, offset=_LABEL_BYTES * n
        )
        out = np.ndarray((n, 4), dtype=np.uint32, buffer=out_buf)
        out[start:stop] = backend.hash_fixed_key_blocks(
            labels[start:stop], tweaks[start:stop]
        )
    else:  # pragma: no cover - parent only emits known kinds
        raise ValueError(f"unknown shard kind {kind!r}")
    return stop - start


# ---------------------------------------------------------------------------
# Parent-process side: pool + shared-memory lifetime
# ---------------------------------------------------------------------------


class _PoolHandle:
    """One persistent worker pool plus its reusable transport blocks.

    A :class:`~concurrent.futures.ProcessPoolExecutor` rather than
    ``multiprocessing.Pool``: the executor detects dead workers and
    raises ``BrokenProcessPool`` instead of blocking forever, which the
    backend turns into its silent serial fallback.
    """

    def __init__(self, workers: int, inner_name: str, start_method: str) -> None:
        ctx = multiprocessing.get_context(start_method)
        self.pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(inner_name, start_method),
        )
        self.workers = workers
        self._in: Optional[shared_memory.SharedMemory] = None
        self._out: Optional[shared_memory.SharedMemory] = None
        # Resident whole-program key-schedule blocks, one per live
        # expand_keys_program generation, keyed by generation stamp.
        # Concurrent sessions sharing this pool each keep their own
        # program's expansion resident (up to _SCHED_BLOCK_CAP, evicted
        # LRU); an evicted or retired generation silently degrades to
        # the parent-side copy.  Kept separate from the per-level
        # transport blocks so level dispatches never clobber them.
        self._sched_blocks: "OrderedDict[int, shared_memory.SharedMemory]" = (
            OrderedDict()
        )
        # Freshly written expansion not yet published under a
        # generation: staged by schedule_block, published by
        # adopt_schedule once the dispatch that fills it succeeded.
        self._pending_sched: Optional[shared_memory.SharedMemory] = None

    @staticmethod
    def _ensure(
        block: Optional[shared_memory.SharedMemory], nbytes: int
    ) -> shared_memory.SharedMemory:
        if block is not None and block.size >= nbytes:
            return block
        if block is not None:
            _retire_block(block)
        size = 1 << max(12, (max(1, nbytes) - 1).bit_length())
        return shared_memory.SharedMemory(create=True, size=size)

    def buffers(
        self, in_nbytes: int, out_nbytes: int
    ) -> Tuple[shared_memory.SharedMemory, shared_memory.SharedMemory]:
        """Grow-on-demand input/output blocks (names go into each task)."""
        self._in = self._ensure(self._in, in_nbytes)
        self._out = self._ensure(self._out, out_nbytes)
        return self._in, self._out

    def schedule_block(self, nbytes: int) -> shared_memory.SharedMemory:
        """Stage a fresh resident-schedule block for one expansion.

        Always a new block: live generations owned by other sessions
        keep their own blocks untouched.  A stale pending block (a
        previous expansion whose dispatch failed before adoption) is
        retired first.
        """
        if self._pending_sched is not None:
            _retire_block(self._pending_sched)
        size = 1 << max(12, (max(1, nbytes) - 1).bit_length())
        self._pending_sched = shared_memory.SharedMemory(create=True, size=size)
        return self._pending_sched

    def adopt_schedule(self, generation: int) -> None:
        """Publish the pending block under ``generation`` (LRU-capped)."""
        if self._pending_sched is None:  # pragma: no cover - caller bug
            raise RuntimeError("no pending schedule block to adopt")
        self._sched_blocks[generation] = self._pending_sched
        self._pending_sched = None
        while len(self._sched_blocks) > _SCHED_BLOCK_CAP:
            _, stale = self._sched_blocks.popitem(last=False)
            _retire_block(stale)

    def resident_schedule(
        self, generation: int
    ) -> Optional[shared_memory.SharedMemory]:
        """The live block for ``generation``, LRU-touched, or None."""
        block = self._sched_blocks.pop(generation, None)
        if block is not None:
            self._sched_blocks[generation] = block  # move to MRU
        return block

    def close(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)
        blocks = [self._in, self._out, self._pending_sched]
        blocks.extend(self._sched_blocks.values())
        for block in blocks:
            if block is not None:
                _retire_block(block)
        self._in = self._out = self._pending_sched = None
        self._sched_blocks.clear()


#: Live resident-schedule generations kept per pool: enough for a
#: handful of concurrent sessions to stay hot; beyond it the
#: least-recently-used program degrades to its parent-side copy.
_SCHED_BLOCK_CAP = 4


def _retire_block(block: shared_memory.SharedMemory) -> None:
    try:
        block.close()
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


_POOLS: Dict[Tuple[int, str, str], _PoolHandle] = {}
_ATEXIT_REGISTERED = False

#: Monotone schedule-residency generations, shared across pools so a
#: handle minted against a retired pool can never match a fresh one.
_SCHED_GENERATIONS = itertools.count(1)


class ResidentSchedules:
    """Handle for a whole-program key-schedule expansion.

    ``array`` is the parent-side expansion (every serial fallback uses
    it); ``shm_name``/``n`` locate the worker-resident copy and
    ``generation`` pins the pool state it was written under --
    ``hash_schedule_rows`` verifies the generation before trusting the
    resident block and silently degrades to ``array`` otherwise.
    """

    __slots__ = ("array", "shm_name", "generation", "n")

    def __init__(self, array, shm_name: str, generation: int, n: int) -> None:
        self.array = array
        self.shm_name = shm_name
        self.generation = generation
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, item):
        return self.array[item]


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _get_pool(workers: int, inner_name: str, start_method: str) -> _PoolHandle:
    """Create (or reuse) the persistent pool for this configuration."""
    global _ATEXIT_REGISTERED
    key = (workers, inner_name, start_method)
    handle = _POOLS.get(key)
    if handle is None:
        handle = _PoolHandle(workers, inner_name, start_method)
        _POOLS[key] = handle
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return handle


def _drop_pool(workers: int, inner_name: str, start_method: str) -> None:
    """Retire one pool (and unlink its blocks) after a dispatch failure.

    Unlinking matters for correctness, not just hygiene: a shard that
    timed out may still be running, and tearing the blocks down here
    guarantees it can never scribble into a block a *fresh* pool (new
    names) later uses for another batch.
    """
    handle = _POOLS.pop((workers, inner_name, start_method), None)
    if handle is not None:
        try:
            handle.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def shutdown_pools() -> None:
    """Terminate every persistent pool and release its shared memory."""
    while _POOLS:
        _, handle = _POOLS.popitem()
        try:
            handle.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ParallelLabelHashBackend(LabelHashBackend):
    """Shard batch hash calls across a persistent process pool.

    ``workers`` defaults to ``REPRO_GC_WORKERS`` / ``os.cpu_count()``;
    ``inner`` is the per-worker compute backend (default ``numpy``).
    ``min_batch`` is the smallest batch (in labels) worth dispatching.
    ``start_method`` picks the :mod:`multiprocessing` start method
    (default ``fork`` where available).
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        inner: Optional[str] = None,
        min_batch: Optional[int] = None,
        start_method: Optional[str] = None,
        timeout: float = 600.0,
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise BackendUnavailable("parallel backend needs at least 1 worker")
        inner = inner or "numpy"
        if inner.split(":", 1)[0] == "parallel":
            raise BackendUnavailable("parallel backend cannot nest itself as inner")
        self._inner = get_backend(inner)
        self.inner_name = self._inner.name
        self.vectorized = self._inner.vectorized
        self.min_batch = DEFAULT_MIN_BATCH if min_batch is None else min_batch
        self.start_method = start_method or _default_start_method()
        self.timeout = timeout  # per-shard ceiling; a hung pool falls back
        self.pool_disabled_reason: Optional[str] = None
        self.pool_batches = 0  # successful sharded dispatches (test hook)

    @classmethod
    def from_spec(cls, arg: Optional[str] = None) -> "ParallelLabelHashBackend":
        """Build from the spec suffix: ``parallel`` or ``parallel:N``."""
        if arg is None or arg == "":
            return cls()
        try:
            workers = int(arg)
        except ValueError:
            raise BackendUnavailable(
                f"bad parallel backend spec {('parallel:' + arg)!r}; "
                "expected parallel:<workers>"
            ) from None
        if workers < 1:
            raise BackendUnavailable(
                f"parallel backend needs >= 1 worker, got {workers}"
            )
        return cls(workers=workers)

    @property
    def inner(self) -> LabelHashBackend:
        """The in-process backend used for serial fallbacks and shards."""
        return self._inner

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _use_pool(self, n_items: int) -> bool:
        return (
            self.workers > 1
            and n_items >= self.min_batch
            and self.pool_disabled_reason is None
        )

    def _dispatch(
        self,
        kind: str,
        n: int,
        rekeyed: bool,
        in_nbytes: int,
        out_nbytes: int,
        fill,
        extra=None,
        resident_out=False,
    ):
        """Run one sharded batch; returns the output block or raises.

        ``fill(in_buf)`` writes the input arrays into the shared block.
        The caller copies results out of the returned block *before* the
        next dispatch reuses it.  ``extra`` rides along in every task
        tuple (primitives only -- see ``_run_shard``).  With
        ``resident_out`` the workers write into the pool's persistent
        schedule block (which later ``sched_rows`` tasks read in place)
        instead of the reusable transport block.

        A failed shard is re-dispatched once before this raises (and the
        caller's serial fallback kicks in): task-level errors retry just
        the failed shards on the live pool; a broken or timed-out pool
        is rebuilt (fresh workers *and* fresh transport blocks, so a
        zombie shard can never scribble into the retry's buffers) and
        the whole batch re-dispatched.  Either recovery is recorded in
        the active :class:`repro.faults.RecoveryLog`.
        """

        def stage(handle: _PoolHandle):
            if resident_out:
                in_shm, _ = handle.buffers(in_nbytes, 1)
                out_shm = handle.schedule_block(out_nbytes)
            else:
                in_shm, out_shm = handle.buffers(in_nbytes, out_nbytes)
            fill(in_shm.buf)
            tasks = [
                (kind, in_shm.name, out_shm.name, start, stop, n, rekeyed, extra)
                for start, stop in shard_bounds(n, self.workers)
            ]
            return out_shm, tasks

        handle = _get_pool(self.workers, self.inner_name, self.start_method)
        out_shm, tasks = stage(handle)
        futures = [handle.pool.submit(_run_shard, task) for task in tasks]
        self._maybe_kill_worker(handle)
        failed: List[Tuple[int, BaseException]] = []
        broken = False
        for index, future in enumerate(futures):
            try:
                future.result(timeout=self.timeout)
            except Exception as exc:
                failed.append((index, exc))
                if isinstance(exc, (BrokenProcessPool, TimeoutError, _FuturesTimeout)):
                    broken = True
        if failed:
            first = failed[0][1]
            if broken:
                _record_recovery(
                    "pool",
                    "pool_rebuild",
                    f"{kind}: {type(first).__name__}; rebuilding pool and "
                    f"re-dispatching all {len(tasks)} shard(s)",
                )
                _drop_pool(self.workers, self.inner_name, self.start_method)
                handle = _get_pool(self.workers, self.inner_name, self.start_method)
                out_shm, tasks = stage(handle)
                retry = [handle.pool.submit(_run_shard, task) for task in tasks]
            else:
                _record_recovery(
                    "pool",
                    "shard_retry",
                    f"{kind}: re-dispatching {len(failed)} failed shard(s) "
                    f"({type(first).__name__})",
                )
                retry = [
                    handle.pool.submit(_run_shard, tasks[index])
                    for index, _ in failed
                ]
            for future in retry:
                future.result(timeout=self.timeout)
        self.pool_batches += 1
        return out_shm

    def _maybe_kill_worker(self, handle: _PoolHandle) -> None:
        """Chaos hook: SIGKILL one pool worker when the active fault
        plan draws ``kill_worker`` (the dispatch in flight then takes
        the pool-rebuild retry path above)."""
        plan = _active_plan()
        if plan is None or not plan.kill_worker():
            return
        processes = getattr(handle.pool, "_processes", None) or {}
        for pid in sorted(processes):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - already gone
                continue
            return

    def _disable(self, exc: BaseException) -> None:
        """Record the failure and fall back to the inner backend for the
        rest of this backend's lifetime (machines where process pools
        cannot start must still run every path).

        The degradation is observable: a ``RuntimeWarning`` fires once
        per backend instance, the reason lands in the active
        :class:`repro.faults.RecoveryLog` (and from there in
        ``SessionResult.recovery_events``), and callers can inspect
        :attr:`pool_disabled_reason` directly.

        The shared pool handle is retired too: after a timeout a shard
        may still be running, and other backend instances with the same
        configuration must not inherit a pool whose transport blocks a
        zombie task could still write into.
        """
        if self.pool_disabled_reason is None:
            self.pool_disabled_reason = f"{type(exc).__name__}: {exc}"
            # Deduplicated per pool configuration, not per instance: a
            # fleet of sessions sharing one broken pool surfaces one
            # warning, and reset_warn_once() re-arms it.
            _WARN_ONCE.warn(
                ("pool_disabled", self.workers, self.inner_name, self.start_method),
                f"parallel gc pool disabled ({self.pool_disabled_reason}); "
                f"falling back to in-process {self.inner_name!r} backend",
                stacklevel=4,
            )
            _record_recovery("pool", "pool_disabled", self.pool_disabled_reason)
        _drop_pool(self.workers, self.inner_name, self.start_method)

    # ------------------------------------------------------------------
    # Generic batch API
    # ------------------------------------------------------------------

    def hash_labels(
        self,
        labels: Sequence[int],
        tweaks: Sequence[int],
        rekeyed: bool = True,
    ) -> List[int]:
        if len(labels) != len(tweaks):
            raise ValueError("labels and tweaks must align")
        n = len(labels)
        if not self._use_pool(n):
            return self._inner.hash_labels(labels, tweaks, rekeyed)

        def fill(buf) -> None:
            for i, label in enumerate(labels):
                buf[_LABEL_BYTES * i : _LABEL_BYTES * (i + 1)] = label.to_bytes(
                    _LABEL_BYTES, "big"
                )
            base = _LABEL_BYTES * n
            for i, tweak in enumerate(tweaks):
                buf[base + _LABEL_BYTES * i : base + _LABEL_BYTES * (i + 1)] = (
                    tweak.to_bytes(_LABEL_BYTES, "big")
                )

        try:
            out_shm = self._dispatch(
                "ints", n, rekeyed, 2 * _LABEL_BYTES * n, _LABEL_BYTES * n, fill
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.hash_labels(labels, tweaks, rekeyed)
        data = bytes(out_shm.buf[: _LABEL_BYTES * n])
        return [
            int.from_bytes(data[offset : offset + _LABEL_BYTES], "big")
            for offset in range(0, len(data), _LABEL_BYTES)
        ]

    # ------------------------------------------------------------------
    # Vectorized primitives (present when the inner backend is NumPy):
    # conversions delegate, the hot calls shard across the pool.
    # ------------------------------------------------------------------

    def ints_to_blocks(self, values: Sequence[int]):
        return self._inner.ints_to_blocks(values)

    def blocks_to_ints(self, blocks) -> List[int]:
        return self._inner.blocks_to_ints(blocks)

    def tweaks_to_keys(self, tweaks: Sequence[int]):
        return self._inner.tweaks_to_keys(tweaks)

    def sigma_blocks(self, blocks):
        return self._inner.sigma_blocks(blocks)

    def encrypt_blocks(self, blocks, schedules):
        return self._inner.encrypt_blocks(blocks, schedules)

    def _sharded_blocks(self, kind: str, rekeyed: bool, blocks, extra, extra_bytes):
        """Common path for the hash-shaped shard kinds (sched / fixed):
        ``(n, 4)`` label blocks plus a per-row extra array in, ``(n, 4)``
        hash blocks out.  (``expand`` has its own dispatch path -- it
        has no extra array and a 44-word output row.)"""
        import numpy as np

        n = blocks.shape[0]

        def fill(buf) -> None:
            np.ndarray((n, 4), dtype=np.uint32, buffer=buf)[:] = blocks
            np.ndarray(
                extra.shape, dtype=np.uint32, buffer=buf, offset=_LABEL_BYTES * n
            )[:] = extra

        out_shm = self._dispatch(
            kind,
            n,
            rekeyed,
            _LABEL_BYTES * n + extra_bytes,
            _LABEL_BYTES * n,
            fill,
        )
        view = np.ndarray((n, 4), dtype=np.uint32, buffer=out_shm.buf)
        return np.array(view, copy=True)

    def expand_keys(self, keys):
        """Shard whole-program key expansion: each worker pre-expands the
        schedules of its own shard of AND gates."""
        import numpy as np

        n = keys.shape[0]
        if not self._use_pool(n):
            return self._inner.expand_keys(keys)

        def fill(buf) -> None:
            np.ndarray((n, 4), dtype=np.uint32, buffer=buf)[:] = keys

        try:
            out_shm = self._dispatch(
                "expand", n, True, _LABEL_BYTES * n, _SCHED_BYTES * n, fill
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.expand_keys(keys)
        view = np.ndarray((n, 44), dtype=np.uint32, buffer=out_shm.buf)
        return np.array(view, copy=True)

    def hash_with_schedules(self, blocks, schedules):
        n = blocks.shape[0]
        if not self._use_pool(n) or getattr(schedules, "ndim", 2) != 2:
            return self._inner.hash_with_schedules(blocks, schedules)
        try:
            return self._sharded_blocks(
                "sched", True, blocks, schedules, _SCHED_BYTES * n
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.hash_with_schedules(blocks, schedules)

    # ------------------------------------------------------------------
    # Worker-resident whole-program schedules
    # ------------------------------------------------------------------

    def expand_keys_program(self, keys):
        """Expand whole-program schedules *into the resident block*.

        Workers write their expansion shards straight into a dedicated
        shared-memory block that subsequent ``sched_rows`` tasks read in
        place -- the 176-byte schedule rows cross the process boundary
        once per program instead of once per AND level.
        """
        import numpy as np

        n = keys.shape[0]
        if not self._use_pool(n):
            return self._inner.expand_keys(keys)

        def fill(buf) -> None:
            np.ndarray((n, 4), dtype=np.uint32, buffer=buf)[:] = keys

        try:
            sched_shm = self._dispatch(
                "expand", n, True, _LABEL_BYTES * n, _SCHED_BYTES * n, fill,
                resident_out=True,
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.expand_keys(keys)
        handle = _get_pool(self.workers, self.inner_name, self.start_method)
        generation = next(_SCHED_GENERATIONS)
        handle.adopt_schedule(generation)
        view = np.ndarray((n, 44), dtype=np.uint32, buffer=sched_shm.buf)
        return ResidentSchedules(
            array=np.array(view, copy=True),
            shm_name=sched_shm.name,
            generation=generation,
            n=n,
        )

    def _resident_pool(self, sched) -> Optional[_PoolHandle]:
        """The live pool whose resident block backs ``sched``, if any."""
        if not isinstance(sched, ResidentSchedules):
            return None
        handle = _POOLS.get((self.workers, self.inner_name, self.start_method))
        if handle is None or handle.resident_schedule(sched.generation) is None:
            return None
        return handle

    def hash_schedule_rows(self, blocks, schedules, rows):
        """Hash against resident schedule rows: ship 8-byte row indices
        per level, not 176-byte schedule rows."""
        import numpy as np

        n = blocks.shape[0]
        array = (
            schedules.array
            if isinstance(schedules, ResidentSchedules)
            else schedules
        )
        if not self._use_pool(n) or self._resident_pool(schedules) is None:
            # No resident block to index into (plain array, retired
            # generation, small program): gather the rows parent-side
            # and keep the *pooled* sched dispatch for large batches.
            return self.hash_with_schedules(blocks, array[rows])
        row_idx = np.ascontiguousarray(rows, dtype=np.int64)

        def fill(buf) -> None:
            np.ndarray((n, 4), dtype=np.uint32, buffer=buf)[:] = blocks
            np.ndarray(
                (n,), dtype=np.int64, buffer=buf, offset=_LABEL_BYTES * n
            )[:] = row_idx

        try:
            out_shm = self._dispatch(
                "sched_rows",
                n,
                True,
                _LABEL_BYTES * n + 8 * n,
                _LABEL_BYTES * n,
                fill,
                extra=(schedules.shm_name, schedules.n),
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.hash_with_schedules(blocks, array[rows])
        view = np.ndarray((n, 4), dtype=np.uint32, buffer=out_shm.buf)
        return np.array(view, copy=True)

    def hash_fixed_key_blocks(self, blocks, tweak_blocks):
        n = blocks.shape[0]
        if not self._use_pool(n) or getattr(tweak_blocks, "ndim", 2) != 2:
            return self._inner.hash_fixed_key_blocks(blocks, tweak_blocks)
        try:
            return self._sharded_blocks(
                "fixed", False, blocks, tweak_blocks, _LABEL_BYTES * n
            )
        except Exception as exc:
            self._disable(exc)
            return self._inner.hash_fixed_key_blocks(blocks, tweak_blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelLabelHashBackend workers={self.workers} "
            f"inner={self.inner_name!r} start={self.start_method!r}>"
        )
