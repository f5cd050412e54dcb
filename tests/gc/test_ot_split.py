"""The OT sender's exponentiations on two cores: ``ot._pow_batch``.

From ``_POW_SPLIT_MIN`` exponentiations up, with ``fork``, a second CPU
and no other Python thread, the helper forks a child that computes the
second half of the batch and pipes each value back as 96 big-endian
bytes while the parent computes the first half.  Whatever happens to the
child -- ``fork`` fails, it exits early, its output is short, it is
SIGKILLed -- the helper returns exactly the serial list and leaves no
child unreaped.  The CPU-count condition is patched to hold, so the
fork path runs on any host; the thread condition is the real one.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings

import pytest

from repro.gc import ot
from repro.gc.rng import LabelPrg

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

CROSSOVER = ot._POW_SPLIT_MIN


def _operands(count: int, seed: int = 5):
    prg = LabelPrg(seed)
    exponent = (prg.next_bits(256) % (ot._GROUP_Q - 1)) + 1
    bases = [pow(ot.GROUP_G, prg.next_bits(256), ot.GROUP_P) for _ in range(count)]
    return bases, exponent


def _serial(bases, exponent):
    return [pow(base, exponent, ot.GROUP_P) for base in bases]


class _Forks:
    """Records the helper's ``fork`` calls, the children's pids and how
    each was reaped; ``on_parent(pid)`` runs right after a real fork."""

    def __init__(self, monkeypatch) -> None:
        self.parent = os.getpid()
        self.calls = 0
        self.pids = []
        self.statuses = {}
        self.on_parent = None
        fork, waitpid = os.fork, os.waitpid

        def recorded_fork():
            self.calls += 1
            pid = fork()
            if pid:
                self.pids.append(pid)
                if self.on_parent is not None:
                    self.on_parent(pid)
            return pid

        def recorded_waitpid(pid, options):
            reaped, status = waitpid(pid, options)
            if reaped:
                self.statuses[reaped] = status
            return reaped, status

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def in_child(self) -> bool:
        return os.getpid() != self.parent

    def assert_all_reaped(self) -> None:
        for pid in self.pids:
            assert pid in self.statuses, f"child {pid} never waited for"
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    assert threading.active_count() == 1, "a thread leaked into this test"
    recorder = _Forks(monkeypatch)
    yield recorder
    recorder.assert_all_reaped()


@pytest.mark.parametrize("count", [CROSSOVER - 1, CROSSOVER, 128, 512])
def test_equals_the_serial_list(forks, count):
    bases, exponent = _operands(count)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    assert forks.calls == (count >= CROSSOVER)
    for status in forks.statuses.values():
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_encrypt_batch_splits_and_matches_per_bit_encrypt(forks):
    pairs = [(2 * i, 2 * i + 1) for i in range(128)]
    bases, _ = _operands(128)
    sender = ot.OtSender(LabelPrg(3))
    expected = [
        sender.encrypt(index, base, *pair)
        for index, (base, pair) in enumerate(zip(bases, pairs))
    ]
    assert sender.encrypt_batch(bases, pairs) == expected
    assert forks.calls == 1


def test_another_thread_keeps_it_serial(forks, monkeypatch):
    def refuse():
        raise AssertionError("forked with another thread alive")

    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        bases, exponent = _operands(128)
        assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    finally:
        release.set()
        thread.join()


def test_single_cpu_keeps_it_serial(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    bases, exponent = _operands(64)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    assert forks.calls == 0


def test_fork_failure_falls_back_and_closes_the_pipe(forks, monkeypatch):
    pipes = []
    pipe = os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def fail():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", fail)
    bases, exponent = _operands(64)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    (fds,) = pipes
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("delivered", [0, 5, 31])
def test_child_exiting_early_is_made_up(forks, monkeypatch, delivered):
    """The child delivers ``delivered`` of its 32 values, then exits."""
    real_pow = pow
    calls = []

    def dying_pow(*args):
        if forks.in_child():
            if len(calls) == delivered:
                os._exit(0)
            calls.append(None)
        return real_pow(*args)

    monkeypatch.setattr(ot, "pow", dying_pow, raising=False)
    bases, exponent = _operands(64)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    assert forks.calls == 1


def test_child_raising_exits_instead_of_returning(forks, monkeypatch):
    """An exception in the child ends it through ``os._exit(0)``: it
    never unwinds into the caller's frames."""
    real_pow = pow

    def failing_pow(*args):
        if forks.in_child():
            raise RuntimeError("child failure")
        return real_pow(*args)

    monkeypatch.setattr(ot, "pow", failing_pow, raising=False)
    bases, exponent = _operands(40)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    (status,) = forks.statuses.values()
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("cut", [1, 40, 95])
def test_short_output_is_made_up(forks, monkeypatch, cut):
    """The child's third value arrives cut to ``cut`` bytes, then the
    child exits: the two whole values are used, the rest recomputed."""
    write = os.write
    writes = []

    def short_write(fd, data):
        if not forks.in_child():
            return write(fd, data)
        writes.append(None)
        if len(writes) == 3:
            write(fd, data[:cut])
            os._exit(0)
        return write(fd, data)

    monkeypatch.setattr(os, "write", short_write)
    bases, exponent = _operands(64)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)


@pytest.mark.chaos
@pytest.mark.parametrize("when", ["at_fork", "mid_batch"])
def test_sigkilled_child_is_reaped_and_made_up(forks, monkeypatch, when):
    if when == "at_fork":
        forks.on_parent = lambda pid: os.kill(pid, signal.SIGKILL)
    else:
        real_pow = pow
        calls = []

        def killed_pow(*args):
            if forks.in_child():
                calls.append(None)
                if len(calls) == 10:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_pow(*args)

        monkeypatch.setattr(ot, "pow", killed_pow, raising=False)
    bases, exponent = _operands(128)
    assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
    (status,) = forks.statuses.values()
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


def test_fork_warning_about_native_threads_is_filtered(forks, monkeypatch):
    """Python 3.12+ warns in the parent when ``fork`` runs with native
    threads alive; the helper filters exactly that warning."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of "
                "fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    bases, exponent = _operands(32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ot._pow_batch(bases, exponent) == _serial(bases, exponent)
