"""Shared test settings: one deterministic profile for the property tests,
so every run draws the same examples and the suite's time stays fixed; a
wall-clock limit per test, so a hang fails its test instead of stalling
the suite; and a check that no test leaves a child process (such as a
LocalTransport helper or a qflsim.worker subprocess) running."""

import contextlib
import glob
import multiprocessing
import os
import signal

import pytest

try:
    from hypothesis import settings
except ImportError:  # tests/test_fuzz.py skips itself
    pass
else:
    settings.register_profile("qflsim", derandomize=True, deadline=None,
                              max_examples=60)
    settings.load_profile("qflsim")

# Longest a test may run, in seconds, where the platform has SIGALRM.
TEST_TIME_LIMIT_S = 120.0


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives TEST_TIME_LIMIT_S; not an Exception,
    so no ``except Exception`` in the code under test swallows it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Interrupt the test with TimeLimitExceeded after TEST_TIME_LIMIT_S.
    Forked children do not inherit the timer."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(_signum, _frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _child_pids() -> list[int]:
    """This process's children, as the kernel lists them per thread in
    /proc/<pid>/task/<tid>/children; none where there is no such file."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with contextlib.suppress(OSError), open(path) as fh:  # a thread ended
            pids += map(int, fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process, such as a multiprocessing
    helper or a subprocess, alive or unreaped; then stop and reap it."""
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:
        process.kill()
        process.join()
    others = _child_pids()
    for pid in others:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    assert not leaked, f"test left child processes alive: {leaked}"
    assert not others, f"test left child processes: {others}"
