"""Shared test settings: one deterministic profile for the property tests,
so every run draws the same examples and the suite's time stays fixed;
and a check that no test leaves a child process (such as a LocalTransport
helper) running."""

import multiprocessing

import pytest

try:
    from hypothesis import settings
except ImportError:  # tests/test_fuzz.py skips itself
    pass
else:
    settings.register_profile("qflsim", derandomize=True, deadline=None,
                              max_examples=60)
    settings.load_profile("qflsim")


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a multiprocessing child alive, then stop it."""
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:
        process.kill()
        process.join()
    assert not leaked, f"test left child processes alive: {leaked}"
