"""Shared test fixtures."""

import signal

import pytest

TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _watchdog():
    """Fail any single test that runs longer than TEST_TIMEOUT_S, with a traceback.

    A hang (say, an ODE solver stuck on a NaN derivative) then fails the
    suite instead of stalling it.  Does nothing where SIGALRM is missing.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def timeout(signum, frame):
        pytest.fail(f"test exceeded {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
