"""A time limit on every test: a fault that keeps a loop running (a clock
that never covers, an operator that never stops) fails its test instead of
hanging the suite. And `peak_bytes`, for the tests of the memory bounds."""

import contextlib
import signal
import tracemalloc

import pytest

# well above the slowest test, which takes 2-5 s (shared 2-core VM)
TEST_SECONDS = 120


def _expire(signum, frame):
    raise TimeoutError("test still running after %d s" % TEST_SECONDS)


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def peak_bytes():
    """`with peak_bytes() as peak:` traces the block's allocations and
    leaves their peak in peak[0], also when the block raises."""
    @contextlib.contextmanager
    def trace():
        peak = [0]
        tracemalloc.start()
        try:
            yield peak
        finally:
            peak[0] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    return trace
