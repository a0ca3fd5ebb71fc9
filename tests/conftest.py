"""A time limit on every test: a fault that keeps a loop running (a clock
that never covers, an operator that never stops) fails its test instead of
hanging the suite."""

import signal

import pytest

# well above the slowest test, acceptance 03 (23-31 s)
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
