"""Repo-wide pytest plumbing: a hard per-test deadline.

The fault-injection and chaos suites deliberately hang, stall, and kill
worker processes; a bug in the scheduler's deadline enforcement would
otherwise wedge the whole pytest run forever (exactly the failure mode
the deadlines exist to prevent).  ``pytest-timeout`` is not a
dependency, so this is a minimal SIGALRM watchdog: every test gets
``REPRO_TEST_TIMEOUT`` seconds (default 300) of wall clock, after which
it fails with a ``TimeoutError`` instead of hanging CI.

SIGALRM only exists on POSIX and only fires in the main thread -- both
true for this suite; elsewhere the watchdog degrades to a no-op.
"""

import signal
import threading

import pytest

from repro.settings import read


@pytest.fixture(autouse=True)
def _test_deadline(request):
    seconds = read("REPRO_TEST_TIMEOUT")
    if (seconds == 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={seconds:g}s "
            f"({request.node.nodeid})")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
