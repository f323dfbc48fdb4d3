"""Repo-wide pytest plumbing: a hard per-test deadline, and a per-file
time summary.

The fault-injection and chaos suites deliberately hang, stall, and kill
worker processes; a bug in the scheduler's deadline enforcement would
otherwise wedge the whole pytest run forever (exactly the failure mode
the deadlines exist to prevent).  ``pytest-timeout`` is not a
dependency, so this is a minimal SIGALRM watchdog: every test gets
``REPRO_TEST_TIMEOUT`` seconds (default 300) of wall clock, after which
it fails with a ``TimeoutError`` instead of hanging CI.

SIGALRM only exists on POSIX and only fires in the main thread -- both
true for this suite; elsewhere the watchdog degrades to a no-op.

With ``--durations=N`` the terminal summary also lists the N slowest
test files (all of them for 0) by their tests' summed setup, call and
teardown seconds.  It only reports: no test is skipped, resized or
reordered by it.
"""

import signal
import threading
from collections import defaultdict

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


def pytest_terminal_summary(terminalreporter, config):
    count = config.option.durations
    if count is None:
        return
    seconds = defaultdict(float)
    for reports in terminalreporter.stats.values():
        for report in reports:
            duration = getattr(report, "duration", None)
            nodeid = getattr(report, "nodeid", "")
            if duration is not None and nodeid:
                seconds[nodeid.split("::", 1)[0]] += duration
    if not seconds:
        return
    rows = sorted(seconds.items(), key=lambda kv: -kv[1])
    terminalreporter.write_sep("=", "seconds per test file")
    for path, total in rows[:count or None]:
        terminalreporter.write_line(f"{total:8.2f}s {path}")
