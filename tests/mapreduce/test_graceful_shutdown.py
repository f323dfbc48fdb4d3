"""Graceful termination: cancel events, SIGTERM, and resumable drains.

A terminated run must (a) raise :class:`JobCancelledError` instead of
deadlocking or leaking worker processes, (b) leave its recovery
manifest behind so ``resume=True`` finishes the job later, and (c) the
resumed output must stay byte-identical to a solo serial run -- the
repo-wide equivalence invariant survives the interruption.

The SIGTERM path needs a real process (signal handlers only bind on
the main thread), so one test drives a child interpreter and checks
its whole process group is gone afterwards.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.mapreduce.runtime import LocalJobRunner
from repro.mapreduce.runtime.recovery import MANIFEST_NAME
from repro.mapreduce.runtime.runner import ParallelJobRunner
from repro.mapreduce.runtime.scheduler import JobCancelledError
from repro.mapreduce.runtime.service import JobSpec, build_workload

_SPEC = JobSpec(tenant="t", query="sliding_mean", shape=(48, 48),
                seed=7, num_maps=4, num_reducers=2)


def _serial():
    return LocalJobRunner().run(*build_workload(_SPEC))


class TestCancelEvent:
    def test_pre_set_event_aborts_immediately(self, tmp_path):
        runner = ParallelJobRunner(workdir=str(tmp_path / "work"),
                                   max_workers=2,
                                   recovery_dir=str(tmp_path / "rec"))
        runner.cancel()
        with pytest.raises(JobCancelledError):
            runner.run(*build_workload(_SPEC))
        # The manifest survived the abort: this is the resume state.
        assert os.path.exists(os.path.join(str(tmp_path / "rec"),
                                           MANIFEST_NAME))

    def test_cancel_mid_run_then_resume_byte_identical(self, tmp_path):
        recovery = str(tmp_path / "rec")
        runner = ParallelJobRunner(workdir=str(tmp_path / "work"),
                                   max_workers=2, recovery_dir=recovery)

        # Cancel the moment the manifest lands (run start, before any
        # wave completes) -- a wall-clock timer races a warm run.
        def _cancel_when_started():
            manifest = os.path.join(recovery, MANIFEST_NAME)
            deadline = time.monotonic() + 30
            while (not os.path.exists(manifest)
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            runner.cancel()

        watcher = threading.Thread(target=_cancel_when_started)
        watcher.start()
        try:
            with pytest.raises(JobCancelledError):
                runner.run(*build_workload(_SPEC))
        finally:
            watcher.join(timeout=60)

        resumed = ParallelJobRunner(workdir=str(tmp_path / "work2"),
                                    max_workers=2, recovery_dir=recovery,
                                    resume=True)
        result = resumed.run(*build_workload(_SPEC))
        base = _serial()
        assert result.output == base.output
        assert result.counters == base.counters


_CHILD = textwrap.dedent("""\
    import sys

    from repro.mapreduce.runtime.runner import ParallelJobRunner
    from repro.mapreduce.runtime.scheduler import JobCancelledError
    from repro.mapreduce.runtime.service import JobSpec, build_workload

    spec = JobSpec(tenant="t", query="sliding_mean", shape=(48, 48),
                   seed=7, num_maps=4, num_reducers=2)
    runner = ParallelJobRunner(workdir=sys.argv[1], max_workers=2,
                               recovery_dir=sys.argv[2])
    print("RUNNING", flush=True)
    try:
        runner.run(*build_workload(spec))
    except JobCancelledError:
        print("CANCELLED", flush=True)
        sys.exit(17)
    print("DONE", flush=True)
""")


class TestSigterm:
    def test_sigterm_drains_and_resume_completes(self, tmp_path):
        recovery = str(tmp_path / "rec")
        script = tmp_path / "child.py"
        script.write_text(_CHILD)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "work"), recovery],
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        try:
            assert child.stdout.readline().strip() == "RUNNING"
            # Wait for the manifest: the run is actually in flight.
            deadline = time.monotonic() + 30
            manifest = os.path.join(recovery, MANIFEST_NAME)
            while (not os.path.exists(manifest)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert os.path.exists(manifest)
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover - hang safety
                child.kill()
                child.wait()

        assert child.returncode == 17, out
        assert "CANCELLED" in out

        # No leaked children: the child ran in its own session, so once
        # the whole process group is gone the workers are gone too.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - leak diagnosis
            pytest.fail("process group still alive after SIGTERM drain")

        resumed = ParallelJobRunner(workdir=str(tmp_path / "work2"),
                                    max_workers=2, recovery_dir=recovery,
                                    resume=True)
        result = resumed.run(*build_workload(_SPEC))
        base = _serial()
        assert result.output == base.output
        assert result.counters == base.counters
