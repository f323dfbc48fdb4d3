"""A test-side executor for driving a scheduler wave without processes.

:class:`FakePool` has :class:`~repro.mapreduce.runtime.pool.InlinePool`'s
surface (``lease``, ``launch``, ``available``, ``release``, ``close``)
and hands out :class:`FakeHandle`\\ s that stay running until the test
gives them an outcome.  With :func:`make_wave` a test builds a
``_Wave`` on a :class:`~repro.mapreduce.runtime.scheduler.TaskScheduler`
over this pool and calls its decision methods at chosen ``now`` values;
:func:`poll` runs one pass of ``run_wave``'s loop (``_Wave.step``) with
the observations (heartbeat ages, starvation reports) supplied by the
test instead of read from each worker's pipe.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.mapreduce.runtime.scheduler import TaskScheduler, _Wave


def ok_record(value: Any = "value") -> dict[str, Any]:
    """A finished attempt's record."""
    return {"status": "ok", "value": value}


def error_record(*, failed_map: str | None = None, oom: bool = False,
                 skip_eligible: bool = False,
                 corrupt_path: str | None = None) -> dict[str, Any]:
    """An error record shaped like ``attempt.classify``'s."""
    return {"status": "error", "error_type": "RuntimeError",
            "message": "injected", "traceback": "",
            "failed_map": failed_map, "oom": oom,
            "skip_eligible": skip_eligible, "corrupt_path": corrupt_path}


class FakeHandle:
    """An attempt's handle: alive until :meth:`finish`; a killed handle
    never has its record read.  ``sent`` keeps every message the wave
    sent it; while ``full`` its pipe has no room and takes none."""

    def __init__(self, spec: Any) -> None:
        self.spec = spec
        self.finished = False
        self.killed = False
        self.full = False
        self.sent: list[tuple[str, Any]] = []
        self._record: dict[str, Any] | None = None

    def send(self, kind: str, payload: Any) -> bool:
        assert self.is_alive(), "a message was sent to an ended attempt"
        if self.full:
            return False
        self.sent.append((kind, payload))
        return True

    def finish(self, record: dict[str, Any] | None) -> None:
        """End the attempt with ``record`` (``None``: died without one)."""
        assert not self.finished and not self.killed
        self.finished = True
        self._record = record

    @property
    def exitcode(self) -> int | None:
        if self.killed:
            return -9
        return 0 if self._record is not None else 1

    def is_alive(self) -> bool:
        return not (self.finished or self.killed)

    def join(self, timeout: float | None = None) -> None:
        pass

    def terminate(self) -> None:
        self.killed = True

    kill = terminate

    def record(self) -> dict[str, Any] | None:
        assert not self.killed, "a killed attempt's record was read"
        return self._record


class FakePool:
    """``slots`` slots and no process; its own lease.  ``on_launch``
    sees every attempt spec before its handle is made."""

    def __init__(self, slots: int,
                 on_launch: Callable[[Any], None] | None = None) -> None:
        self.max_workers = slots
        self.outstanding = 0
        self.on_launch = on_launch
        self.handles: dict[tuple[str, int], FakeHandle] = {}

    def lease(self, tenant: str = "default") -> "FakePool":
        return self

    def available(self) -> int:
        return self.max_workers - self.outstanding

    def launch(self, spec: Any, *, inherit: tuple = ()) -> FakeHandle:
        assert self.outstanding < self.max_workers, "launched past the slots"
        if self.on_launch is not None:
            self.on_launch(spec)
        self.outstanding += 1
        handle = FakeHandle(spec)
        self.handles[spec.task_id, spec.number] = handle
        return handle

    def release(self) -> None:
        assert self.outstanding > 0, "a slot was returned twice"
        self.outstanding -= 1

    def close(self) -> None:
        self.outstanding = 0


def make_wave(specs: list, pool: FakePool, wave_dir: str, now: float = 0.0,
              *, hosts: Any = None, wave: Mapping[str, Any] | None = None,
              **knobs: Any) -> _Wave:
    """A wave over ``pool`` (scheduler knobs in ``knobs``, ``run_wave``
    arguments in ``wave``) started at ``now``."""
    knobs.setdefault("retry_backoff", 0.05)
    knobs.setdefault("speculation", False)
    scheduler = TaskScheduler(pool=pool, hosts=hosts, **knobs)
    return _Wave(scheduler, specs, None, None, wave_dir, now, **(wave or {}))


def poll(wave: _Wave, now: float,
         beats: Mapping[Any, float | None] | None = None,
         starved: Mapping[str, list[str]] | None = None) -> bool:
    """One pass of ``run_wave``'s loop at ``now``.  ``beats`` maps an
    attempt to its heartbeat age (``None``: no beat yet; attempts it
    leaves out read as just beaten); ``starved`` maps a reduce task id
    to the maps its watched attempt's latest report names."""
    beats = beats or {}
    starved = starved or {}
    return wave.step(now, lambda r: starved.get(r.spec.task_id, []),
                     lambda a: beats.get(a, 0.0))
