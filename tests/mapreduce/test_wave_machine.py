"""Model-based test of the recovery ladder: a hypothesis state machine
drives one scheduler wave (``scheduler._Wave``) on a fake executor.

The machine launches nothing real.  Its handles (``fake_executor``)
stay running until a rule ends them -- with an ok record, no record, or
any error record ``classify`` emits -- and a ``poll`` rule runs one pass
of ``run_wave``'s loop at a chosen ``now`` with chosen heartbeat ages
and starvation reports.  Beside the wave the machine keeps its own
model of the ladder, replayed from the trace in event order: which
failures ``max_retries`` pays for, skip mode, OOM deaths, fetch strikes
and map re-executions.  Against it, after every step:

* each task's ``on_complete`` fires exactly once, for an ok record, and
  never for a killed or discarded attempt;
* ``TaskFailedError`` is raised exactly when a task's charged failures
  exceed ``max_retries`` with no rival in flight (or the OOM or
  re-execution bound is passed, or ``wave_deadline``);
* skip mode is sticky and entering it is uncharged;
* repairs stay within ``max_repairs``, re-executions within
  ``max_map_reexecs``;
* every launch's ``degrade`` equals the task's OOM deaths so far;
* attempts in flight never exceed the slots, each holds one slot, and
  none is left charged when the wave ends or raises;
* a task is queued at most once, never while an attempt of it runs;
* in a combined wave, each running reducer has been sent, once and in
  publish order, each segment published to its partition after its
  launch snapshot -- all of them whenever its pipe had room in the last
  poll;
* when every later attempt succeeds, the wave finishes.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.mapreduce.runtime.hosts import HostHealthMonitor, HostRegistry
from repro.mapreduce.runtime.pipeline import PipelinePlan
from repro.mapreduce.runtime.scheduler import (
    TaskFailedError,
    TaskSpec,
    WaveDeadlineError,
)
from repro.mapreduce.runtime.worker import COMMIT
from tests.mapreduce.fake_executor import (
    FakePool,
    error_record,
    make_wave,
    ok_record,
    poll,
)

Ref = namedtuple("Ref", "map_id")

#: ``max_memory_retries`` without a shuffle config
OOM_LIMIT = 2
#: the maps a reduce wave's refs read (none of them in the wave)
UPSTREAM = ("m0", "m1")
#: how far one ``poll`` moves the clock: past the backoff gates, the
#: straggler floor, ``heartbeat_timeout``, ``task_timeout`` and
#: ``wave_deadline`` in a few steps
STEPS = (0.0, 0.0, 0.02, 0.05, 0.1, 0.1, 0.15, 0.3, 0.6, 1.2)
#: heartbeat ages a poll may observe (``None``: no heartbeat file)
BEATS = (None, 0.0, 0.45, 0.5, 0.55, 2.0)


class WaveMachine(RuleBasedStateMachine):

    @initialize(
        shape=st.sampled_from(["map", "reduce", "combined"]),
        tasks=st.integers(1, 3),
        slots=st.integers(1, 4),
        max_retries=st.integers(0, 3),
        speculation=st.booleans(),
        task_timeout=st.sampled_from([None, 1.0]),
        heartbeat_timeout=st.sampled_from([None, 0.5]),
        wave_deadline=st.sampled_from([None, 4.0]),
        max_repairs=st.integers(0, 2),
        fetch_failure_threshold=st.integers(1, 2),
        max_map_reexecs=st.integers(0, 2),
        with_hosts=st.booleans())
    def setup(self, shape, tasks, slots, max_retries, speculation,
              task_timeout, heartbeat_timeout, wave_deadline, max_repairs,
              fetch_failure_threshold, max_map_reexecs, with_hosts):
        self.now = 0.0
        self.shape = shape
        self.max_retries = max_retries
        self.max_repairs = max_repairs
        self.threshold = fetch_failure_threshold
        self.max_map_reexecs = max_map_reexecs
        self.wave_deadline = wave_deadline
        #: a combined wave's published ``(map, epoch)`` per partition,
        #: each reducer's plan's list
        self.published: dict[int, list[tuple[str, int]]] = {0: [], 1: []}
        self.epochs: dict[str, int] = defaultdict(int)
        #: per reduce attempt: how many refs its plan held at launch
        self.snapshots: dict[tuple[str, int], int] = {}
        #: the reduce attempts whose pipe had room in the last poll
        self.open_pipes: set[tuple[str, int]] = set()
        if shape == "map":
            specs = [TaskSpec(f"m{i}", "map", i) for i in range(tasks)]
            self.maps = [s.task_id for s in specs]
        elif shape == "reduce":
            specs = [TaskSpec(f"r{i}", "reduce", self.refs(i))
                     for i in range(tasks)]
            self.maps = list(UPSTREAM)
        else:
            self.maps = [f"m{i}" for i in range(tasks)]
            specs = ([TaskSpec(m, "map", i) for i, m in enumerate(self.maps)]
                     + [TaskSpec(f"r{i}", "reduce", (i, PipelinePlan(
                         tuple(self.maps), self.published[i])))
                        for i in range(2)])
        self.reduces = [s.task_id for s in specs if s.kind == "reduce"]
        hooks = {"on_complete": self.on_complete}
        if shape != "map":
            hooks.update(repair=self.repair, reexec=self.reexec,
                         max_repairs=max_repairs,
                         pipeline=shape == "combined")
        self.hosts = (HostHealthMonitor(HostRegistry(2),
                                        dead_fetch_strikes=10 ** 6,
                                        clock=lambda: self.now)
                      if with_hosts else None)
        self.pool = FakePool(slots, on_launch=self.on_launch)
        self.wave = make_wave(
            specs, self.pool, "/nonexistent/wave", self.now,
            hosts=self.hosts, wave=hooks, max_retries=max_retries,
            retry_backoff_max=0.2,
            fetch_failure_threshold=fetch_failure_threshold,
            max_map_reexecs=max_map_reexecs, speculation=speculation,
            straggler_factor=1.1, min_straggler_seconds=0.05,
            speculation_min_completed=1, task_timeout=task_timeout,
            heartbeat_interval=0.1, heartbeat_timeout=heartbeat_timeout,
            wave_deadline=wave_deadline)
        self.over: str | None = None
        self.steps = 0
        # what the test did
        self.delivered: dict[tuple[str, int], dict | None] = {}
        self.completed: set[str] = set()
        self.repair_calls: dict[str, int] = defaultdict(int)
        self.reexec_calls: dict[str, int] = defaultdict(int)
        # the model, replayed from the trace
        self.seen = 0
        self.in_flight: dict[str, set[int]] = defaultdict(set)
        self.timed_out: set[tuple[str, int]] = set()
        self.charged: dict[str, int] = defaultdict(int)
        self.skip: set[str] = set()
        self.repairs: dict[str, int] = defaultdict(int)
        self.ooms: dict[str, int] = defaultdict(int)
        self.strikes: dict[str, int] = defaultdict(int)
        self.reexecs: dict[str, int] = defaultdict(int)
        self.expected: str | None = None

    @staticmethod
    def refs(part: int) -> tuple[int, list[Ref]]:
        return part, [Ref(m) for m in UPSTREAM]

    # ---------------------------------------------------------------- hooks

    def on_complete(self, spec, number, attempt_dir, result_path, value):
        handle = self.pool.handles[spec.task_id, number]
        assert not handle.killed, f"{spec.task_id}.{number} was killed"
        assert handle.record()["status"] == "ok"
        assert value == handle.record()["value"]
        assert spec.task_id not in self.completed, (
            f"{spec.task_id} completed twice")
        self.completed.add(spec.task_id)
        if self.shape == "combined" and spec.kind == "map":
            self.publish(spec.task_id)

    def publish(self, map_id: str) -> None:
        """What the ledger does for a combined wave's map."""
        for stream in self.published.values():
            stream.append((map_id, self.epochs[map_id]))

    def repair(self, path: str) -> None:
        self.repair_calls[path.split("/")[0]] += 1

    def reexec(self, map_id: str) -> dict:
        self.reexec_calls[map_id] += 1
        if self.shape == "combined":
            # the re-published segments re-point a combined wave
            self.epochs[map_id] += 1
            if map_id in self.completed:
                self.publish(map_id)
            return {}
        return {r: self.refs(int(r[1:])) for r in self.reduces}

    def on_launch(self, spec) -> None:
        self.replay()
        assert spec.degrade == self.ooms[spec.task_id], (
            f"{spec.task_id} launched at degrade {spec.degrade} after "
            f"{self.ooms[spec.task_id]} OOM death(s)")
        assert spec.skip_mode == (spec.task_id in self.skip), (
            f"{spec.task_id} skip_mode={spec.skip_mode}")
        assert spec.task_id not in self.completed
        if self.shape == "combined" and spec.kind == "reduce":
            assert spec.payload[1].refs is self.published[spec.payload[0]]
            self.snapshots[spec.task_id, spec.number] = len(
                spec.payload[1].refs)

    # ---------------------------------------------------------------- model

    def replay(self) -> None:
        """Advance the model over the trace events since the last call."""
        events = self.wave.trace.events
        while self.seen < len(events):
            e = events[self.seen]
            self.seen += 1
            key = (e.task_id, e.attempt)
            if e.event == "started":
                self.in_flight[e.task_id].add(e.attempt)
            elif e.event in ("finished", "discarded", "killed", "timeout"):
                self.in_flight[e.task_id].discard(e.attempt)
                if e.event == "timeout":
                    self.timed_out.add(key)
            elif e.event == "failed":
                self.in_flight[e.task_id].discard(e.attempt)
                self.judge(e.task_id, e.attempt, e.kind)

    def judge(self, task_id: str, number: int, kind: str) -> None:
        """One failure, in trace order: charged or not, and whether the
        wave must now raise."""
        rival = bool(self.in_flight[task_id])
        record = (None if (task_id, number) in self.timed_out
                  else self.delivered[task_id, number])
        if record is not None and record["failed_map"] is not None:
            map_id = record["failed_map"]
            self.strikes[map_id] += 1
            if self.strikes[map_id] >= self.threshold:
                self.reexecs[map_id] += 1
                self.strikes[map_id] = 0
                if self.reexecs[map_id] > self.max_map_reexecs:
                    self.expect(map_id)
            return
        if record is not None and record["oom"]:
            self.ooms[task_id] += 1
            if self.ooms[task_id] > OOM_LIMIT and not rival:
                self.expect(task_id)
            return
        if (record is not None and record["skip_eligible"]
                and task_id not in self.skip):
            self.skip.add(task_id)
            return
        if (record is not None and record["corrupt_path"] is not None
                and kind == "reduce"
                and self.repairs[task_id] < self.max_repairs):
            self.repairs[task_id] += 1
            return
        self.charged[task_id] += 1
        if self.charged[task_id] > self.max_retries and not rival:
            self.expect(task_id)

    def expect(self, task_id: str) -> None:
        if self.expected is None:
            self.expected = task_id

    # ---------------------------------------------------------------- rules

    def live(self):
        return [h for h in self.pool.handles.values() if h.is_alive()]

    def records(self, spec, number: int, failures_only: bool = False):
        ok = ok_record(f"{spec.task_id}:{number}")
        shapes = [] if failures_only else [
            st.just(ok), st.just(ok), st.just(ok),
            st.just({**ok, "memory": {"peak": 7, "capacity": 8}})]
        shapes += [st.none(),
                   st.just(error_record()),
                   st.just(error_record(oom=True)),
                   st.just(error_record(skip_eligible=True)),
                   st.just(error_record(
                       corrupt_path=f"{spec.task_id}/{number}/segment"))]
        if spec.kind == "reduce":
            shapes += 2 * [st.sampled_from(self.maps).map(
                lambda m: error_record(failed_map=m))]
        return st.one_of(shapes)

    @precondition(lambda self: self.over is None and self.live())
    @rule(data=st.data())
    def finish_any(self, data):
        """An attempt ends, with any record shape."""
        self.finish(data, self.live())

    def finish(self, data, handles, failures_only: bool = False) -> None:
        handle = data.draw(st.sampled_from(handles))
        spec = handle.spec
        record = data.draw(self.records(spec, spec.number, failures_only))
        handle.finish(record)
        self.delivered[spec.task_id, spec.number] = record

    @precondition(lambda self: self.over is None and self.rivals())
    @rule(data=st.data())
    def finish_a_rival(self, data):
        """One of two attempts of a task in flight fails."""
        self.finish(data, self.rivals(), failures_only=True)

    def rivals(self):
        live = self.live()
        tasks = [h.spec.task_id for h in live]
        return [h for h in live if tasks.count(h.spec.task_id) > 1]

    @precondition(lambda self: self.over is None)
    @rule(dt=st.sampled_from(STEPS), data=st.data())
    def poll(self, dt, data):
        """One pass of the wave loop, ``dt`` seconds after the last."""
        self.now += dt
        beats = {}
        if self.wave.scheduler.heartbeat_timeout is not None:
            beats = {a: data.draw(st.sampled_from(BEATS))
                     for a in self.wave.running}
        starved = {}
        if self.shape == "combined":
            for r in self.reduces:
                if data.draw(st.booleans()):
                    starved[r] = data.draw(st.lists(
                        st.sampled_from(self.maps), max_size=3, unique=True))
        self.step(beats, starved)

    @precondition(lambda self: self.over is None and self.reducers())
    @rule(data=st.data())
    def clog(self, data):
        """A running reducer's pipe fills (it stopped reading), or
        drains."""
        handle = data.draw(st.sampled_from(self.reducers()))
        handle.full = not handle.full

    def reducers(self):
        return [h for h in self.live()
                if h.spec.kind == "reduce" and self.shape == "combined"]

    @precondition(lambda self: self.over is None and self.steps >= 12)
    @rule()
    def settle(self):
        """Every attempt from here on succeeds: the wave must end --
        finished, or raised where the model says it must (a failure
        already delivered, or ``wave_deadline``)."""
        for i in range(400):
            for handle in self.live():
                spec = handle.spec
                record = ok_record(f"{spec.task_id}:{spec.number}")
                handle.finish(record)
                self.delivered[spec.task_id, spec.number] = record
            self.now += 0.0 if i == 0 else 0.02
            self.step({}, {})
            if self.over is not None:
                break
        assert self.over is not None, "the wave stalled"

    @precondition(lambda self: self.over is not None)
    @rule()
    def ended(self):
        """Nothing runs after the wave returned or raised."""
        assert not self.live() or self.over == "raised"

    def step(self, beats, starved) -> None:
        self.steps += 1
        try:
            poll(self.wave, self.now, beats, starved)
        except TaskFailedError as exc:
            self.replay()
            if self.expected is None:
                assert isinstance(exc, WaveDeadlineError), exc
                assert (self.wave_deadline is not None
                        and self.now > self.wave_deadline)
            else:
                assert not isinstance(exc, WaveDeadlineError), exc
                assert exc.task_id == self.expected, (exc, self.expected)
            # ``run_wave``'s finally: every slot still charged belongs
            # to an attempt in flight, which the sweep kills.
            assert self.pool.outstanding == len(self.wave.running)
            for attempt in self.wave.running:
                attempt.process.kill()
            self.pool.close()
            self.over = "raised"
            return
        self.replay()
        self.open_pipes = {(a.spec.task_id, a.number)
                           for a in self.wave.running
                           if not a.process.full}
        assert self.expected is None, (
            f"the wave did not raise for {self.expected}")
        assert not (self.wave_deadline is not None
                    and self.now > self.wave_deadline)
        if self.wave.done():
            assert not self.wave.running
            assert self.pool.outstanding == 0
            assert self.completed == set(self.wave.by_id)
            self.over = "done"

    # ----------------------------------------------------------- invariants

    @invariant()
    def slots_match_attempts_in_flight(self):
        assert self.pool.outstanding <= self.pool.max_workers
        if self.over != "raised":
            assert self.pool.outstanding == len(self.wave.running)
            assert all(not a.process.killed for a in self.wave.running)

    @invariant()
    def charged_failures_match_the_model(self):
        self.replay()
        for task_id in self.wave.by_id:
            assert self.wave.failures[task_id] == self.charged[task_id], (
                task_id, dict(self.wave.failures), dict(self.charged))

    @invariant()
    def repairs_and_reexecs_stay_bounded(self):
        assert all(n <= self.max_repairs
                   for n in self.repair_calls.values())
        assert all(n <= self.max_map_reexecs
                   for n in self.reexec_calls.values())
        assert dict(self.repair_calls) == {
            t: n for t, n in self.repairs.items() if n}

    @invariant()
    def reducers_hear_their_partition_once_in_order(self):
        if self.over == "raised":
            return  # the pass that raised sent nothing
        for attempt in self.wave.running:
            if attempt.spec.kind != "reduce" or self.shape != "combined":
                continue
            key = attempt.spec.task_id, attempt.number
            stream = self.published[attempt.spec.payload[0]]
            start = self.snapshots[key]
            sent = attempt.process.sent
            assert all(kind == COMMIT for kind, _ in sent), sent
            assert [ref for _, ref in sent] == stream[
                start:start + len(sent)], (key, sent, stream)
            if key in self.open_pipes:
                assert start + len(sent) == len(stream), (key, sent, stream)

    @invariant()
    def skip_mode_is_sticky(self):
        assert self.wave.skip_tasks == self.skip

    @invariant()
    def a_task_is_queued_once_and_never_while_it_runs(self):
        if self.over == "raised":
            return
        for task_id in self.wave.by_id:
            queued = sum(s.task_id == task_id for s, _ in self.wave.pending)
            running = any(a.spec.task_id == task_id
                          for a in self.wave.running)
            assert queued + running <= 1, (task_id, queued, running)
            if task_id in self.wave.results:
                assert not queued and not running, task_id
            assert (task_id in self.completed) == (
                task_id in self.wave.results)


def test_wave_state_machine():
    run_state_machine_as_test(
        WaveMachine,
        settings=settings(max_examples=300, stateful_step_count=40,
                          derandomize=True, deadline=None,
                          database=None))


def test_a_starvation_report_names_its_straggler_before_the_median():
    """In a poll where a reducer's starvation report and the duration
    median would both speculate the same map, the report does: the
    trace reads ``pipeline_starved`` and then ``speculated``."""
    plan = PipelinePlan(("m0", "m1", "m2"), [])
    specs = ([TaskSpec(m, "map", i) for i, m in enumerate(plan.map_ids)]
             + [TaskSpec("r0", "reduce", (0, plan))])
    pool = FakePool(4)
    wave = make_wave(specs, pool, "/nonexistent/wave", 0.0,
                     wave={"pipeline": True}, speculation=True,
                     straggler_factor=1.1, min_straggler_seconds=0.05,
                     speculation_min_completed=2)
    poll(wave, 0.0)
    for m in ("m0", "m1"):
        pool.handles[m, 0].finish(ok_record())
    poll(wave, 0.01)
    poll(wave, 1.0, starved={"r0": ["m2"]})
    assert [e.event for e in wave.trace.events
            if e.task_id == "m2" and e.event in (
                "pipeline_starved", "speculated")] == [
        "pipeline_starved", "speculated"]
