"""Host failure domains: registry, health monitor, and placement.

Hadoop's production robustness treats the *host* (tasktracker node) as
the failure domain: a node that stops heartbeating loses every task it
was running AND every committed map output it was serving, and a node
that keeps failing tasks is blacklisted so the scheduler stops feeding
it work.  This module gives the simulated runtime the same shape.

Every task is pinned to a simulated host by a stable hash -- the *same*
``crc32(task_id) % n`` hash the network shuffle service uses to spread
segment servers, so with ``num_hosts == num_servers`` a host and its
segment server are one failure domain: when the host dies, its server
and the only copies of its maps' segments die with it.

The health state machine::

            missed heartbeats            fetch strikes while
            >= suspect threshold         already suspect
    ALIVE ---------------------> SUSPECT ----------------> DEAD
      |  ^                          |
      |  | heartbeat seen           | heartbeat seen
      |  +--------------------------+
      |
      | task failures >= blacklist threshold
      v                probation (clean attempts
    BLACKLISTED <----- after capped backoff) ----> ALIVE

The SUSPECT -> DEAD edge deliberately requires *both* kinds of
evidence.  A network partition makes every fetch from a host fail while
its workers keep heartbeating: strikes pile up but heartbeats keep
arriving, so the host stays (at most) SUSPECT and the per-link fetch
retry ladder is left to heal the partition.  Only a host that is both
silent *and* unfetchable is declared dead -- which is what distinguishes
"the switch port died" from "the machine died" without any extra
protocol.

DEAD is terminal for a run (its segments are gone; the scheduler bulk
re-executes the producing maps).  BLACKLISTED is recoverable: after a
capped-backoff bench period the host re-enters *probation*, and a run
of clean attempts reinstates it -- a failure during probation re-benches
it with a doubled (capped) backoff, Hadoop's heuristic for flaky nodes.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass, field

from repro.settings import read
from repro.util.backoff import backoff_delay
from repro.util.placement import placement_index

__all__ = [
    "HOST_STATES",
    "DISK_MARKER",
    "HostState",
    "HostRegistry",
    "HostHealthMonitor",
    "host_for",
    "provision_failover_workdir",
]

HOST_STATES = ("ALIVE", "SUSPECT", "DEAD", "BLACKLISTED")

#: marker file a disk-fault failover leaves in the quarantined workdir
DISK_MARKER = "_QUARANTINED"


def host_for(task_id: str, num_hosts: int) -> str:
    """The simulated host a task (or its output) lives on.

    Same stable hash as ``ShuffleService.server_index`` -- both sides
    call :func:`repro.util.placement.placement_index` -- so host k and
    segment server k are one failure domain when the counts match.
    """
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be >= 1, got {num_hosts}")
    return f"host{placement_index(task_id, num_hosts)}"


@dataclass
class HostState:
    """Mutable health record for one simulated host."""

    name: str
    state: str = "ALIVE"
    #: consecutive missed heartbeat checks (reset on any heartbeat)
    missed_heartbeats: int = 0
    #: fetch-failure strikes against segments this host serves
    fetch_strikes: int = 0
    #: task-attempt failures counted toward blacklisting
    task_failures: int = 0
    #: times this host has been blacklisted (drives the capped backoff)
    blacklist_count: int = 0
    #: monotonic time the current blacklist bench ends; probation after
    blacklist_until: float = 0.0
    #: clean attempts observed during probation
    probation_successes: int = 0
    #: completed maps re-executed because this host died
    reexecs: int = 0
    #: why the host left ALIVE, for trace details
    reason: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def usable(self) -> bool:
        """May the scheduler place new work here?"""
        return self.state in ("ALIVE", "SUSPECT")


class HostRegistry:
    """Fixed fleet of simulated hosts with stable task placement."""

    def __init__(self, num_hosts: int = 2) -> None:
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be >= 1, got {num_hosts}")
        self.num_hosts = num_hosts
        self._hosts: dict[str, HostState] = {
            f"host{i}": HostState(f"host{i}") for i in range(num_hosts)
        }

    def host_for(self, task_id: str) -> str:
        return host_for(task_id, self.num_hosts)

    def get(self, name: str) -> HostState:
        return self._hosts[name]

    def names(self) -> list[str]:
        return [f"host{i}" for i in range(self.num_hosts)]

    def states(self) -> dict[str, str]:
        return {name: h.state for name, h in sorted(self._hosts.items())}

    def __len__(self) -> int:
        return self.num_hosts


class HostHealthMonitor:
    """Escalates per-host evidence into the ALIVE/SUSPECT/DEAD/
    BLACKLISTED state machine and answers placement queries.

    Evidence feeds (all driven by machinery that already exists):

    * ``record_heartbeat`` / ``record_missed_heartbeat`` -- the
      scheduler's heartbeat-staleness sweep, aggregated per host;
    * ``record_fetch_strike`` -- the fetch-failure ladder, whenever a
      strike lands against a map whose segments live on the host;
    * ``record_task_success`` / ``record_task_failure`` -- task-attempt
      outcomes, counted toward blacklisting and probation.

    All thresholds are explicit so the property tests can pin the
    transition rules; the defaults are tuned for the simulated runtime's
    sub-second heartbeat intervals.
    """

    def __init__(self, registry: HostRegistry, *,
                 suspect_heartbeat_misses: int = 2,
                 dead_fetch_strikes: int = 2,
                 blacklist_failures: int = 3,
                 probation_clean_attempts: int = 2,
                 reinstate_backoff: float = 0.05,
                 reinstate_backoff_max: float = 1.0,
                 max_host_reexecs: int = 2,
                 trace=None,
                 clock=time.monotonic) -> None:
        for name, value in (
                ("suspect_heartbeat_misses", suspect_heartbeat_misses),
                ("dead_fetch_strikes", dead_fetch_strikes),
                ("blacklist_failures", blacklist_failures),
                ("probation_clean_attempts", probation_clean_attempts)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if reinstate_backoff < 0 or reinstate_backoff_max < 0:
            raise ValueError("reinstate backoff values must be >= 0")
        if max_host_reexecs < 0:
            raise ValueError(
                f"max_host_reexecs must be >= 0, got {max_host_reexecs}")
        self.registry = registry
        self.suspect_heartbeat_misses = suspect_heartbeat_misses
        self.dead_fetch_strikes = dead_fetch_strikes
        self.blacklist_failures = blacklist_failures
        self.probation_clean_attempts = probation_clean_attempts
        self.reinstate_backoff = reinstate_backoff
        self.reinstate_backoff_max = reinstate_backoff_max
        self.max_host_reexecs = max_host_reexecs
        self.trace = trace
        self.clock = clock
        #: hosts declared dead but not yet drained by the scheduler
        self._newly_dead: list[str] = []
        #: job-level accounting the runners fold into counters
        self.hosts_lost = 0
        self.maps_reexecuted_host = 0

    # ------------------------------------------------------------ helpers

    def host_for(self, task_id: str) -> str:
        return self.registry.host_for(task_id)

    def _record(self, host: str, event: str, detail: str) -> None:
        if self.trace is not None:
            self.trace.record(host, 0, "host", event, detail)

    def _transition(self, h: HostState, state: str, reason: str) -> None:
        h.state = state
        h.reason = reason

    # ------------------------------------------------------------ evidence

    def record_heartbeat(self, host: str) -> None:
        """A worker on ``host`` sent a heartbeat recently."""
        h = self.registry.get(host)
        h.missed_heartbeats = 0
        if h.state == "SUSPECT":
            # The host is talking again; clear suspicion but keep the
            # strike count -- a flapping host should not get an
            # infinitely refreshed strike budget.
            self._transition(h, "ALIVE", "")

    def record_missed_heartbeat(self, host: str) -> None:
        """One heartbeat-staleness breach attributed to ``host``."""
        h = self.registry.get(host)
        if h.state in ("DEAD", "BLACKLISTED"):
            return
        h.missed_heartbeats += 1
        if (h.state == "ALIVE"
                and h.missed_heartbeats >= self.suspect_heartbeat_misses):
            self._transition(h, "SUSPECT",
                             f"{h.missed_heartbeats} missed heartbeats")
            self._record(host, "host_suspect", h.reason)

    def record_fetch_strike(self, host: str) -> None:
        """A fetch-failure strike landed on a map served by ``host``.

        Strikes alone never kill a host: a partitioned host keeps
        heartbeating, and per-link retries are the right medicine.
        Only a host that is *already* SUSPECT (silent) accumulates
        strikes toward DEAD.
        """
        h = self.registry.get(host)
        if h.state in ("DEAD", "BLACKLISTED"):
            return
        h.fetch_strikes += 1
        if (h.state == "SUSPECT"
                and h.fetch_strikes >= self.dead_fetch_strikes):
            self.declare_dead(host, f"suspect and {h.fetch_strikes} "
                                    f"fetch strikes")

    def record_task_success(self, host: str) -> None:
        """A task attempt completed cleanly on ``host``."""
        h = self.registry.get(host)
        if h.state != "BLACKLISTED":
            h.task_failures = 0
            return
        # Probation only starts once the bench period has elapsed.
        if self.clock() < h.blacklist_until:
            return
        h.probation_successes += 1
        if h.probation_successes >= self.probation_clean_attempts:
            self._transition(h, "ALIVE", "")
            h.task_failures = 0
            h.probation_successes = 0
            self._record(host, "host_reinstated",
                         f"{self.probation_clean_attempts} clean attempts")

    def record_task_failure(self, host: str, detail: str = "") -> None:
        """A task attempt failed on ``host`` (counts toward blacklist)."""
        h = self.registry.get(host)
        if h.state == "DEAD":
            return
        if h.state == "BLACKLISTED":
            # A failure during probation re-benches with doubled backoff.
            if self.clock() >= h.blacklist_until:
                h.probation_successes = 0
                self._blacklist(h, f"failed during probation: {detail}")
            return
        h.task_failures += 1
        if h.task_failures >= self.blacklist_failures:
            self._blacklist(h, detail or f"{h.task_failures} task failures")

    def _blacklist(self, h: HostState, reason: str) -> None:
        h.blacklist_count += 1
        bench = backoff_delay(
            self.reinstate_backoff, h.blacklist_count,
            self.reinstate_backoff_max, key=f"blacklist:{h.name}")
        h.blacklist_until = self.clock() + bench
        h.probation_successes = 0
        self._transition(h, "BLACKLISTED", reason)
        self._record(h.name, "host_blacklisted",
                     f"{reason}; bench {bench:.3f}s")

    def declare_dead(self, host: str, reason: str = "host crash") -> None:
        """Declare ``host`` dead outright (host_crash injection, or the
        SUSPECT + strikes escalation).  Idempotent."""
        h = self.registry.get(host)
        if h.state == "DEAD":
            return
        self._transition(h, "DEAD", reason)
        self.hosts_lost += 1
        self._newly_dead.append(host)
        self._record(host, "host_dead", reason)

    # ------------------------------------------------------------ queries

    def is_dead(self, host: str) -> bool:
        return self.registry.get(host).state == "DEAD"

    def placeable(self, host: str) -> bool:
        """May new work be placed on ``host`` right now?

        DEAD hosts never take work.  BLACKLISTED hosts take *probation*
        work once their bench period has elapsed (how else would they
        ever produce the clean attempts that reinstate them?).
        """
        h = self.registry.get(host)
        if h.state == "DEAD":
            return False
        if h.state == "BLACKLISTED":
            return self.clock() >= h.blacklist_until
        return True

    def place(self, task_id: str) -> str:
        """The host this attempt should run on.

        The stable-hash home host wins when placeable; otherwise the
        wave rebalances onto the next placeable host in ring order.  A
        fully-benched fleet falls back to the home host (the scheduler's
        own retry bounds are the backstop -- refusing to place anything
        would deadlock the wave).
        """
        home = self.registry.host_for(task_id)
        if self.placeable(home):
            return home
        names = self.registry.names()
        start = names.index(home)
        for step in range(1, len(names)):
            candidate = names[(start + step) % len(names)]
            if self.placeable(candidate):
                return candidate
        return home

    def take_newly_dead(self, only: set[str] | None = None) -> list[str]:
        """Drain hosts declared dead since the last call (scheduler's
        cue to kill their attempts and bulk re-execute their maps).

        With ``only``, drains just those hosts and leaves the rest
        queued -- the pipelined runner handles its injected crashes
        inline mid-wave and must not swallow an organic death the
        scheduler's sweep still has to process.
        """
        if only is None:
            dead, self._newly_dead = self._newly_dead, []
            return dead
        dead = [h for h in self._newly_dead if h in only]
        self._newly_dead = [h for h in self._newly_dead if h not in only]
        return dead

    def charge_host_reexec(self, host: str, maps: int) -> None:
        """Account ``maps`` completed maps re-executed because ``host``
        died; raises past ``max_host_reexecs`` *maps per lost host*."""
        h = self.registry.get(host)
        h.reexecs += maps
        self.maps_reexecuted_host += maps
        if h.reexecs > self.max_host_reexecs:
            raise HostLostError(
                f"{host} lost {h.reexecs} completed maps, exceeding "
                f"max_host_reexecs={self.max_host_reexecs}")


class HostLostError(RuntimeError):
    """Re-execution debt from a lost host exceeded ``max_host_reexecs``."""


def provision_failover_workdir(primary: str, task_id: str, host: str,
                               fault) -> str:
    """Fail a task's workdir over to its spare volume (``disk_fault``).

    Simulates the planned disk error (ENOSPC or EIO) hitting ``primary``
    the moment the task would first spill: the bad directory is
    quarantined with a :data:`DISK_MARKER` file, a deterministic
    side-file ``<task_id>-disk.json`` is dropped under
    ``$REPRO_QUARANTINE_DIR`` (no paths or attempt numbers, so serial
    and parallel runs produce identical bytes), and the task proceeds in
    the returned spare directory -- ``<primary>/spare``, modelling a
    second volume mounted beside the failing one.  Idempotent: retries
    and rival attempts converge on the same spare.
    """
    code = errno.ENOSPC if fault.op == "enospc" else errno.EIO
    record = {
        "error": errno.errorcode[code],
        "host": host,
        "task_id": task_id,
    }
    marker = os.path.join(primary, DISK_MARKER)
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            json.dump({"error": errno.errorcode[code], "host": host,
                       "detail": os.strerror(code)}, fh, sort_keys=True)
    quarantine_dir = read("REPRO_QUARANTINE_DIR")
    if quarantine_dir:
        os.makedirs(quarantine_dir, exist_ok=True)
        side = os.path.join(quarantine_dir, f"{task_id}-disk.json")
        with open(side, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    spare = os.path.join(primary, "spare")
    os.makedirs(spare, exist_ok=True)
    return spare


def expand_host_partition(injector, host: str, map_ids, reduce_ids,
                          num_hosts: int, drops: int) -> int:
    """Expand a ``host_partition`` fault into deterministic fetch drops.

    A partition severs every map->reduce link out of ``host`` at once.
    Expressing it as connection-``drop`` fetch faults on attempts
    ``0..drops-1`` of each affected link (``drops <= fetch_retries``, so
    the last attempt lands) makes the partition heal *in-attempt*
    through the ordinary retry ladder with retry counts that are pure
    functions of the plan -- byte-identical between the serial and
    parallel runners, which a wall-clock partition window can never be.
    Works over every transport: the in-process transports apply the
    drops client-side, the network servers server-side.

    Idempotent (re-expansion skips planned entries); returns the number
    of fault entries added.
    """
    from repro.mapreduce.runtime.fault import Fault, fetch_pair_id
    added = 0
    for map_id in sorted(map_ids):
        if host_for(map_id, num_hosts) != host:
            continue
        for reduce_id in sorted(reduce_ids):
            key = fetch_pair_id(map_id, reduce_id)
            for att in range(drops):
                if injector.has(key, att):
                    continue
                injector.add(key, Fault("fetch", att, op="drop", epoch=None))
                added += 1
    return added


__all__ += ["HostLostError", "expand_host_partition"]
