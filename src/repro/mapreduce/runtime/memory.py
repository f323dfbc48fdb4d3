"""Byte-accounted memory: the ledger every byte-holding component rents.

A :class:`MemoryBudget` is a thread-safe byte ledger, charged and
released under one lock exactly like ``PoolLease`` slots.  It serves
two roles:

* **per-task** -- each worker builds one budget from the job's
  ``ShuffleConfig.memory_budget`` and hands it to the task body; the
  sort buffer, the segment in transfer, and the reduce-side merge all
  rent their resident bytes from it.  An *enforced* charge that would
  overrun capacity raises :class:`MemoryBudgetExceeded` (a
  ``MemoryError``), which the runners' degrade-on-retry ladder turns
  into a smaller-buffer retry.  Charges are sized from deterministic
  byte counts, so serial and parallel attempts charge identically.
* **pool-global** -- the worker pool and the admission controller use
  per-``owner`` charges with optional quotas to bound a tenant's
  outstanding priced memory across jobs.

A charge never waits.  The **grant-when-alone** rule admits a charge
larger than capacity when nothing else is charged -- a single oversized
allocation cannot be made smaller, so the ledger records the overdraft
instead of refusing it.  Only enforced charges raise.

Fault hooks make memory a first-class injected failure: ``fail_next``
plants a simulated ``MemoryError`` at the next charge against a chosen
site, ``alloc_next`` really allocates (exercising a genuine
``MemoryError`` under ``RLIMIT_AS``), and ``kill_above`` invokes a
callback -- SIGKILL-style in workers -- when a site's charged bytes
cross a threshold, which is how the R7 skew scenario simulates the
kernel OOM killer.

Telemetry (peaks) lives in ``JobResult.memory_stats`` / trace events,
never in the counter-equality set.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["MemoryBudget", "MemoryBudgetExceeded"]


class MemoryBudgetExceeded(MemoryError):
    """An enforced charge would overrun the budget's capacity.

    Subclasses :class:`MemoryError` so the degrade ladders treat a
    budget overrun exactly like a real allocation failure.
    """

    def __init__(self, message: str, *, requested: int = 0,
                 used: int = 0, capacity: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.used = used
        self.capacity = capacity


class MemoryBudget:
    """A thread-safe byte ledger with fault hooks.

    ``capacity=None`` means unlimited: the ledger still tracks usage
    and peaks (accounting-only mode) but never refuses or raises.
    """

    def __init__(self, capacity: int | None = None, *,
                 name: str = "memory") -> None:
        if capacity is not None:
            capacity = int(capacity)
            if capacity < 1:
                raise ValueError(
                    f"capacity must be >= 1 or None, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._lock = threading.Lock()
        self._used = 0
        self._peak = 0
        self._sites: dict[str, int] = defaultdict(int)
        self._site_peaks: dict[str, int] = defaultdict(int)
        self._owners: dict[str, int] = defaultdict(int)
        self._owner_peaks: dict[str, int] = defaultdict(int)
        self._quotas: dict[str, int] = {}
        self._charges = 0
        # fault hooks (armed per attempt by the worker / serial runner)
        self._fail_sites: dict[str, int] = {}
        self._alloc_sites: dict[str, int] = {}
        self._kill_at: int | None = None
        self._kill_site: str | None = None
        self._on_kill: Callable[[int], None] | None = None

    # ------------------------------------------------------------ fault hooks

    def fail_next(self, site: str, times: int = 1) -> None:
        """Raise a simulated ``MemoryError`` at the next ``times``
        charges against ``site`` (``-1`` = every one)."""
        with self._lock:
            self._fail_sites[site] = times

    def alloc_next(self, site: str, nbytes: int) -> None:
        """Really allocate ``nbytes`` at the next charge against
        ``site`` -- under ``RLIMIT_AS`` this raises a *genuine*
        ``MemoryError`` before any page is touched.  Size it well past
        physical RAM (or run under an rlimit): an allocation that
        merely *fits* is freed immediately and injects nothing."""
        with self._lock:
            self._alloc_sites[site] = int(nbytes)

    def kill_above(self, threshold: int,
                   callback: Callable[[int], None],
                   site: str | None = None) -> None:
        """Invoke ``callback(charged_bytes)`` the moment charged bytes
        (for ``site``, or the whole ledger) cross ``threshold`` --
        the simulated kernel OOM killer."""
        with self._lock:
            self._kill_at = int(threshold)
            self._kill_site = site
            self._on_kill = callback

    def _poke(self, site: str) -> None:
        """Apply any armed fault for a charge against ``site``."""
        with self._lock:
            remaining = self._fail_sites.get(site)
            if remaining:
                if remaining > 0:
                    self._fail_sites[site] = remaining - 1
                fire = True
            else:
                fire = False
            alloc = self._alloc_sites.pop(site, None)
        if fire:
            raise MemoryError(
                f"injected MemoryError at {self.name}:{site}")
        if alloc is not None:
            # Outside the lock: a real allocation attempt must never
            # wedge other charging threads.
            buf = bytearray(alloc)  # MemoryError here is the injection
            del buf

    # ------------------------------------------------------------ the ledger

    def _admits(self, n: int, owner: str | None) -> bool:
        """Capacity/quota check under the lock, grant-when-alone."""
        if self.capacity is not None and self._used + n > self.capacity \
                and self._used > 0:
            return False
        if owner is not None:
            quota = self._quotas.get(owner)
            if quota is not None and self._owners[owner] + n > quota \
                    and self._owners[owner] > 0:
                return False
        return True

    def _apply(self, n: int, site: str, owner: str | None) -> int:
        self._used += n
        self._charges += 1
        if self._used > self._peak:
            self._peak = self._used
        self._sites[site] += n
        if self._sites[site] > self._site_peaks[site]:
            self._site_peaks[site] = self._sites[site]
        if owner is not None:
            self._owners[owner] += n
            if self._owners[owner] > self._owner_peaks[owner]:
                self._owner_peaks[owner] = self._owners[owner]
        return self._sites[site] if self._kill_site is not None \
            else self._used

    def charge(self, n: int, *, site: str = "", owner: str | None = None,
               enforce: bool = False, force: bool = False) -> bool:
        """Charge ``n`` bytes against the ledger.

        * ``enforce=True`` -- raise :class:`MemoryBudgetExceeded` if the
          charge does not fit *right now* (the deterministic simulated-
          rlimit mode the degrade ladder reacts to).
        * ``force=True`` -- apply unconditionally, recording overdraft;
          for accounting (the segment in transfer, staged wire bytes)
          that must observe the fault hooks but never refuse or raise.
        * none of them  -- return ``False`` if the charge does not fit
          (``try_charge`` flavor).
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"charge must be >= 0, got {n}")
        self._poke(site)
        with self._lock:
            if not force and not self._admits(n, owner):
                if enforce:
                    raise MemoryBudgetExceeded(
                        f"{self.name} budget exceeded at {site or '?'}: "
                        f"charge {n} with {self._used}/{self.capacity} "
                        f"used", requested=n, used=self._used,
                        capacity=self.capacity)
                return False
            watched = self._apply(n, site, owner)
            kill = (self._on_kill if self._kill_at is not None
                    and watched >= self._kill_at
                    and (self._kill_site is None or site == self._kill_site)
                    else None)
        if kill is not None:
            kill(watched)
        return True

    def try_charge(self, n: int, *, site: str = "",
                   owner: str | None = None) -> bool:
        """Non-raising charge; ``False`` if no headroom."""
        return self.charge(n, site=site, owner=owner)

    def release(self, n: int, *, site: str = "",
                owner: str | None = None) -> None:
        """Return ``n`` bytes; floors defensively at zero (a double
        release must never corrupt the ledger)."""
        n = int(n)
        if n < 0:
            raise ValueError(f"release must be >= 0, got {n}")
        with self._lock:
            self._used = max(0, self._used - n)
            self._sites[site] = max(0, self._sites[site] - n)
            if owner is not None:
                self._owners[owner] = max(0, self._owners[owner] - n)

    @contextmanager
    def rent(self, n: int, *, site: str = "", owner: str | None = None,
             enforce: bool = True) -> Iterator[None]:
        """Charge for the duration of a ``with`` block; the release is
        unconditional, so no exception path can leak charged bytes."""
        self.charge(n, site=site, owner=owner, enforce=enforce)
        try:
            yield
        finally:
            self.release(n, site=site, owner=owner)

    # ------------------------------------------------------------ quotas

    def set_quota(self, owner: str, nbytes: int | None) -> None:
        """Cap one owner's concurrent charged bytes (``None`` clears)."""
        with self._lock:
            if nbytes is None:
                self._quotas.pop(owner, None)
            else:
                nbytes = int(nbytes)
                if nbytes < 1:
                    raise ValueError(
                        f"quota must be >= 1 or None, got {nbytes}")
                self._quotas[owner] = nbytes

    def owner_used(self, owner: str) -> int:
        with self._lock:
            return self._owners.get(owner, 0)

    # ------------------------------------------------------------ queries

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def peak(self) -> int:
        with self._lock:
            return self._peak

    def headroom(self) -> int | None:
        """Bytes until capacity; ``None`` when unlimited."""
        with self._lock:
            if self.capacity is None:
                return None
            return max(0, self.capacity - self._used)

    def stats(self) -> dict:
        """Snapshot for ``/health`` and ``memory_stats`` reporting."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "used": self._used,
                "peak": self._peak,
                "headroom": (None if self.capacity is None
                             else max(0, self.capacity - self._used)),
                "sites": {k: v for k, v in sorted(self._sites.items()) if v},
                "site_peaks": dict(sorted(self._site_peaks.items())),
                "owners": {k: v for k, v in sorted(self._owners.items())},
                "owner_peaks": dict(sorted(self._owner_peaks.items())),
                "quotas": dict(sorted(self._quotas.items())),
                "charges": self._charges,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryBudget({self.name}: {self.used}/"
                f"{self.capacity if self.capacity is not None else 'inf'}"
                f" peak={self.peak})")
