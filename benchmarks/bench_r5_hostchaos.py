"""R5 -- host failure domains: crashes, partitions, disk failover.

Pins the host-level rung of the robustness ladder.  Tasks and segment
servers are spread over simulated hosts by a stable hash, and whole
hosts are failed under the job: killed at the shuffle barrier,
partitioned off the network, or given a failing workdir disk.  The
assertions here are the PR's acceptance criteria:

* no scenario row reads DRIFT -- serial and parallel runners agree
  byte-for-byte on output, counters, and quarantine side-files, and
  every successful run matches the serial/direct baseline exactly;
* with health monitoring always on, the clean path retries nothing,
  loses nothing, and fails nothing over;
* a whole-host crash re-executes exactly the completed maps homed on
  the dead host (``HOSTS_LOST`` / ``MAPS_REEXECUTED_HOST`` nonzero)
  with intact output, on every transport;
* a network partition heals through the per-link retry ladder without
  the host ever being declared dead: retries nonzero, hosts_lost zero;
* a disk fault fails every task homed on the host over to its spare
  volume (``DISK_FAILOVERS`` nonzero) with deterministic quarantine
  side-files, identical between runners;
* a zero ``max_host_reexecs`` budget turns a host crash into a clean,
  consistent job failure instead of a re-execution cascade.

``REPRO_R5_FUZZ`` / ``REPRO_R5_SECONDS`` bound the seeded fuzz tail
(CI's chaos job runs a small slice through both runners).
"""

from repro.experiments.r5_hostchaos import run


def test_r5_host_chaos(tabulate):
    result = tabulate(run, filename="r5")

    outcomes = result.column("outcome")
    assert all(v != "DRIFT" for v in outcomes)

    # Monitoring on, faults off: nothing retried, lost, or failed over.
    clean = [r for r in result.rows if r["scenario"] == "clean-monitored"]
    assert len(clean) == 2
    assert all(r["outcome"] == "identical" for r in clean)
    assert all(r["retries"] == 0 and r["hosts_lost"] == 0
               and r["failovers"] == 0 for r in clean)

    # A host crash re-executes its maps on every transport.
    crashes = [r for r in result.rows if r["scenario"] == "host-crash"]
    assert len(crashes) == 2
    for row in crashes:
        assert row["outcome"] == "reexecuted"
        assert row["hosts_lost"] >= 1
        assert row["host_reexecs"] >= 1

    # A partition heals in-attempt; the host is never declared dead.
    partitions = [r for r in result.rows
                  if r["scenario"] == "host-partition"]
    assert len(partitions) == 2
    for row in partitions:
        assert row["outcome"] == "identical"
        assert row["retries"] > 0
        assert row["hosts_lost"] == 0

    # Disk faults (ENOSPC and EIO) fail over with deterministic
    # quarantine side-files.
    disks = [r for r in result.rows if r["scenario"] == "disk-fault"]
    assert len(disks) == 3
    assert {r["fault"].split()[0] for r in disks} == {"enospc", "eio"}
    for row in disks:
        assert row["outcome"] == "identical"
        assert row["failovers"] > 0
        assert row["quarantine"] > 0

    # Compound chaos still lands on the re-execution rung.
    assert result.row_by("scenario", "compound")["outcome"] == "reexecuted"

    # A zero budget fails the job the same way in both runners.
    assert result.row_by("scenario", "bounded")["outcome"] == "failed"
