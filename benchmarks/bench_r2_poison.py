"""R2 -- poison-safe pipeline: skipping mode, quarantine, salvage.

Pins the record-level half of the robustness story.  The harness
injects poison user records and hostile bytes (flips, splices,
truncations) into map outputs and reduce inputs, runs every scenario
through the serial *and* parallel runner, and classifies where on the
failure ladder each one landed.  The assertions here are the PR's
acceptance criteria:

* no scenario row reads DRIFT -- the runners agree byte-for-byte on
  output, counters, and quarantine contents, and every quarantine
  side-file's record count matches the ``quarantine_records`` counter
  exactly (no silent drops, no duplicates);
* clean runs with a SkipPolicy attached are byte-identical to the
  baseline (zero clean-path overhead);
* the matrix actually exercises each rung: skipped, salvaged, repaired,
  and failed (budget exhaustion, unskippable mapper) all appear.

``REPRO_R2_FUZZ`` / ``REPRO_R2_SECONDS`` bound the seeded fuzz tail
(CI's chaos job runs a 60-second slice).
"""

from repro.experiments.r2_poison import run


def test_r2_poison_pipeline(tabulate):
    result = tabulate(run, filename="r2")

    outcomes = result.column("outcome")
    assert all(v != "DRIFT" for v in outcomes)

    # Every rung of the ladder must have been exercised.
    assert outcomes.count("identical") >= 3   # clean runs, zero overhead
    assert outcomes.count("skipped") >= 4     # poison -> bisect -> quarantine
    assert outcomes.count("salvaged") >= 4    # block CRC -> partial salvage
    assert outcomes.count("repaired") >= 1    # whole-segment -> re-run map
    assert outcomes.count("failed") >= 2      # budget / no-map_range

    # Skipping scenarios must actually quarantine what they skipped.
    for row in result.rows:
        if row["outcome"] in ("skipped", "salvaged"):
            assert row["skipped"] >= 1
            assert row["quarantined"] >= 1
            assert row["q_bytes"] >= 1
