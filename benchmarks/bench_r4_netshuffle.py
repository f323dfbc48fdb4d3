"""R4 -- the shuffle-transport matrix: segment servers, wire
compression, fetch retries, and map re-execution.

Pins the transfer-level half of the robustness story.  Map outputs
are served over real loopback TCP by per-worker segment servers, wire
faults are injected server-side against the live socket, and segment
bytes are optionally compressed on the wire with the paper's §III
stride codec.  The assertions:

* no scenario row reads DRIFT -- serial and parallel runners agree
  byte-for-byte on output and counters (wire counters included), and
  every successful run matches the serial/direct baseline exactly;
* the direct clean path matches the baseline's *full* counter set,
  ``SHUFFLE_*`` included, for every query;
* the stride-predictor wire codec measurably shrinks the wire:
  ``SHUFFLE_WIRE_BYTES`` under ``fastpred+zlib`` is strictly below the
  NullCodec's (which must equal the raw segment bytes -- verbatim
  sendfile serving costs nothing);
* every wire fault (flip / drop / truncate / delay / stall) against a
  live socket is healed with identical output;
* a sticky epoch-0 fault escalates to map re-execution through the
  graceful drain (``MAPS_REEXECUTED`` nonzero, output intact);
* a fault sticky across every epoch fails the job in *both* runners
  (bounded escalation, never a hang or a silent wrong answer);
* killing a segment server mid-job escalates the same way, and the
  re-registration revives the server -- the job still completes
  identically.

``REPRO_R4_FUZZ`` / ``REPRO_R4_SECONDS`` bound the seeded fuzz tail
(CI's chaos job runs a small slice through both runners).
"""

from repro.experiments.r4_netshuffle import run


def test_r4_network_shuffle(tabulate):
    result = tabulate(run, filename="r4")

    outcomes = result.column("outcome")
    assert all(v != "DRIFT" for v in outcomes)

    # The wire-codec sweep: null serves verbatim (wire == raw), the
    # stride codec compresses the same bytes strictly smaller.
    codec_rows = {r["codec"]: r for r in result.rows
                  if r["scenario"] == "wire-codec"}
    assert codec_rows["null"]["wire_bytes"] == codec_rows["null"]["raw_bytes"]
    assert (codec_rows["fastpred+zlib"]["wire_bytes"]
            < codec_rows["null"]["wire_bytes"])
    assert all(r["outcome"] == "identical" for r in codec_rows.values())

    # Clean equivalence over both transports: every query, zero retries.
    for transport in ("direct", "network"):
        clean = [r for r in result.rows
                 if r["scenario"] == f"clean-{transport}"]
        assert len(clean) == 3
        assert all(r["outcome"] == "identical" for r in clean)
        assert all(r["retries"] == 0 for r in clean)

    # Every wire fault against the live socket heals.
    for op in ("flip", "drop", "truncate", "delay", "stall"):
        row = result.row_by("scenario", f"wire-{op}")
        assert row["outcome"] == "identical"

    # Epoch escalation and server loss both land on the re-execution
    # rung with intact output.
    assert result.row_by("scenario", "reexec-map")["outcome"] == "reexecuted"
    assert result.row_by("scenario", "server-loss")["outcome"] == "reexecuted"

    # Bounded escalation: the hopeless case fails (in both runners --
    # disagreement would read DRIFT).
    assert result.row_by("scenario", "unfetchable")["outcome"] == "failed"
