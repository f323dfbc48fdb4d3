"""Fitted per-phase cost model: predict wall-clock, auto-pick knobs.

The cluster simulator (:mod:`~repro.mapreduce.simcluster.model`) prices
*measured* task profiles onto a described cluster -- it answers "what
did this run cost", not "what would a differently-shaped run cost".
This module closes that loop with a small analytical model:

1. **Fit** -- per-task durations from a finished run (priced by the
   simulator, the offline oracle) are regressed onto byte-level
   features: a map costs ``a1*input + a2*local_io + a3`` seconds, a
   reduce ``b1*shuffle + b2*(local_io+output) + b3``.  Least squares
   over the run's task population; with too few tasks the coefficients
   fall back to the cluster spec's own bandwidths (which is exactly
   what the oracle charges per byte).
2. **Predict** -- scaling laws re-derive the feature bytes for a
   *hypothetical* knob setting (reducer count, wave width, sort buffer,
   IFile block size) from the run's workload totals: spill count from
   the sort buffer, reduce merge passes from
   :func:`~repro.mapreduce.sort.plan_merge_passes`, per-block framing
   overhead from the block size; makespans come from the same
   list-scheduler the simulator uses.
3. **Autotune** -- an exhaustive grid over the knob space, keeping the
   defaults unless the best candidate predicts a material (>5%)
   improvement -- autotuned knobs must never lose to defaults.

``repro tune`` drives this end to end (fit on a sample run, validate
against the simulator, print the recommendation); runners can call
:func:`autotune_from_result` directly as the programmatic hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.mapreduce.metrics import C, TaskProfile
from repro.mapreduce.simcluster.model import (
    ClusterSimulator,
    ClusterSpec,
    _schedule,
)
from repro.mapreduce.sort import plan_merge_passes

__all__ = [
    "CostModel",
    "PhasePrediction",
    "TunedKnobs",
    "WorkloadSummary",
    "autotune_from_result",
    "estimate_peak_memory",
]

#: per-block framing overhead an IFile charges (length prefix + CRC)
_BLOCK_OVERHEAD_BYTES = 16
#: fraction a candidate must beat the defaults by before autotune
#: recommends it (prediction error must never make tuning a regression)
_IMPROVEMENT_FLOOR = 0.05


@dataclass(frozen=True)
class WorkloadSummary:
    """Byte-level totals of one measured run: what the scaling laws
    re-shape under hypothetical knobs."""

    num_maps: int
    num_reducers: int
    #: total map input bytes
    input_bytes: int
    #: uncompressed serialized map output (drives spill counts)
    raw_map_output_bytes: int
    #: materialized (post-codec) map output == total shuffle payload
    shuffle_bytes: int
    #: total reduce output bytes
    output_bytes: int
    #: knobs the measured run used
    sort_buffer_bytes: int
    merge_factor: int
    ifile_block_bytes: int | None = None

    @classmethod
    def from_result(cls, result, job) -> "WorkloadSummary":
        """Summarize a finished :class:`~repro.mapreduce.engine.
        JobResult` under the job that produced it."""
        counters = result.counters
        profiles = result.task_profiles
        return cls(
            num_maps=result.num_map_tasks,
            num_reducers=result.num_reduce_tasks,
            input_bytes=sum(p.input_bytes for p in profiles
                            if p.kind == "map"),
            raw_map_output_bytes=counters.get(C.MAP_OUTPUT_BYTES),
            shuffle_bytes=counters.get(C.MAP_OUTPUT_MATERIALIZED_BYTES),
            output_bytes=sum(p.output_bytes for p in profiles
                             if p.kind == "reduce"),
            sort_buffer_bytes=job.sort_buffer_bytes,
            merge_factor=job.merge_factor,
            ifile_block_bytes=job.ifile_block_bytes,
        )


@dataclass(frozen=True)
class PhasePrediction:
    """Predicted wall-clock of one knob setting, phase by phase."""

    map_seconds: float
    reduce_seconds: float
    #: per-task durations backing the makespans
    map_task_seconds: float = 0.0
    reduce_task_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.map_seconds + self.reduce_seconds


@dataclass(frozen=True)
class TunedKnobs:
    """Autotune's recommendation (defaults when nothing beats them)."""

    num_reducers: int
    wave_size: int
    sort_buffer_bytes: int
    ifile_block_bytes: int | None
    predicted_seconds: float
    default_seconds: float

    @property
    def tuned(self) -> bool:
        """Did autotune pick anything other than the defaults?"""
        return self.predicted_seconds < self.default_seconds


def _lstsq(rows: list[list[float]], y: list[float]) -> list[float]:
    """Non-negative least-squares coefficients.

    Negative per-byte costs are always overfitting artifacts (no byte
    is free to move), and non-negativity keeps every prediction
    monotone in its feature bytes -- the property the knob grid search
    relies on.  With only 3 features, exact NNLS is an enumeration of
    the 8 possible supports: the best all-nonnegative unconstrained
    fit over a support is the constrained optimum.  (Naive clamping of
    a signed fit would instead shift the whole phase sum.)
    """
    import numpy as np

    a = np.asarray(rows, dtype=float)
    b = np.asarray(y, dtype=float)
    ncol = a.shape[1]
    best_resid, best = float(np.dot(b, b)), [0.0] * ncol
    for mask in range(1, 1 << ncol):
        cols = [j for j in range(ncol) if mask >> j & 1]
        coef, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        if any(c < 0 for c in coef):
            continue
        resid = b - a[:, cols] @ coef
        resid = float(np.dot(resid, resid))
        if resid < best_resid:
            best_resid = resid
            best = [0.0] * ncol
            for j, c in zip(cols, coef):
                best[j] = float(c)
    return best


class CostModel:
    """Per-phase analytical model fitted from one measured run."""

    def __init__(self, spec: ClusterSpec, workload: WorkloadSummary,
                 map_coef: tuple[float, float, float],
                 reduce_coef: tuple[float, float, float]) -> None:
        self.spec = spec
        self.workload = workload
        self.map_coef = map_coef
        self.reduce_coef = reduce_coef

    # ------------------------------------------------------------------ fit

    @staticmethod
    def _features(profile: TaskProfile) -> list[float]:
        if profile.kind == "map":
            return [float(profile.input_bytes),
                    float(profile.local_write_bytes
                          + profile.local_read_bytes), 1.0]
        return [float(profile.shuffle_bytes),
                float(profile.local_write_bytes + profile.local_read_bytes
                      + profile.output_bytes), 1.0]

    @classmethod
    def fit(cls, profiles: list[TaskProfile], workload: WorkloadSummary,
            spec: ClusterSpec | None = None) -> "CostModel":
        """Regress oracle task durations onto byte features.

        The oracle is the cluster simulator itself: fitting against it
        (rather than wall-clock noise from a loaded dev machine) makes
        the model deterministic and lets the validation error band be
        asserted in tests.  Fewer than 3 tasks of a kind cannot pin 3
        coefficients; those fall back to the spec's per-byte charges
        plus the population's mean CPU -- the oracle's own formula.
        """
        spec = spec or ClusterSpec()
        sim = ClusterSimulator(spec)
        coefs: dict[str, tuple[float, float, float]] = {}
        for kind in ("map", "reduce"):
            pop = [p for p in profiles if p.kind == kind]
            if len(pop) >= 3:
                rows = [cls._features(p) for p in pop]
                y = [sim.map_task_duration(p) if kind == "map"
                     else sim.reduce_task_duration(p) for p in pop]
                a, b, c = _lstsq(rows, y)
            else:
                # Oracle formula directly: bytes over bandwidths plus
                # mean scaled CPU (exact when CPU is uniform).
                mean_cpu = (sum(p.total_cpu for p in pop) / len(pop)
                            / spec.cpu_scale) if pop else 0.0
                per_disk = 1.0 / spec.disk_bandwidth
                if kind == "map":
                    a, b, c = per_disk, per_disk, mean_cpu
                else:
                    a = per_disk + 1.0 / spec.network_bandwidth
                    b, c = per_disk, mean_cpu
            coefs[kind] = (a, b, c)
        return cls(spec, workload, coefs["map"], coefs["reduce"])

    # -------------------------------------------------------------- predict

    def _shuffle_total(self, ifile_block_bytes: int | None) -> float:
        """Total shuffle payload under a hypothetical block size.

        Only the *relative* framing overhead matters for ranking
        candidates: every block carries a fixed-size frame, so smaller
        blocks inflate the materialized bytes by ``overhead/block``.
        """
        w = self.workload
        if ifile_block_bytes is None or ifile_block_bytes <= 0:
            return float(w.shuffle_bytes)
        blocks = math.ceil(max(w.shuffle_bytes, 1) / ifile_block_bytes)
        base_blocks = (math.ceil(max(w.shuffle_bytes, 1)
                                 / w.ifile_block_bytes)
                       if w.ifile_block_bytes else 0)
        delta = (blocks - base_blocks) * _BLOCK_OVERHEAD_BYTES
        return float(max(w.shuffle_bytes + delta, 1))

    def predict(self, *, num_reducers: int | None = None,
                wave_size: int | None = None,
                sort_buffer_bytes: int | None = None,
                ifile_block_bytes: int | None = None) -> PhasePrediction:
        """Wall-clock under hypothetical knobs (defaults = as measured)."""
        w = self.workload
        reducers = (w.num_reducers if num_reducers is None
                    else num_reducers)
        sort_buffer = (w.sort_buffer_bytes if sort_buffer_bytes is None
                       else sort_buffer_bytes)
        if reducers < 1:
            raise ValueError(f"num_reducers must be >= 1, got {reducers}")
        if sort_buffer < 1:
            raise ValueError(
                f"sort_buffer_bytes must be >= 1, got {sort_buffer}")

        shuffle_total = self._shuffle_total(ifile_block_bytes)
        input_per_map = w.input_bytes / w.num_maps
        raw_per_map = w.raw_map_output_bytes / w.num_maps
        shuffle_per_map = shuffle_total / w.num_maps

        # Map-side local I/O: the final segments are always written
        # once; with more than one spill the runs are also written out
        # and read back for the spill merge.
        spills = max(1, math.ceil(raw_per_map / sort_buffer))
        map_io = shuffle_per_map if spills == 1 else 3.0 * shuffle_per_map
        a1, a2, a3 = self.map_coef
        map_d = a1 * input_per_map + a2 * map_io + a3

        # Reduce-side: each reducer merges one run per map; runs beyond
        # the merge factor pay on-disk merge passes (read + write).
        shuffle_per_reduce = shuffle_total / reducers
        run_bytes = shuffle_per_reduce / w.num_maps
        passes = plan_merge_passes(w.num_maps, w.merge_factor)
        merge_io = 2.0 * sum(take * run_bytes for take in passes)
        reduce_io = merge_io + w.output_bytes / reducers
        b1, b2, b3 = self.reduce_coef
        reduce_d = b1 * shuffle_per_reduce + b2 * reduce_io + b3

        map_slots = min(self.spec.map_slots if wave_size is None
                        else wave_size, self.spec.map_slots)
        if map_slots < 1:
            raise ValueError(f"wave_size must be >= 1, got {map_slots}")
        return PhasePrediction(
            map_seconds=_schedule([map_d] * w.num_maps, map_slots),
            reduce_seconds=_schedule([reduce_d] * reducers,
                                     self.spec.reduce_slots),
            map_task_seconds=map_d,
            reduce_task_seconds=reduce_d,
        )

    # ------------------------------------------------------------- validate

    def validate(self, profiles: list[TaskProfile]) -> dict[str, float]:
        """Prediction error against the simulator on a profile set.

        The model's contract is *phase* times (the scheduler shapes
        waves, not individual tasks), so the headline
        ``mean_abs_pct_error`` averages the absolute per-phase errors.
        Per-task error is reported separately as a diagnostic: task CPU
        varies in ways no byte feature can carry, so it is expected to
        be much looser than the phase aggregate.
        """
        sim = ClusterSimulator(self.spec)
        task_errors: list[float] = []
        phase: dict[str, list[float]] = {"map": [0.0, 0.0],
                                         "reduce": [0.0, 0.0]}
        for p in profiles:
            oracle = (sim.map_task_duration(p) if p.kind == "map"
                      else sim.reduce_task_duration(p))
            coef = self.map_coef if p.kind == "map" else self.reduce_coef
            feats = self._features(p)
            predicted = sum(c * f for c, f in zip(coef, feats))
            phase[p.kind][0] += predicted
            phase[p.kind][1] += oracle
            if oracle > 0:
                task_errors.append(abs(predicted - oracle) / oracle)
        out: dict[str, float] = {}
        phase_errors: list[float] = []
        for kind, (pred, oracle) in phase.items():
            err = 100.0 * (pred - oracle) / oracle if oracle else 0.0
            out[f"{kind}_pct_error"] = err
            if oracle:
                phase_errors.append(abs(err))
        out["mean_abs_pct_error"] = (
            sum(phase_errors) / len(phase_errors) if phase_errors else 0.0)
        out["task_mean_abs_pct_error"] = (
            100.0 * sum(task_errors) / len(task_errors)
            if task_errors else 0.0)
        return out

    # ------------------------------------------------------------- autotune

    def autotune(self) -> TunedKnobs:
        """Exhaustive grid search; defaults win unless beaten by >5%.

        The floor absorbs model error: a candidate predicted marginally
        faster than the defaults is statistically a tie, and shipping a
        tie as a recommendation risks a real-world regression.
        """
        w = self.workload
        default = self.predict()
        slots = self.spec.reduce_slots
        reducer_grid = sorted({w.num_reducers, 1, max(1, slots // 2),
                               slots, 2 * slots})
        buffer_grid = sorted({w.sort_buffer_bytes}
                             | {1 << p for p in range(16, 27, 2)})
        block_grid = [w.ifile_block_bytes, None, 1 << 20]
        wave_grid = sorted({self.spec.map_slots,
                            min(w.num_maps, self.spec.map_slots)})

        best = (default.total_seconds, None)
        for reducers in reducer_grid:
            for sort_buffer in buffer_grid:
                for block in block_grid:
                    for wave in wave_grid:
                        p = self.predict(
                            num_reducers=reducers, wave_size=wave,
                            sort_buffer_bytes=sort_buffer,
                            ifile_block_bytes=block)
                        if p.total_seconds < best[0]:
                            best = (p.total_seconds,
                                    (reducers, wave, sort_buffer, block))
        if (best[1] is None or best[0] >
                default.total_seconds * (1.0 - _IMPROVEMENT_FLOOR)):
            return TunedKnobs(
                num_reducers=w.num_reducers,
                wave_size=self.spec.map_slots,
                sort_buffer_bytes=w.sort_buffer_bytes,
                ifile_block_bytes=w.ifile_block_bytes,
                predicted_seconds=default.total_seconds,
                default_seconds=default.total_seconds)
        reducers, wave, sort_buffer, block = best[1]
        return TunedKnobs(
            num_reducers=reducers, wave_size=wave,
            sort_buffer_bytes=sort_buffer, ifile_block_bytes=block,
            predicted_seconds=best[0],
            default_seconds=default.total_seconds)


def estimate_peak_memory(workload: WorkloadSummary, *,
                         num_workers: int) -> int:
    """Priced peak resident bytes of one job: the cost model's memory
    term, consumed by the service's admission controller.

    An upper bound from the same byte-level ledger sites the runtime
    charges:

    * a **map** worker holds at most one sort buffer (``flush`` rents
      exactly the buffered bytes, bounded by ``sort_buffer_bytes``);
    * a **reduce** worker holds its fetched segments (priced
      materialized bytes, the whole per-reduce shuffle share) plus the
      decoded runs of the merge (raw key+value bytes, approximated by
      the per-reduce share of the raw map output).

    Every worker slot is priced at the *worse* of the two roles -- the
    admission controller cannot know the map/reduce mix of the moment,
    and overcommit is the failure mode being priced out.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    w = workload
    map_peak = w.sort_buffer_bytes
    shuffle_per_reduce = math.ceil(w.shuffle_bytes / max(1, w.num_reducers))
    decoded_per_reduce = math.ceil(w.raw_map_output_bytes
                                   / max(1, w.num_reducers))
    reduce_peak = shuffle_per_reduce + decoded_per_reduce
    return num_workers * max(map_peak, reduce_peak, 1)


def autotune_from_result(result, job,
                         spec: ClusterSpec | None = None) -> TunedKnobs:
    """The programmatic autotune hook: fit on a finished run and
    recommend knobs for the next one.  Callers apply a returned knob
    only when the corresponding flag was omitted -- explicit flags
    always win."""
    workload = WorkloadSummary.from_result(result, job)
    model = CostModel.fit(result.task_profiles, workload, spec)
    return model.autotune()
