"""End-to-end cluster pipeline: engine + DFS + locality + timeline.

Glues the pieces of Fig 1 into one call: the real engine executes the
job (steps 2-6, measured bytes and CPU); a :class:`SimDFS` places the
input blocks (step 1) and receives the output (step 7); the locality
scheduler assigns map tasks to replica-holding nodes; and the cost
model prices the reduce phase.  The result is a single simulated
wall-clock with a data-locality breakdown -- the fullest-fidelity mode
of the cluster substitution described in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.engine import JobResult
from repro.mapreduce.job import Job
from repro.mapreduce.runtime import LocalJobRunner
from repro.mapreduce.simcluster.dfs import SimDFS
from repro.mapreduce.simcluster.model import ClusterSimulator, ClusterSpec, _schedule
from repro.mapreduce.simcluster.schedule import MapTaskSpec, schedule_maps
from repro.scidata.dataset import Dataset

__all__ = ["ClusterRunResult", "ClusterJobRunner"]


@dataclass
class ClusterRunResult:
    """One job's real results plus its simulated cluster execution."""

    job_result: JobResult
    map_seconds: float
    reduce_seconds: float
    #: time to replicate the job output back into the DFS (step 7)
    output_write_seconds: float
    data_local_fraction: float

    @property
    def total_seconds(self) -> float:
        return self.map_seconds + self.reduce_seconds + self.output_write_seconds


class ClusterJobRunner:
    """Run a job for real, then simulate it on a described cluster.

    Parameters
    ----------
    spec:
        Cluster hardware/slot model (defaults to the paper's 5-node
        layout).
    replication:
        DFS replication factor for input and output files.
    locality_aware:
        Whether the map scheduler prefers replica-holding nodes.
    """

    def __init__(self, spec: ClusterSpec | None = None, replication: int = 3,
                 locality_aware: bool = True,
                 block_size: int = 64 << 20) -> None:
        self.spec = spec or ClusterSpec()
        self.replication = replication
        self.locality_aware = locality_aware
        self.block_size = block_size
        self.dfs = SimDFS(nodes=self.spec.nodes, replication=replication,
                          block_size=block_size)
        self._engine = LocalJobRunner()
        self._sim = ClusterSimulator(self.spec)

    def run(self, job: Job, dataset: Dataset) -> ClusterRunResult:
        result = self._engine.run(job, dataset)

        # Step 1: place the input and build locality-annotated map tasks.
        input_file = f"{job.name}-input"
        if self.dfs.exists(input_file):
            self.dfs.delete(input_file)
        blocks = self.dfs.write(input_file, dataset.total_value_bytes())
        map_profiles = [p for p in result.task_profiles if p.kind == "map"]
        tasks = []
        for i, profile in enumerate(map_profiles):
            block = blocks[i % len(blocks)]
            # local duration: CPU plus local disk traffic (input read at
            # disk speed happens on the replica holder; remote reads add
            # the network term inside the scheduler)
            local_disk = (
                profile.input_bytes
                + profile.local_write_bytes
                + profile.local_read_bytes
            ) / self.spec.disk_bandwidth
            tasks.append(MapTaskSpec(
                duration=profile.total_cpu / self.spec.cpu_scale + local_disk,
                input_bytes=profile.input_bytes,
                preferred_nodes=block.replicas,
            ))
        sched = schedule_maps(self.spec, tasks,
                              locality_aware=self.locality_aware)

        # Steps 4-6: reduce phase through the cost model.
        reduce_durations = [
            self._sim.reduce_task_duration(p)
            for p in result.task_profiles if p.kind == "reduce"
        ]
        reduce_seconds = _schedule(reduce_durations, self.spec.reduce_slots)

        # Step 7: replicate the output back into the DFS: one local write
        # plus (replication - 1) network copies of the output bytes.
        output_bytes = sum(
            p.output_bytes for p in result.task_profiles if p.kind == "reduce"
        )
        output_file = f"{job.name}-output"
        if self.dfs.exists(output_file):
            self.dfs.delete(output_file)
        self.dfs.write(output_file, output_bytes)
        copies = max(0, self.dfs.replication - 1)
        output_write = (
            output_bytes / self.spec.disk_bandwidth
            + copies * output_bytes / self.spec.network_bandwidth
        )

        return ClusterRunResult(
            job_result=result,
            map_seconds=sched.makespan,
            reduce_seconds=reduce_seconds,
            output_write_seconds=output_write,
            data_local_fraction=sched.locality_fraction,
        )
