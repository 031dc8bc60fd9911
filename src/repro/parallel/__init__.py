"""Parallel-execution substrate.

The paper parallelises the outermost hyperedge loop of its algorithms with
oneTBB's ``parallel_for`` over *blocked* or *cyclic* ranges, accumulating
edges in per-thread containers that are merged at the end, and studies the
effect of partitioning strategy and grain size on load balance (Figures 7,
8, 10).

This subpackage provides the same abstractions for Python:

* :mod:`repro.parallel.partition` — blocked and cyclic index partitions with
  grain-size control;
* :mod:`repro.parallel.executor`  — serial, thread-pool and process-pool
  execution of a kernel over partitions; each partition returns its own
  partial result (the per-thread container), merged by the caller;
* :mod:`repro.parallel.workload`  — per-worker work counters used to
  reproduce the paper's workload-characterisation figure.
"""

from repro.parallel.partition import (
    blocked_partitions,
    cyclic_partitions,
    partition_items,
    PartitionStrategy,
)
from repro.parallel.executor import ParallelConfig, run_partitioned, available_backends
from repro.parallel.workload import WorkloadStats, WorkerCounters
from repro.parallel.scheduler import (
    ScheduleResult,
    dynamic_chunk_schedule,
    grainsize_sweep,
    wedge_costs,
)

__all__ = [
    "ScheduleResult",
    "dynamic_chunk_schedule",
    "grainsize_sweep",
    "wedge_costs",
    "blocked_partitions",
    "cyclic_partitions",
    "partition_items",
    "PartitionStrategy",
    "ParallelConfig",
    "run_partitioned",
    "available_backends",
    "WorkloadStats",
    "WorkerCounters",
]
