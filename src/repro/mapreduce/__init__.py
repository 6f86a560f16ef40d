"""MapReduce engine: functional semantics plus timing simulation.

Two cooperating layers reproduce Hadoop:

* :mod:`repro.mapreduce.functional` — a real (in-memory) MapReduce
  runtime: input splits, mappers, optional combiners, hash
  partitioning, per-reducer key-sorted reduce.  It executes the
  workloads' actual kernels and is used by correctness tests and the
  examples.
* :mod:`repro.mapreduce.engine` — a discrete-event *timing* simulator
  of jobs on microserver nodes.  Jobs progress wave by wave at fluid
  rates derived from the shared cost kernel; co-located jobs slow each
  other exactly as :func:`repro.model.costmodel.pair_metrics`
  prescribes, and each node keeps its time-resolved power trace in a
  segment window that the Wattsup meter samples.
"""

from repro.mapreduce.events import EventQueue
from repro.mapreduce.functional import MapReduceRuntime, JobOutput
from repro.mapreduce.job import JobSpec, JobResult
from repro.mapreduce.engine import NodeEngine, ClusterEngine

__all__ = [
    "EventQueue",
    "MapReduceRuntime",
    "JobOutput",
    "JobSpec",
    "JobResult",
    "NodeEngine",
    "ClusterEngine",
]
