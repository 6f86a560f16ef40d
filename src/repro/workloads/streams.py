"""Poisson job streams for heavy steady-state engine runs.

The steady-state *experiment* (`repro.experiments.steady_state`)
generates arrivals of bare :class:`AppInstance`\\ s and lets the ECoST
controller pick configurations.  Benchmarks and scalability studies
instead want fully-specified :class:`JobSpec` streams — arrival time,
application, input size *and* knobs all drawn from one seeded stream —
so the engine can be driven at thousands of arrivals without any
controller in the loop.  This module is that canonical generator; the
tracked `bench_steady_state_1k` benchmark is defined in terms of it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.utils.rng import SeedLike, rng_from
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app

#: Default knob grids for the stream: the four studied DVFS points and
#: HDFS block sizes, with 2-4 concurrent mappers.
STREAM_FREQUENCIES: tuple[float, ...] = (1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ)
STREAM_BLOCK_SIZES: tuple[int, ...] = (64 * MB, 128 * MB, 256 * MB, 512 * MB)
STREAM_DATA_SIZES: tuple[int, ...] = (1 * GB, 5 * GB)

#: Per-class knobs of a *converged* self-tuning controller (the
#: paper's steady state, §5: after the learning period every arrival
#: of a known application is submitted at its tuned configuration).
#: Compute-bound apps want the clock, memory-bound ones don't pay for
#: it, I/O-bound ones want big sequential extents.
TUNED_CLASS_CONFIGS: dict[str, JobConfig] = {
    "C": JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4),
    "H": JobConfig(frequency=2.0 * GHZ, block_size=256 * MB, n_mappers=3),
    "I": JobConfig(frequency=1.2 * GHZ, block_size=512 * MB, n_mappers=3),
    "M": JobConfig(frequency=1.6 * GHZ, block_size=128 * MB, n_mappers=2),
}


def poisson_job_stream(
    n_jobs: int,
    *,
    mean_interarrival_s: float = 6.0,
    seed: SeedLike = 0,
    app_codes: Sequence[str] = ALL_APPS,
    data_sizes: Sequence[int] = STREAM_DATA_SIZES,
    frequencies: Sequence[float] = STREAM_FREQUENCIES,
    block_sizes: Sequence[int] = STREAM_BLOCK_SIZES,
    mapper_range: tuple[int, int] = (2, 5),
    tuned: bool = False,
    job_ids_from: int | None = None,
) -> Iterator[JobSpec]:
    """Yield ``n_jobs`` fully-configured specs with Poisson arrivals.

    With ``tuned=False`` every knob is drawn uniformly from its grid —
    the untuned exploratory regime.  With ``tuned=True`` each
    application arrives at its class's converged configuration
    (:data:`TUNED_CLASS_CONFIGS`) — the post-learning steady state the
    paper's controller runs in, where the same few ``(application,
    configuration)`` identities recur for the whole stream.

    Deterministic for a given seed: every per-job attribute is drawn
    from one stream in the fixed order (arrival gap, application, data
    size, then — only when ``tuned=False`` — frequency, block size,
    mappers), so the workload is reproducible bit-for-bit.  Because
    ``tuned=True`` skips the three knob draws, tuned and untuned
    streams at the same seed share only the *first* arrival and
    diverge from the second job on — they are different workloads, not
    the same jobs with different knobs.

    Job ids need care.  By default they come from a *per-process*
    ``itertools`` counter: unique within one process and different on
    every call, but **not** stable across runs, and every new process
    restarts the counter at 1, so defaulted ids from different
    processes collide.  Anything that compares job identities across
    runs or processes — benchmarks, golden traces, the service's
    offline-comparison runs — must pass ``job_ids_from``, which
    assigns sequential ids starting there (job ``i`` gets
    ``job_ids_from + i``) purely as a function of the arguments: the
    same ids in every process.  The caller then owns id uniqueness
    within one cluster.
    """
    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    rng = rng_from(seed)
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(mean_interarrival_s))
        code = app_codes[int(rng.integers(len(app_codes)))]
        size = int(rng.choice(data_sizes))
        app = get_app(code)
        if tuned:
            config = TUNED_CLASS_CONFIGS[app.app_class.value]
        else:
            f = frequencies[int(rng.integers(len(frequencies)))]
            b = block_sizes[int(rng.integers(len(block_sizes)))]
            m = int(rng.integers(*mapper_range))
            config = JobConfig(frequency=f, block_size=b, n_mappers=m)
        if job_ids_from is None:
            yield JobSpec(
                instance=AppInstance(app, size),
                config=config,
                submit_time=t,
            )
        else:
            yield JobSpec(
                instance=AppInstance(app, size),
                config=config,
                submit_time=t,
                job_id=job_ids_from + i,
            )
