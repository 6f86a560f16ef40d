"""Application base classes: profiles, classes, instances.

The paper's controller never sees application *code* — it observes
hardware counters and resource utilisation.  The
:class:`AppProfile` is therefore the contract between a workload and
the simulated cluster: it encodes the per-byte compute cost, the I/O
amplification of each MapReduce stage, and the micro-architectural
signature (IPC, MPKI…) that telemetry will report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.utils.units import GB, MB
from repro.utils.validation import check_positive, check_probability


class AppClass(enum.Enum):
    """Application classes from §3.2 of the paper."""

    COMPUTE = "C"
    HYBRID = "H"
    IO = "I"
    MEMORY = "M"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The three studied per-node input sizes (§2.3): small, medium, large.
DATA_SIZES: tuple[int, ...] = (1 * GB, 5 * GB, 10 * GB)


@dataclass(frozen=True)
class AppProfile:
    """Calibrated resource signature of one application.

    Parameters
    ----------
    instructions_per_byte:
        Retired instructions per input byte on the map side (includes
        framework/JVM overhead, hence the large values).
    ipc0:
        Cache-resident IPC of the instruction mix on the in-order core.
    llc_mpki0:
        LLC misses per kilo-instruction with the full LLC available.
    icache_mpki / branch_mpki:
        Front-end signature — reported by telemetry, used as features.
    read_factor / spill_factor / shuffle_factor / output_factor:
        Bytes moved per input byte by: HDFS reads, map-side spills
        (disk writes), the shuffle (network for remote partitions,
        disk for local), and final HDFS output writes.
    reduce_instr_per_byte:
        Reduce-side instructions per *shuffled* byte.
    io_overlap:
        Fraction of I/O time the framework overlaps with computation
        inside a task (prefetching, async spill).  Low values give the
        alternating compute/IO behaviour of I/O-bound apps, which is
        what leaves resources idle for a co-runner.
    cache_pressure:
        Relative LLC demand (drives the contention partition).
    cache_alpha:
        Miss-curve exponent: sensitivity of MPKI to lost LLC capacity.
    mem_stream_factor:
        Extra DRAM traffic per LLC-miss byte (streaming stores,
        prefetch overshoot); scales memory-bandwidth demand.
    footprint_per_task:
        Resident memory per concurrently-running map task (bytes).
    """

    instructions_per_byte: float
    ipc0: float
    llc_mpki0: float
    icache_mpki: float
    branch_mpki: float
    read_factor: float = 1.0
    spill_factor: float = 0.1
    shuffle_factor: float = 0.1
    output_factor: float = 0.05
    reduce_instr_per_byte: float = 40.0
    io_overlap: float = 0.5
    cache_pressure: float = 0.4
    cache_alpha: float = 0.2
    mem_stream_factor: float = 1.5
    footprint_per_task: float = 350 * MB

    def __post_init__(self) -> None:
        check_positive("instructions_per_byte", self.instructions_per_byte)
        check_positive("ipc0", self.ipc0)
        check_positive("llc_mpki0", self.llc_mpki0)
        check_positive("icache_mpki", self.icache_mpki)
        check_positive("branch_mpki", self.branch_mpki)
        check_positive("read_factor", self.read_factor)
        check_positive("spill_factor", self.spill_factor, strict=False)
        check_positive("shuffle_factor", self.shuffle_factor, strict=False)
        check_positive("output_factor", self.output_factor, strict=False)
        check_positive("reduce_instr_per_byte", self.reduce_instr_per_byte, strict=False)
        check_probability("io_overlap", self.io_overlap)
        check_probability("cache_pressure", self.cache_pressure)
        check_positive("cache_alpha", self.cache_alpha, strict=False)
        check_positive("mem_stream_factor", self.mem_stream_factor)
        check_positive("footprint_per_task", self.footprint_per_task)

    @property
    def cpi0(self) -> float:
        """Cache-resident cycles per instruction."""
        return 1.0 / self.ipc0

    @property
    def disk_bytes_per_input_byte(self) -> float:
        """Total disk traffic per input byte across all stages.

        Shuffle data is written locally by the mapper and read back by
        the reducer, so it traverses the disk regardless of whether the
        destination partition is remote.
        """
        return (
            self.read_factor
            + self.spill_factor
            + self.shuffle_factor
            + self.output_factor
        )


KeyValue = tuple[object, object]


class Application:
    """A MapReduce application: functional kernels plus a profile.

    Subclasses implement :meth:`mapper` and :meth:`reducer` (and
    optionally :meth:`combiner`) — real computations that the in-memory
    executor runs for correctness tests — and provide the calibrated
    :class:`AppProfile` the timing simulator uses.
    """

    #: Short code used throughout the paper, e.g. ``"wc"``.
    code: str = ""
    #: Full human-readable name.
    name: str = ""
    #: Application class (C/H/I/M).
    app_class: AppClass = AppClass.COMPUTE
    #: Calibrated resource profile.
    profile: AppProfile

    def mapper(self, key: object, value: object) -> Iterable[KeyValue]:
        """Map one input record to zero or more intermediate pairs."""
        raise NotImplementedError

    def reducer(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        """Reduce all values of one intermediate key to output pairs."""
        raise NotImplementedError

    def combiner(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        """Optional map-side combine; defaults to the reducer."""
        return self.reducer(key, values)

    @property
    def has_combiner(self) -> bool:
        """Whether a map-side combiner is semantically valid for this app."""
        return True

    def generate_records(self, n_records: int, seed: int = 0) -> Iterator[KeyValue]:
        """Yield ``n_records`` synthetic input records for this app."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.code} [{self.app_class}]>"


@dataclass(frozen=True)
class AppInstance:
    """An application paired with a per-node input size.

    This is the paper's unit of scheduling: 11 apps × 3 sizes = 33
    instances, giving the 528 unordered co-location pairs of §7.
    """

    app: Application
    data_bytes: int

    def __post_init__(self) -> None:
        check_positive("data_bytes", self.data_bytes)

    @property
    def code(self) -> str:
        return self.app.code

    @property
    def app_class(self) -> AppClass:
        return self.app.app_class

    @property
    def profile(self) -> AppProfile:
        return self.app.profile

    @property
    def label(self) -> str:
        return f"{self.app.code}@{self.data_bytes // GB}GB"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AppInstance {self.label}>"
