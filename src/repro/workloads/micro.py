"""The four Hadoop micro-benchmarks: WordCount, Sort, Grep, TeraSort.

These are the kernels the paper calls out as building blocks of larger
big-data applications (§2.2).  Each implements real map/reduce logic
runnable on :mod:`repro.mapreduce.functional`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.workloads import datagen
from repro.workloads.base import Application, KeyValue
from repro.workloads.profiles import class_for, profile_for


class WordCount(Application):
    """Count occurrences of each word in Zipf-distributed text."""

    code = "wc"
    name = "WordCount"

    def __init__(self) -> None:
        self.app_class = class_for(self.code)
        self.profile = profile_for(self.code)

    def mapper(self, key: object, value: object) -> Iterable[KeyValue]:
        for word in str(value).split():
            yield word, 1

    def reducer(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        yield key, sum(int(v) for v in values)

    def generate_records(self, n_records: int, seed: int = 0) -> Iterator[KeyValue]:
        for i, line in enumerate(datagen.zipf_text_lines(n_records, seed=seed)):
            yield i, line


class Sort(Application):
    """Identity map/reduce; the framework's shuffle performs the sort.

    This is Hadoop's classic ``Sort`` example: all the work is data
    movement, which is why it is the paper's representative I/O-bound
    application.
    """

    code = "st"
    name = "Sort"

    def __init__(self) -> None:
        self.app_class = class_for(self.code)
        self.profile = profile_for(self.code)

    def mapper(self, key: object, value: object) -> Iterable[KeyValue]:
        yield key, value

    def reducer(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        for v in values:
            yield key, v

    @property
    def has_combiner(self) -> bool:
        # Combining identity pairs would drop duplicates' multiplicity
        # ordering guarantees; Hadoop's Sort runs without a combiner.
        return False

    def generate_records(self, n_records: int, seed: int = 0) -> Iterator[KeyValue]:
        yield from datagen.kv_records(n_records, seed=seed)


class Grep(Application):
    """Count lines matching a pattern (Hadoop's distributed grep)."""

    code = "gp"
    name = "Grep"

    def __init__(self, pattern: str = "a") -> None:
        self.app_class = class_for(self.code)
        self.profile = profile_for(self.code)
        if not pattern:
            raise ValueError("grep pattern must be non-empty")
        self.pattern = pattern

    def mapper(self, key: object, value: object) -> Iterable[KeyValue]:
        line = str(value)
        count = line.count(self.pattern)
        if count:
            yield self.pattern, count

    def reducer(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        yield key, sum(int(v) for v in values)

    def generate_records(self, n_records: int, seed: int = 0) -> Iterator[KeyValue]:
        for i, line in enumerate(datagen.zipf_text_lines(n_records, seed=seed)):
            yield i, line


class TeraSort(Application):
    """Sort fixed-size records by 10-byte key (the TeraSort benchmark).

    Map emits (key, payload); the shuffle's total order partitioner
    plus per-reducer sort produce globally sorted output.  The entire
    input flows through spill, shuffle and output, which is why the
    profile's I/O factors are all 1.0.
    """

    code = "ts"
    name = "TeraSort"

    def __init__(self) -> None:
        self.app_class = class_for(self.code)
        self.profile = profile_for(self.code)

    def mapper(self, key: object, value: object) -> Iterable[KeyValue]:
        yield key, value

    def reducer(self, key: object, values: Sequence[object]) -> Iterable[KeyValue]:
        for v in values:
            yield key, v

    @property
    def has_combiner(self) -> bool:
        return False

    def generate_records(self, n_records: int, seed: int = 0) -> Iterator[KeyValue]:
        yield from datagen.terasort_records(n_records, seed=seed)
