"""Unit guarantees of the incremental-update primitives.

The contract the online layer leans on:

* :class:`OnlineRidge` after any ``partial_fit`` sequence equals a
  batch refit on the union of all rows (Sherman–Morrison is exact);
* :class:`SlidingWindow` keeps exactly the newest ``capacity`` rows;
* :class:`PageHinkley` stays quiet on a stationary residual stream,
  alarms promptly after a level shift, and honours ``burn_in``;
* :mod:`repro.faults.drift` arrival streams are seeded, monotone, and
  draw from the segment in force at each arrival.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.drift import DriftSchedule, MixSegment, drifted_arrivals
from repro.online import OnlineRidge, PageHinkley, SlidingWindow
from repro.utils.rng import rng_from
from repro.utils.units import GB

pytestmark = pytest.mark.online


# ------------------------------------------------------- OnlineRidge
class TestOnlineRidge:
    def test_partial_fit_matches_batch_refit(self):
        rng = rng_from(3)
        X0 = rng.normal(size=(40, 6))
        y0 = rng.normal(size=40)
        X1 = rng.normal(size=(25, 6))
        y1 = rng.normal(size=25)

        online = OnlineRidge(lam=1e-6).fit(X0, y0)
        for x, y in zip(X1, y1):
            online.partial_fit(x, y)
        batch = OnlineRidge(lam=1e-6).fit(
            np.vstack([X0, X1]), np.concatenate([y0, y1])
        )

        np.testing.assert_allclose(online.coef_, batch.coef_, atol=1e-8)
        assert online.intercept_ == pytest.approx(batch.intercept_, abs=1e-8)
        Xq = rng.normal(size=(10, 6))
        np.testing.assert_allclose(
            online.predict(Xq), batch.predict(Xq), atol=1e-8
        )
        assert online.n_rows_ == 65

    def test_partial_fit_requires_initial_fit(self):
        with pytest.raises(RuntimeError, match="initial fit"):
            OnlineRidge().partial_fit(np.zeros(3), 1.0)

    def test_partial_fit_rejects_bad_rows(self):
        model = OnlineRidge().fit(np.eye(3), np.arange(3.0))
        with pytest.raises(ValueError, match="expected 3 features"):
            model.partial_fit(np.zeros(5), 0.0)
        with pytest.raises(ValueError, match="finite"):
            model.partial_fit(np.array([1.0, np.nan, 0.0]), 0.0)

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError, match="lam"):
            OnlineRidge(lam=0.0)


# ------------------------------------------------------ SlidingWindow
class TestSlidingWindow:
    def test_newest_rows_displace_oldest(self):
        window = SlidingWindow(capacity=4)
        window.extend(np.arange(12).reshape(6, 2), np.arange(6.0))
        assert len(window) == 4
        X, y = window.arrays()
        np.testing.assert_array_equal(y, [2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(X[0], [4.0, 5.0])

    def test_empty_window_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            SlidingWindow(capacity=2).arrays()

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError, match="row counts"):
            SlidingWindow(capacity=2).extend(np.zeros((2, 3)), np.zeros(3))

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SlidingWindow(capacity=0)

    def test_matches_list_reference(self):
        """Seeded extend sequences against a list that keeps the newest
        ``capacity`` rows: batches larger than the capacity, empty
        batches and every wrap position of the ring."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            capacity = int(rng.integers(1, 10))
            d = int(rng.integers(1, 4))
            window = SlidingWindow(capacity)
            rows: list[np.ndarray] = []
            targets: list[float] = []
            for _ in range(int(rng.integers(1, 16))):
                n = int(rng.integers(0, 2 * capacity + 3))
                X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
                window.extend(X, y)
                rows = (rows + list(X))[-capacity:]
                targets = (targets + list(y))[-capacity:]
                assert len(window) == len(targets)
                if targets:
                    got_X, got_y = window.arrays()
                    np.testing.assert_array_equal(got_X, np.array(rows))
                    np.testing.assert_array_equal(got_y, np.array(targets))

    def test_arrays_are_copies(self):
        window = SlidingWindow(capacity=3)
        window.extend(np.ones((2, 2)), np.ones(2))
        X, y = window.arrays()
        X[:] = 0.0
        y[:] = 0.0
        np.testing.assert_array_equal(window.arrays()[0], np.ones((2, 2)))

    def test_row_width_fixed_by_first_rows(self):
        window = SlidingWindow(capacity=3)
        window.extend(np.zeros((0, 5)), np.zeros(0))  # empty: fixes nothing
        window.extend(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="columns"):
            window.extend(np.zeros((1, 3)), np.zeros(1))


# -------------------------------------------------------- PageHinkley
class TestPageHinkley:
    def test_quiet_on_stationary_stream(self):
        detector = PageHinkley(delta=0.1, threshold=1.0, burn_in=4)
        rng = rng_from(0)
        assert not any(
            detector.update(0.2 + 0.01 * float(rng.standard_normal()))
            for _ in range(200)
        )
        assert detector.alarms == 0
        assert detector.samples == 200

    def test_alarms_after_level_shift(self):
        detector = PageHinkley(delta=0.1, threshold=1.0, burn_in=4)
        for _ in range(20):
            assert not detector.update(0.1)
        fired_at = None
        for i in range(10):
            if detector.update(1.5):
                fired_at = i
                break
        assert fired_at is not None and fired_at <= 3
        assert detector.alarms == 1

    def test_burn_in_suppresses_early_alarms(self):
        detector = PageHinkley(delta=0.0, threshold=0.01, burn_in=6)
        # Wild values inside the burn-in must not alarm.
        for _ in range(6):
            assert not detector.update(10.0)

    def test_reset_restarts_the_test(self):
        detector = PageHinkley(delta=0.1, threshold=1.0, burn_in=4)
        for _ in range(20):
            detector.update(0.1)
        detector.reset()
        # Post-reset the accumulator and burn-in start over.
        for _ in range(4):
            assert not detector.update(5.0)

    @pytest.mark.parametrize(
        "kwargs", [{"threshold": 0.0}, {"delta": -1.0}, {"burn_in": -1}]
    )
    def test_parameters_validated(self, kwargs):
        with pytest.raises(ValueError):
            PageHinkley(**kwargs)


# ------------------------------------------------------ drift streams
class TestDriftSchedule:
    def test_workload_shift_segments(self):
        schedule = DriftSchedule.workload_shift(
            100.0,
            before_codes=("wc",),
            before_sizes=(1 * GB,),
            after_codes=("km",),
            after_sizes=(10 * GB,),
        )
        assert schedule.segment_at(0.0).codes == ("wc",)
        assert schedule.segment_at(99.9).codes == ("wc",)
        assert schedule.segment_at(100.0).codes == ("km",)
        assert schedule.segment_at(1e9).codes == ("km",)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one segment"):
            DriftSchedule(segments=())
        with pytest.raises(ValueError, match="start at t=0"):
            DriftSchedule(segments=(MixSegment(5.0, ("wc",), (GB,)),))
        with pytest.raises(ValueError, match="strictly increase"):
            DriftSchedule(
                segments=(
                    MixSegment(0.0, ("wc",), (GB,)),
                    MixSegment(0.0, ("km",), (GB,)),
                )
            )
        with pytest.raises(KeyError):
            MixSegment(0.0, ("not-an-app",), (GB,))

    def test_arrivals_deterministic_and_segment_respecting(self):
        schedule = DriftSchedule.workload_shift(
            60.0,
            before_codes=("wc", "st"),
            before_sizes=(1 * GB,),
            after_codes=("km",),
            after_sizes=(10 * GB,),
        )
        a1 = drifted_arrivals(40, schedule, seed=7, mean_interarrival_s=5.0)
        a2 = drifted_arrivals(40, schedule, seed=7, mean_interarrival_s=5.0)
        assert [(t, i.label) for t, i in a1] == [(t, i.label) for t, i in a2]
        times = [t for t, _ in a1]
        assert times == sorted(times)
        for t, inst in a1:
            expected = schedule.segment_at(t)
            assert inst.app.code in expected.codes
            assert inst.data_bytes in expected.sizes
        # A different seed reshuffles the stream.
        a3 = drifted_arrivals(40, schedule, seed=8, mean_interarrival_s=5.0)
        assert [(t, i.label) for t, i in a1] != [(t, i.label) for t, i in a3]

    def test_arrival_validation(self):
        schedule = DriftSchedule.workload_shift(
            10.0,
            before_codes=("wc",),
            before_sizes=(GB,),
            after_codes=("km",),
            after_sizes=(GB,),
        )
        with pytest.raises(ValueError, match="n_jobs"):
            drifted_arrivals(0, schedule)
        with pytest.raises(ValueError, match="mean_interarrival_s"):
            drifted_arrivals(4, schedule, mean_interarrival_s=0.0)
