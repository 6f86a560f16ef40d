"""LookupTable, preprocessing and metrics tests."""

import numpy as np
import pytest

from repro.ml.lookup import LookupTable
from repro.ml.metrics import mae, mean_ape, mse, r2_score
from repro.ml.preprocessing import StandardScaler, train_val_split


class TestLookupTable:
    def test_nearest_lookup(self):
        keys = np.array([[0.0, 0.0], [10.0, 10.0]])
        table = LookupTable().fit(keys, ["low", "high"])
        assert table.lookup(np.array([1.0, 1.0])) == "low"
        assert table.lookup(np.array([9.0, 9.0])) == "high"
        assert len(table) == 2

    def test_normalization_balances_dimensions(self):
        # Dimension 0 spans 1000x dimension 1; normalised distance
        # must not be dominated by dimension 0.
        keys = np.array([[0.0, 0.0], [1000.0, 1.0]])
        table = LookupTable(normalize=True).fit(keys, ["a", "b"])
        assert table.lookup(np.array([400.0, 0.9])) == "b"

    def test_lookup_many_and_predict(self):
        keys = np.array([[0.0], [1.0], [2.0]])
        table = LookupTable().fit(keys, [10.0, 20.0, 30.0])
        assert table.lookup_many(np.array([[0.1], [1.9]])) == [10.0, 30.0]
        assert table.predict(np.array([[0.9]])).tolist() == [20.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            LookupTable().fit(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            LookupTable().fit(np.zeros((2, 2)), ["only-one"])
        table = LookupTable().fit(np.zeros((1, 2)), ["x"])
        with pytest.raises(ValueError):
            table.lookup(np.zeros(3))
        with pytest.raises(RuntimeError):
            LookupTable().lookup(np.zeros(2))


class TestPreprocessing:
    def test_standard_scaler_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=3, scale=7, size=(50, 3))
        sc = StandardScaler()
        Z = sc.fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(sc.inverse_transform(Z), X)

    def test_scaler_unfitted(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 2)))

    def test_split_sizes_and_disjoint(self):
        X = np.arange(40.0)[:, None]
        y = np.arange(40.0)
        Xt, yt, Xv, yv = train_val_split(X, y, val_fraction=0.25, seed=0)
        assert len(yt) == 30 and len(yv) == 10
        assert not set(yt.tolist()) & set(yv.tolist())
        assert set(yt.tolist()) | set(yv.tolist()) == set(range(40))

    def test_split_always_nonempty(self):
        X = np.arange(3.0)[:, None]
        Xt, yt, Xv, yv = train_val_split(X, np.arange(3.0), val_fraction=0.01)
        assert len(yv) >= 1 and len(yt) >= 1

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_val_split(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            train_val_split(np.zeros((5, 1)), np.zeros(5), val_fraction=1.5)


class TestMetrics:
    def test_values(self):
        t = np.array([1.0, 2.0, 4.0])
        p = np.array([1.0, 3.0, 2.0])
        assert mse(t, p) == pytest.approx(5 / 3)
        assert mae(t, p) == pytest.approx(1.0)
        assert mean_ape(t, p) == pytest.approx((0 + 50 + 50) / 3)

    def test_r2_perfect_and_mean(self):
        t = np.array([1.0, 2.0, 3.0])
        assert r2_score(t, t) == pytest.approx(1.0)
        assert r2_score(t, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            mse(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            mean_ape(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            r2_score(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            mse(np.array([]), np.array([]))

