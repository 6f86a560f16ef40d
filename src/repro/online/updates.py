"""Incremental model-update primitives for the online STP.

Two update rules, matched to the two model families the STP uses:

* :class:`OnlineRidge` — recursive least squares for the linear
  model.  Maintains the inverse Gram matrix of the augmented design
  and folds each new row in with a rank-1 Sherman–Morrison update, so
  after any sequence of ``partial_fit`` calls the coefficients equal
  a batch :class:`~repro.ml.linreg.LinearRegression` refit on the
  union of all rows (to numerical precision — pinned by tests).
* :class:`SlidingWindow` — a bounded row buffer for the models that
  have no exact incremental form (REPTree, MLP): new rows displace
  the oldest ones and the model is refit on the window.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_Xy


class OnlineRidge:
    """Ridge regression with exact rank-1 (RLS) updates.

    The intercept rides as an un-penalised augmented column, exactly
    as :class:`~repro.ml.linreg.LinearRegression` solves it, so a
    batch fit and an incremental fit agree row for row.
    """

    def __init__(self, lam: float = 1e-6) -> None:
        if lam <= 0:
            raise ValueError("lam must be > 0 (the Gram inverse must exist)")
        self.lam = lam
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None
        self._gram_inv: np.ndarray | None = None  # (d+1, d+1)
        self._xty: np.ndarray | None = None  # (d+1,)
        self.n_rows_ = 0

    # ------------------------------------------------------------ batch
    def fit(self, X: np.ndarray, y: np.ndarray) -> "OnlineRidge":
        X, y = check_Xy(X, y)
        n, d = X.shape
        A = np.hstack([X, np.ones((n, 1))])
        reg = self.lam * np.eye(d + 1)
        reg[-1, -1] = 0.0  # the intercept is not penalised
        self._gram_inv = np.linalg.inv(A.T @ A + reg)
        self._xty = A.T @ y
        self.n_rows_ = n
        self._refresh_weights()
        return self

    # ------------------------------------------------------ incremental
    def partial_fit(self, x: np.ndarray, y: float) -> "OnlineRidge":
        """Fold one row in via the Sherman–Morrison identity."""
        if self._gram_inv is None or self._xty is None:
            raise RuntimeError("OnlineRidge.partial_fit requires an initial fit")
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self._xty.shape[0] - 1:
            raise ValueError(
                f"expected {self._xty.shape[0] - 1} features, got {x.shape[0]}"
            )
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise ValueError("partial_fit row must be finite")
        a = np.append(x, 1.0)
        ginv_a = self._gram_inv @ a
        denom = 1.0 + float(a @ ginv_a)
        self._gram_inv -= np.outer(ginv_a, ginv_a) / denom
        self._xty += a * float(y)
        self.n_rows_ += 1
        self._refresh_weights()
        return self

    def _refresh_weights(self) -> None:
        w = self._gram_inv @ self._xty
        self.coef_ = w[:-1]
        self.intercept_ = float(w[-1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise RuntimeError("model is not fitted")
        X = check_X(X, self.coef_.shape[0])
        return X @ self.coef_ + self.intercept_


class SlidingWindow:
    """A bounded (X, y) row buffer: newest rows displace the oldest.

    The rows live in a ring buffer of ``capacity`` rows, allocated at
    the first non-empty :meth:`extend` (which fixes the row width): an
    extend copies the new rows over the oldest and nothing shifts.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._X: np.ndarray | None = None
        self._y = np.empty(capacity)
        self._next = 0  # the slot the next row is written to
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def extend(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if len(X) != len(y):
            raise ValueError("X and y row counts differ")
        if not len(y):
            return
        if self._X is None:
            self._X = np.empty((self.capacity, X.shape[1]))
        elif X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"rows have {X.shape[1]} columns, the window holds {self._X.shape[1]}"
            )
        # Only the newest ``capacity`` rows can stay.
        X, y = X[-self.capacity :], y[-self.capacity :]
        n = len(y)
        head = min(n, self.capacity - self._next)
        self._X[self._next : self._next + head] = X[:head]
        self._y[self._next : self._next + head] = y[:head]
        self._X[: n - head] = X[head:]
        self._y[: n - head] = y[head:]
        self._next = (self._next + n) % self.capacity
        self._len = min(self.capacity, self._len + n)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the held rows and targets, oldest first."""
        if not self._len:
            raise RuntimeError("sliding window is empty")
        rows = (self._next - self._len + np.arange(self._len)) % self.capacity
        return self._X[rows], self._y[rows]
