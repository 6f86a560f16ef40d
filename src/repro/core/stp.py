"""Self-tuning prediction techniques (§6.4): LkT-STP and MLM-STP.

Both techniques answer the same online question: *given two classified
applications about to be co-located, which six knob settings
(frequency, HDFS block size, mapper count — per application) minimise
EDP?*

* **LkT-STP** (Fig. 6): scan the offline configuration database for
  the training pair that best resembles the incoming pair (by class
  and input size) and reuse its stored optimum.
* **MLM-STP** (Fig. 7): evaluate the learned EDP model over *all*
  permutations of the tuning parameters (Step 4) and take the arg-min
  configuration.

The learned models (LR / REPTree / MLP) are trained on rows from the
training-pair sweeps: features of both applications, their input
sizes, the six knobs → EDP.  Fig. 7's step 3 selects a model per class
pair; MLM-STP fits one global model on every class pair's rows
instead, so the model can interpolate across class boundaries (a
documented deviation, DESIGN.md).  Table 1 still fits per class pair,
through :meth:`TrainingDataset.subset`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Mapping, Protocol, Sequence

import numpy as np

from repro.core.database import ConfigDatabase, database_from_optima, training_pairs
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.ml.base import Regressor
from repro.ml.linreg import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.reptree import REPTree
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig, pair_config_grid
from repro.telemetry.profiling import REDUCED_FEATURE_NAMES, profile_features, reduced_vector
from repro.analysis.features import PROFILING_CONFIG
from repro.utils.rng import SeedLike, rng_from
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppClass, AppInstance

_CLASS_CODE = {AppClass.COMPUTE: 0, AppClass.HYBRID: 1, AppClass.IO: 2, AppClass.MEMORY: 3}


@dataclass(frozen=True)
class AppDescriptor:
    """What STP knows about one application at scheduling time.

    A snapshot: the reduced vector and its finiteness are computed on
    first use and kept, so ``features`` must not change afterwards.
    """

    features: Mapping[str, float]  # 14-feature profiling dict
    app_class: AppClass
    data_bytes: int

    @cached_property
    def _reduced(self) -> np.ndarray:
        vec = reduced_vector(self.features)
        vec.flags.writeable = False
        return vec

    @cached_property
    def _first_non_finite(self) -> int | None:
        bad = np.flatnonzero(~np.isfinite(self._reduced))
        return int(bad[0]) if bad.size else None

    def reduced(self) -> np.ndarray:
        """The :data:`REDUCED_FEATURE_NAMES` vector (read-only)."""
        return self._reduced


class SelfTuningPredictor(Protocol):
    """Interface shared by LkT-STP and MLM-STP."""

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]: ...


def describe_instance(
    instance: AppInstance,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: SeedLike = 0,
) -> AppDescriptor:
    """Profile an instance (learning period) into an STP descriptor of
    its true class."""
    feats = profile_features(
        instance, PROFILING_CONFIG, node=node, constants=constants, seed=seed
    )
    return AppDescriptor(
        features=feats, app_class=instance.app_class, data_bytes=instance.data_bytes
    )


# --------------------------------------------------------------- LkT-STP
class LkTSTP:
    """Lookup-table self-tuning prediction (Fig. 6).

    Implements the paper's literal procedure: classify the incoming
    pair, then "scan the database to extract the tuning parameters
    that provide the minimum EDP for the co-located applications" —
    i.e. among the stored entries matching the class pair, reuse the
    configuration of the entry with the smallest recorded EDP.  This
    is exactly the inflexibility §7.2 criticises: the minimum-EDP
    entry is typically a small-input pair, and its block/mapper
    settings transfer imperfectly to other input sizes.

    ``size_aware=True`` switches to nearest-(class, size) lookup — a
    strictly better variant exercised by the ablation benchmarks.
    """

    def __init__(self, database: ConfigDatabase, *, size_aware: bool = False) -> None:
        self.database = database
        self.size_aware = size_aware

    @staticmethod
    def _oriented_distance(entry, a: AppDescriptor, b: AppDescriptor) -> tuple[float, bool]:
        """(log-space size distance, swapped) of an entry vs. a query.

        When the entry's two classes differ, the orientation is fixed
        by matching classes; when they are equal, both orientations
        are considered and the closer one wins.
        """
        import math

        la, lb = math.log(a.data_bytes), math.log(b.data_bytes)
        ea, eb = math.log(entry.size_a), math.log(entry.size_b)
        fwd = abs(ea - la) + abs(eb - lb)
        rev = abs(ea - lb) + abs(eb - la)
        if entry.class_a != entry.class_b:
            if (entry.class_a, entry.class_b) == (a.app_class, b.app_class):
                return fwd, False
            return rev, True
        return (fwd, False) if fwd <= rev else (rev, True)

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]:
        if self.size_aware:
            cfg_a, cfg_b, _entry = self.database.lookup(
                a.app_class, b.app_class, a.data_bytes, b.data_bytes
            )
            return cfg_a, cfg_b
        entries = self.database.entries_for_classes(a.app_class, b.app_class)
        if not entries:
            # Unseen class combination: fall back to the nearest key.
            cfg_a, cfg_b, _entry = self.database.lookup(
                a.app_class, b.app_class, a.data_bytes, b.data_bytes
            )
            return cfg_a, cfg_b
        scored = [(self._oriented_distance(e, a, b), e) for e in entries]
        dmin = min(d for (d, _sw), _e in scored)
        nearest = [((d, sw), e) for (d, sw), e in scored if d <= dmin + 1e-9]
        (_d, swapped), best = min(nearest, key=lambda it: it[1].best_edp)
        if swapped:
            return best.config_b, best.config_a
        return best.config_a, best.config_b


# --------------------------------------------------------------- MLM-STP
def _canonical_order(a: AppDescriptor, b: AppDescriptor) -> bool:
    ka = (_CLASS_CODE[a.app_class], a.data_bytes)
    kb = (_CLASS_CODE[b.app_class], b.data_bytes)
    return ka <= kb


def _knob_columns(f1, b1, m1, f2, b2, m2) -> np.ndarray:
    """The six knobs of each configuration as model-input columns.

    Knobs are expressed in human scale (GHz, log2 MB, mappers) so the
    learned models see comparable magnitudes; :func:`basin_select`
    measures distances in the same columns.
    """
    f1, b1, m1, f2, b2, m2 = (np.asarray(a, dtype=float) for a in (f1, b1, m1, f2, b2, m2))
    return np.column_stack(
        [f1 / GHZ, np.log2(b1 / MB), m1, f2 / GHZ, np.log2(b2 / MB), m2]
    )


def _rows_for_knobs(
    feat_a: np.ndarray,
    size_a: int,
    feat_b: np.ndarray,
    size_b: int,
    knobs: np.ndarray,
) -> np.ndarray:
    """Model-input rows: both applications' features and log sizes,
    then one row of :func:`_knob_columns` each."""
    na, nb = len(feat_a), len(feat_b)
    X = np.empty((len(knobs), na + nb + 2 + knobs.shape[1]))
    X[:, :na] = feat_a
    X[:, na] = np.log2(size_a / GB + 1.0)
    X[:, na + 1 : na + 1 + nb] = feat_b
    X[:, na + 1 + nb] = np.log2(size_b / GB + 1.0)
    X[:, na + nb + 2 :] = knobs
    return X


def _row_block(
    feat_a: np.ndarray,
    size_a: int,
    feat_b: np.ndarray,
    size_b: int,
    f1, b1, m1, f2, b2, m2,
) -> np.ndarray:
    """Assemble model-input rows for arrays of configurations."""
    return _rows_for_knobs(
        feat_a, size_a, feat_b, size_b, _knob_columns(f1, b1, m1, f2, b2, m2)
    )


@dataclass(frozen=True, eq=False)
class _PairGrid:
    """A node's pair grid and what every decision over it reuses."""

    node: NodeSpec
    #: ``pair_config_grid``'s six arrays (f1, b1, m1, f2, b2, m2).
    configs: tuple[np.ndarray, ...]
    #: Their :func:`_knob_columns`, also :func:`basin_select`'s matrix.
    knobs: np.ndarray
    #: ``_column_span(knobs)``.
    span: np.ndarray

    @classmethod
    def build(cls, node: NodeSpec) -> "_PairGrid":
        configs = pair_config_grid(node)
        knobs = _knob_columns(*configs)
        return cls(node=node, configs=configs, knobs=knobs, span=_column_span(knobs))

    def job_configs(self, i: int) -> tuple[JobConfig, JobConfig]:
        f1, b1, m1, f2, b2, m2 = self.configs
        return (
            JobConfig(frequency=float(f1[i]), block_size=int(b1[i]), n_mappers=int(m1[i])),
            JobConfig(frequency=float(f2[i]), block_size=int(b2[i]), n_mappers=int(m2[i])),
        )


#: Number of model-input columns (2×7 features + 2 sizes + 6 knobs).
N_MODEL_FEATURES = 2 * len(REDUCED_FEATURE_NAMES) + 2 + 6


def _validate_edp_targets(y: np.ndarray, context: str) -> None:
    """EDP targets must survive the log transform.

    A non-positive or non-finite EDP row would silently become
    ``-inf``/``nan`` under ``np.log`` and poison the fitted model far
    from the bad row; fail fast and name the offender instead.
    """
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y) | (y <= 0.0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{context}: EDP targets must be finite and > 0 for log-space "
            f"training; row {i} has y={y[i]!r} "
            f"({bad.size} offending row(s) in total)"
        )


@dataclass
class TrainingDataset:
    """Training rows for the MLM models, tagged with their class pair."""

    X: np.ndarray
    y: np.ndarray
    pair_codes: np.ndarray  # (n,) canonical "C-H"-style strings
    #: Reduced feature vectors of the training applications — the
    #: manifold unknown-app features are projected onto at prediction.
    train_features: np.ndarray = None  # type: ignore[assignment]
    #: Data size (bytes) of each training-feature row; projection
    #: prefers same-size rows so (features, size) stays on-manifold.
    train_sizes: np.ndarray = None  # type: ignore[assignment]

    def subset(self, pair_code: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.pair_codes == pair_code
        return self.X[mask], self.y[mask]

    @property
    def class_pairs(self) -> list[str]:
        return sorted(set(self.pair_codes.tolist()))


def pair_code(class_a: AppClass, class_b: AppClass) -> str:
    """Canonical class-pair code, e.g. ``"C-M"``."""
    a, b = sorted((class_a.value, class_b.value))
    return f"{a}-{b}"


def build_offline(
    instances: Sequence[AppInstance],
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    rows_per_pair: int = 400,
    seed: SeedLike = 0,
    executor: "SweepExecutor | None" = None,
    descriptors: Sequence[AppDescriptor] | None = None,
) -> tuple[ConfigDatabase, TrainingDataset]:
    """The configuration database and the MLM-STP rows from one sweep
    of every training pair.

    Each pair contributes ``rows_per_pair`` grid points sampled without
    replacement — always including the optimum, so models can learn
    where the minimum lives.  The grid indices are drawn up front, one
    set per pair in :func:`training_pairs` order, from one generator
    seeded with ``seed``; the task that sweeps a pair (inline, or in a
    pool worker of ``executor``, by default a fresh ``SweepExecutor``
    honouring ``REPRO_WORKERS``) keeps only the optimum and the rows at
    those indices, so at most one full sweep is alive at a time per
    process and the result is the same serial or pooled.

    ``descriptors``, one per instance in order, are the instances'
    :func:`describe_instance` profiles under the same ``node``,
    ``constants`` and ``seed``, for a caller that already has them;
    by default each instance is profiled here.
    """
    from repro.parallel import SweepExecutor

    rng = rng_from(seed)
    if descriptors is None:
        descriptors = [
            describe_instance(inst, node=node, constants=constants, seed=seed)
            for inst in instances
        ]
    by_label = dict(zip([inst.label for inst in instances], descriptors))
    pairs = training_pairs(instances)
    n = len(pair_config_grid(node)[0])
    take = min(rows_per_pair, n)
    indices = [rng.choice(n, size=take, replace=False) for _ in pairs]
    exec_ = executor if executor is not None else SweepExecutor()
    swept = exec_.sweep_pairs_sampled(pairs, indices, node=node, constants=constants)
    X = np.empty((len(pairs) * take, N_MODEL_FEATURES))
    y = np.empty(len(pairs) * take)
    codes = []
    for k, ((a, b), (_best, rows)) in enumerate(zip(pairs, swept)):
        da, db = by_label[a.label], by_label[b.label]
        block = slice(k * take, (k + 1) * take)
        X[block] = _row_block(
            da.reduced(), a.data_bytes, db.reduced(), b.data_bytes,
            rows.freq_a, rows.block_a, rows.mappers_a,
            rows.freq_b, rows.block_b, rows.mappers_b,
        )
        y[block] = rows.edp
        codes.extend([pair_code(a.app_class, b.app_class)] * take)
    dataset = TrainingDataset(
        X=X,
        y=y,
        pair_codes=np.array(codes),
        train_features=np.vstack([d.reduced() for d in by_label.values()]),
        train_sizes=np.array([d.data_bytes for d in by_label.values()], dtype=float),
    )
    return database_from_optima([best for best, _rows in swept]), dataset


ModelFactory = Callable[[], Regressor]


def _make_lr() -> LinearRegression:
    return LinearRegression()


def _make_reptree() -> REPTree:
    return REPTree(seed=0)


def _make_mlp() -> MLPRegressor:
    # Targets are log-transformed by the STP pipeline itself.
    return MLPRegressor(epochs=250, batch_size=256, log_target=False, seed=0)


#: The paper's three MLM model families (§6.3).  Entries are named
#: module-level functions (not lambdas) so fitted STP objects pickle.
MODEL_FACTORIES: dict[str, ModelFactory] = {
    "lr": _make_lr,
    "reptree": _make_reptree,
    "mlp": _make_mlp,
}


def model_factory(kind: str) -> ModelFactory:
    """The :data:`MODEL_FACTORIES` entry of ``kind``, or a ValueError
    naming the valid kinds."""
    try:
        return MODEL_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown model kind {kind!r}; valid: {sorted(MODEL_FACTORIES)}"
        ) from None


def _column_span(matrix: np.ndarray) -> np.ndarray:
    """Per-column range of a matrix; a constant column counts as 1."""
    span = matrix.max(axis=0) - matrix.min(axis=0)
    return np.where(span < 1e-12, 1.0, span)


def _nearest_row(
    train: np.ndarray,
    sizes: np.ndarray | None,
    span: np.ndarray,
    feat: np.ndarray,
    size: float | None,
) -> np.ndarray:
    """The row of ``train`` nearest ``feat`` in ``span``-scaled distance.

    When ``size`` is given, candidates are restricted to rows of the
    same input size (if any exist) so the projected (features, size)
    point lies exactly on the training manifold.
    """
    cand = train
    if size is not None and sizes is not None:
        # np.isclose(sizes, size, rtol=1e-6) on finite sizes, without
        # its call overhead (about 25 µs, over half a projection).
        same = np.flatnonzero(np.abs(sizes - size) <= 1e-8 + 1e-6 * abs(size))
        if same.size:
            cand = train[same]
    d = np.linalg.norm((cand - feat) / span, axis=1)
    return cand[int(np.argmin(d))]


def _finite_features(desc: AppDescriptor) -> np.ndarray:
    """``desc.reduced()``, refusing a non-finite feature by name.

    A NaN distance makes the manifold projection's ``argmin`` return
    training row 0, so such a descriptor would silently get row 0's
    configuration.
    """
    feat = desc.reduced()
    i = desc._first_non_finite
    if i is not None:
        raise ValueError(
            f"MLMSTP.predict_configs: descriptor feature "
            f"{REDUCED_FEATURE_NAMES[i]!r} is {float(feat[i])!r}; "
            f"features must be finite"
        )
    return feat


def _column_median(points: np.ndarray) -> np.ndarray:
    """``np.median(points, axis=0)`` of finite points, bit for bit, by
    sorting: the middle row, or the mean of the two middle ones.

    ``np.median`` imports ``numpy.ma`` on first use (14-19 ms and 2 MiB
    of RSS on a 2-core host), which the first ECoST decision of a
    process would pay.
    """
    ranked = np.sort(points, axis=0)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return np.mean(ranked[mid - 1 : mid + 1], axis=0)


def basin_select(
    pred_log: np.ndarray,
    knob_matrix: np.ndarray,
    *,
    eps: float = 0.05,
    span: np.ndarray | None = None,
) -> int:
    """Robust arg-min over a predicted (log-)EDP surface.

    Rather than taking the raw arg-min — which rewards the model\'s most
    optimistic single point (the optimiser\'s curse) — select the most
    *central* configuration of the low-EDP basin: all grid points whose
    prediction lies within ``eps`` (log space ≈ relative) of the
    minimum, reduced to the one nearest the basin\'s knob-median.  On
    piecewise-constant predictors (trees) this avoids arbitrary
    tie-breaking inside wide leaves.  Distances are scaled by
    ``span``, ``_column_span(knob_matrix)`` unless the caller has it.
    """
    pred_log = np.asarray(pred_log, dtype=float)
    basin = np.flatnonzero(pred_log <= pred_log.min() + eps)
    points = knob_matrix[basin]
    med = _column_median(points)
    if span is None:
        span = _column_span(knob_matrix)
    d = np.linalg.norm((points - med) / span, axis=1)
    return int(basin[np.argmin(d)])


#: Most entries any one per-decision memo keeps: MLM-STP's decisions
#: and projections, the controller's per-application memos and the
#: shadow scorer's prices.  A workload's decisions project onto a few
#: dozen distinct model inputs (32 on a 288-job stream of eleven
#: applications at two sizes); a full decision memo holds about 0.4 MB.
DECISION_MEMO_CAP = 1024


class LRUMemo:
    """A memo of at most :data:`DECISION_MEMO_CAP` entries that drops
    the least recently used one first.  The cap is read on each store,
    so patching the module constant caps every memo."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()

    def get(self, key: Hashable):
        """The value stored under ``key`` (now the most recently used),
        or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Store a non-None ``value``, dropping the least recently used
        entry past the cap."""
        self._entries[key] = value
        if len(self._entries) > DECISION_MEMO_CAP:
            self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class MLMSTP:
    """Machine-learning-model self-tuning prediction (Fig. 7).

    Three reproduction-specific robustness measures (each documented in
    DESIGN.md):

    * all models are trained on **log EDP** (EDP spans orders of
      magnitude; the selection arg-min is invariant to the monotone
      transform);
    * unknown applications\' features are **projected onto the training
      manifold** — replaced by the most-resembling training
      application\'s features — which is the paper\'s own §6.4 step
      ("the classifier chooses the application in the database that
      best resembles the testing applications");
    * the final configuration comes from :func:`basin_select`, not a
      raw arg-min.

    One global model serves every class pair (the paper selects one
    per class pair; see the module docstring).

    Projection maps every descriptor onto one of a few training rows,
    so decisions repeat.  :meth:`predict_configs` memoises the chosen
    grid index per model input, and :meth:`_project` the projected row
    per (reduced features, size) on the current manifold (both LRU,
    :data:`DECISION_MEMO_CAP` entries); :meth:`fit`, a node change,
    :meth:`revise` and :meth:`clear_memo` drop both memos.
    """

    def __init__(
        self, model_kind: str = "reptree", *, node: NodeSpec = ATOM_C2758
    ) -> None:
        self._factory = model_factory(model_kind)
        self.model_kind = model_kind
        self.node = node
        self.global_model_: Regressor | None = None
        self.train_features_: np.ndarray | None = None
        self.train_sizes_: np.ndarray | None = None
        self._grid: _PairGrid | None = None
        #: ``(train_features_, train_sizes_, _column_span(train_features_))``
        #: of the manifold ``_proj_memo`` holds rows of, so the span is
        #: computed once per manifold.
        self._manifold: tuple[np.ndarray, np.ndarray | None, np.ndarray] | None = None
        #: (model, canonical projected rows and sizes) -> chosen grid
        #: index.
        self._memo = LRUMemo()
        #: (reduced feature bytes, size) -> projected training row.
        self._proj_memo = LRUMemo()

    def fit(self, dataset: TrainingDataset) -> "MLMSTP":
        """Train the global model on log-EDP."""
        _validate_edp_targets(dataset.y, "MLMSTP.fit")
        self.global_model_ = self._factory().fit(dataset.X, np.log(dataset.y))
        self.train_features_ = dataset.train_features
        self.train_sizes_ = dataset.train_sizes
        self.clear_memo()
        return self

    def revise(
        self,
        *,
        model: Regressor | None = None,
        train_features: np.ndarray | None = None,
        train_sizes: np.ndarray | None = None,
    ) -> None:
        """Change a fitted STP's global model or projection manifold.

        Each argument given replaces ``global_model_``,
        ``train_features_`` or ``train_sizes_``, and the decision memo
        is dropped.  A model updated in place (recursive least squares)
        is passed again, so no decision of the old model survives.
        """
        if model is not None:
            self.global_model_ = model
        if train_features is not None:
            self.train_features_ = train_features
        if train_sizes is not None:
            self.train_sizes_ = train_sizes
        self.clear_memo()

    def clear_memo(self) -> None:
        """Forget every memoised pair decision and projection.

        The next decision on each pair projects both applications and
        evaluates the model over the whole grid again, which is what
        Fig. 8 times.
        """
        self._memo.clear()
        self._proj_memo.clear()

    def _pair_grid(self) -> _PairGrid:
        """The pair grid of ``self.node``, built on first use.

        A rebuild drops the decision memo: its grid indices name points
        of the old node's grid.
        """
        if self._grid is None or self._grid.node is not self.node:
            self._grid = _PairGrid.build(self.node)
            self.clear_memo()
        return self._grid

    def _project(self, feat: np.ndarray, size: float | None = None) -> np.ndarray:
        """Replace features by the nearest training application\'s.

        When ``size`` is given, candidates are restricted to training
        rows of the same input size (if any exist) so the projected
        (features, size) point lies exactly on the training manifold —
        trees route such points like the lookup table would.
        """
        train, sizes = self.train_features_, self.train_sizes_
        if train is None:
            return feat
        manifold = self._manifold
        if manifold is None or manifold[0] is not train or manifold[1] is not sizes:
            # A replaced manifold: the memoised rows are of the old one.
            self._proj_memo.clear()
            manifold = self._manifold = (train, sizes, _column_span(train))
        key = (feat.tobytes(), size)
        row = self._proj_memo.get(key)
        if row is None:
            row = _nearest_row(train, sizes, manifold[2], feat, size)
            row.flags.writeable = False
            self._proj_memo.put(key, row)
        return row

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]:
        """Step 4 of Fig. 7: arg-min of the model over the grid.

        The decision depends only on the model and on the canonical
        pair's projected features and sizes, so it is memoised on
        those: a repeat costs two projection-memo lookups and a
        decision-memo lookup.
        """
        if self.global_model_ is None:
            raise RuntimeError("MLM-STP is not fitted; call fit() first")
        swapped = not _canonical_order(a, b)
        ca, cb = (b, a) if swapped else (a, b)
        grid = self._pair_grid()
        feat_a = self._project(_finite_features(ca), ca.data_bytes)
        feat_b = self._project(_finite_features(cb), cb.data_bytes)
        model = self.global_model_
        key = (model, feat_a.tobytes(), ca.data_bytes, feat_b.tobytes(), cb.data_bytes)
        i = self._memo.get(key)
        if i is None:
            X = _rows_for_knobs(feat_a, ca.data_bytes, feat_b, cb.data_bytes, grid.knobs)
            pred = np.asarray(model.predict(X))
            i = basin_select(pred, grid.knobs, span=grid.span)
            self._memo.put(key, i)
        cfg_a, cfg_b = grid.job_configs(i)
        return (cfg_b, cfg_a) if swapped else (cfg_a, cfg_b)


class SoloSTP:
    """Self-tuning of *standalone* applications (PTM in §8).

    Same recipe as MLM-STP but trained on the 160-configuration solo
    sweeps of the training instances, so the predicted mapper count
    can use the full core range (a solo job may take all 8 cores).
    """

    def __init__(
        self,
        model_kind: str = "reptree",
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> None:
        self._factory = model_factory(model_kind)
        self.node = node
        self.constants = constants
        self.model_: Regressor | None = None

    @staticmethod
    def _rows(feat: np.ndarray, size: int, f, b, m) -> np.ndarray:
        n = len(np.atleast_1d(f))
        return np.hstack(
            [
                np.tile(feat, (n, 1)),
                np.full((n, 1), np.log2(size / GB + 1.0)),
                (np.asarray(f, dtype=float) / GHZ)[:, None],
                np.log2(np.asarray(b, dtype=float) / MB)[:, None],
                np.asarray(m, dtype=float)[:, None],
            ]
        )

    def fit(
        self,
        instances: Sequence[AppInstance],
        features: np.ndarray,
        *,
        executor: "SweepExecutor | None" = None,
    ) -> "SoloSTP":
        """Train on log-EDP of the full 160-point solo sweeps.

        ``features[i]`` is instance ``i``'s reduced feature vector, its
        descriptor's :meth:`~AppDescriptor.reduced` (the offline stage
        keeps them as :attr:`TrainingDataset.train_features`); they are
        also the projection manifold.  The per-instance sweeps fan out
        through ``executor`` (default: a fresh ``SweepExecutor``
        honouring ``REPRO_WORKERS``).
        """
        from repro.parallel import SweepExecutor

        exec_ = executor if executor is not None else SweepExecutor()
        solo_sweeps = exec_.sweep_solos(
            instances, node=self.node, constants=self.constants
        )
        feats = np.vstack(features)
        X = np.vstack(
            [
                self._rows(feat, inst.data_bytes, sweep.freq, sweep.block, sweep.mappers)
                for inst, feat, sweep in zip(instances, feats, solo_sweeps, strict=True)
            ]
        )
        y = np.concatenate([sweep.edp for sweep in solo_sweeps])
        _validate_edp_targets(y, "SoloSTP.fit")
        self.model_ = self._factory().fit(X, np.log(y))
        self._train_features = feats
        self._train_sizes = np.array([float(inst.data_bytes) for inst in instances])
        self._span = _column_span(feats)
        return self

    def _project(self, feat: np.ndarray, size: float) -> np.ndarray:
        """Same-size manifold projection, as in :class:`MLMSTP`."""
        return _nearest_row(
            self._train_features, self._train_sizes, self._span, feat, size
        )

    def predict_config(self, a: AppDescriptor) -> JobConfig:
        if self.model_ is None:
            raise RuntimeError("SoloSTP is not fitted; call fit() first")
        from repro.model.config import config_grid

        f, b, m = config_grid(self.node)
        X = self._rows(self._project(a.reduced(), a.data_bytes), a.data_bytes, f, b, m)
        pred = np.asarray(self.model_.predict(X))
        knobs = np.column_stack([f / GHZ, np.log2(b / MB), m])
        i = basin_select(pred, knobs)
        return JobConfig(frequency=float(f[i]), block_size=int(b[i]), n_mappers=int(m[i]))
