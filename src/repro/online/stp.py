"""OnlineSTP: a fitted MLM-STP that keeps learning from telemetry.

The wrapper owns a deep copy of a fitted
:class:`~repro.core.stp.MLMSTP` and keeps it current three ways:

* **partial_fit** — every completed pairing contributes one model row
  (both applications' reduced features + sizes + the six placed
  knobs → observed pair EDP).  The linear model absorbs the row with
  an exact Sherman–Morrison update (:class:`~repro.online.updates.
  OnlineRidge`); the tree/MLP models buffer it in a bounded
  :class:`~repro.online.updates.SlidingWindow` and refresh every
  ``refresh_every`` rows.
* **drift detection** — the |log-EDP residual| of each observation
  feeds a :class:`~repro.online.drift.PageHinkley` test; an alarm
  triggers :meth:`refit`.
* **refit** — re-enters the paper's learning period: the most recent
  distinct pairings are re-swept (bounded by ``relearn_pairs``, each
  contributing ``relearn_rows`` sampled grid rows including the
  optimum), their descriptors extend the projection manifold, and the
  model is refit on the window.  Budget the recent pairs leave
  unspent stays open for *first-sight* sweeps: a never-swept pairing
  encountered at decision time is swept on the spot
  (:meth:`OnlineSTP.observe_pair`), so applications that first appear
  after the alarm are learned without waiting for a second alarm.
  Each sweep also records the pair's tuned optimum as a fresh
  database entry in the paper's sense — ``predict_configs`` serves
  profiled pairings LkT-style from that memo and falls back to the
  model for everything else.  This is the routine
  ``ECoSTController.on_cluster_change`` now routes to — previously it
  only logged "re-entering learning period" while the model stayed
  stale.

Everything is seeded and free of wall-clock reads: two runs over the
same observation stream produce identical models.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.stp import AppDescriptor, MLMSTP, _canonical_order, _row_block
from repro.mapreduce.job import JobResult
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import sweep_pair
from repro.online.drift import PageHinkley
from repro.online.updates import OnlineRidge, SlidingWindow
from repro.telemetry.counters import OnlineTelemetry
from repro.utils.rng import SeedLike, rng_from
from repro.workloads.base import AppInstance


@dataclass(frozen=True)
class PairObservation:
    """One completed co-located pairing, as the model sees it.

    Descriptors and configurations are in canonical STP order (the
    same orientation ``MLMSTP.predict_configs`` trains and predicts
    in); ``edp`` is the observed pair EDP — joint energy times the
    span from the earlier start to the later finish.
    """

    t: float
    desc_a: AppDescriptor
    desc_b: AppDescriptor
    inst_a: AppInstance
    inst_b: AppInstance
    cfg_a: JobConfig
    cfg_b: JobConfig
    edp: float
    #: True when both jobs started together (an empty-node pairing).
    #: Partner-fill observations span back to the running job's start,
    #: so their EDP mixes in earlier co-runs and queue time — usable
    #: for drift detection, too noisy to be a model row.
    synchronized: bool = True


@dataclass
class _OpenDecision:
    """A pairing decision waiting for its two job completions."""

    t: float
    desc_a: AppDescriptor
    desc_b: AppDescriptor
    inst_a: AppInstance
    inst_b: AppInstance
    job_a: int
    job_b: int
    results: dict[int, JobResult] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.job_a in self.results and self.job_b in self.results

    def observation(self) -> PairObservation:
        ra, rb = self.results[self.job_a], self.results[self.job_b]
        energy = ra.energy_joules + rb.energy_joules
        span = max(ra.finish_time, rb.finish_time) - min(
            ra.start_time, rb.start_time
        )
        return _canonicalize(
            PairObservation(
                t=self.t,
                desc_a=self.desc_a,
                desc_b=self.desc_b,
                inst_a=self.inst_a,
                inst_b=self.inst_b,
                cfg_a=ra.spec.config,
                cfg_b=rb.spec.config,
                edp=float(energy * span),
                synchronized=abs(ra.start_time - rb.start_time) < 1e-9,
            )
        )


def _canonicalize(obs: PairObservation) -> PairObservation:
    """Swap the pair into canonical STP orientation if needed."""
    if _canonical_order(obs.desc_a, obs.desc_b):
        return obs
    return PairObservation(
        t=obs.t,
        desc_a=obs.desc_b,
        desc_b=obs.desc_a,
        inst_a=obs.inst_b,
        inst_b=obs.inst_a,
        cfg_a=obs.cfg_b,
        cfg_b=obs.cfg_a,
        edp=obs.edp,
        synchronized=obs.synchronized,
    )


class PairingBook:
    """Matches the controller's pairing decisions to job completions.

    A running application can appear in several successive decisions
    (each partner fill opens a new one); its single completion closes
    all of them.  Delivery is idempotent — a result re-delivered by a
    second harvest path (controller *and* service both notify) finds
    its decisions already closed and is a no-op.
    """

    def __init__(self) -> None:
        self._by_job: dict[int, list[_OpenDecision]] = {}

    def note(
        self,
        *,
        t: float,
        desc_a: AppDescriptor,
        desc_b: AppDescriptor,
        inst_a: AppInstance,
        inst_b: AppInstance,
        job_a: int,
        job_b: int,
    ) -> None:
        decision = _OpenDecision(
            t=t,
            desc_a=desc_a,
            desc_b=desc_b,
            inst_a=inst_a,
            inst_b=inst_b,
            job_a=job_a,
            job_b=job_b,
        )
        self._by_job.setdefault(job_a, []).append(decision)
        self._by_job.setdefault(job_b, []).append(decision)

    def complete(self, result: JobResult) -> list[PairObservation]:
        """Record one completion; return the pairings it closed."""
        job_id = result.spec.job_id
        open_here = self._by_job.get(job_id)
        if not open_here:
            return []
        finalized: list[PairObservation] = []
        for decision in list(open_here):
            if job_id in decision.results:
                continue  # re-delivered result: already recorded
            decision.results[job_id] = result
            if decision.complete:
                finalized.append(decision.observation())
                self._discard(decision)
        return finalized

    def _discard(self, decision: _OpenDecision) -> None:
        for job_id in (decision.job_a, decision.job_b):
            bucket = self._by_job.get(job_id)
            if bucket is None:
                continue
            if decision in bucket:
                bucket.remove(decision)
            if not bucket:
                del self._by_job[job_id]


@dataclass(frozen=True)
class _RecentPair:
    desc_a: AppDescriptor
    desc_b: AppDescriptor
    inst_a: AppInstance
    inst_b: AppInstance


def _pair_key(inst_a: AppInstance, inst_b: AppInstance):
    return (inst_a.app.code, inst_a.data_bytes, inst_b.app.code, inst_b.data_bytes)


class OnlineSTP:
    """Incrementally self-tuning wrapper over a fitted MLM-STP."""

    def __init__(
        self,
        base: MLMSTP,
        *,
        dataset=None,
        window: int = 6144,
        refresh_every: int = 64,
        detector: PageHinkley | None = None,
        relearn_pairs: int = 8,
        relearn_rows: int = 160,
        ridge_lam: float = 1e-6,
        seed: SeedLike = 0,
        constants: SimConstants = DEFAULT_CONSTANTS,
        telemetry: OnlineTelemetry | None = None,
    ) -> None:
        if base.global_model_ is None:
            raise RuntimeError("OnlineSTP requires a fitted MLM-STP")
        if base.scope != "global":
            raise ValueError("online tuning supports scope='global' only")
        #: The live model — a private copy; the base (champion) stays
        #: frozen for shadow-mode comparison.
        self.stp = copy.deepcopy(base)
        self.constants = constants
        self.refresh_every = refresh_every
        self.relearn_pairs = relearn_pairs
        self.relearn_rows = relearn_rows
        self.ridge_lam = ridge_lam
        self.detector = detector if detector is not None else PageHinkley()
        self.telemetry = telemetry if telemetry is not None else OnlineTelemetry()
        self.mode = "rls" if self.stp.model_kind == "lr" else "window"
        self._factory = self.stp._factory
        self._rng = rng_from(seed)
        self._window = SlidingWindow(window)
        self._since_refresh = 0
        self._recent: OrderedDict[tuple, _RecentPair] = OrderedDict()
        self._swept: set[tuple] = set()
        #: Sweeps left in the current learning period (opened by
        #: :meth:`refit`, drained by relearn and first-sight sweeps).
        self._learning_budget = 0
        #: Tuned configurations from learning-period sweeps, keyed by
        #: canonical descriptor pair — fresh database entries in the
        #: paper's sense, consulted before the model (LkT-style
        #: lookup for profiled pairings, MLM prediction otherwise).
        self._tuned: dict[tuple, tuple[JobConfig, JobConfig]] = {}
        self._manifold_keys: set[tuple] = set()
        self._book = PairingBook()
        self._ridge: OnlineRidge | None = None
        if dataset is not None:
            n = len(dataset.y)
            take = min(window, n)
            idx = np.unique(np.linspace(0, n - 1, take).astype(int))
            self._window.extend(dataset.X[idx], np.log(dataset.y[idx]))
            self.telemetry.window_rows = len(self._window)
        if self.mode == "rls":
            if len(self._window) == 0:
                raise ValueError(
                    "online 'lr' mode needs the training dataset to seed "
                    "the recursive least-squares state"
                )
            X, y = self._window.arrays()
            self._ridge = OnlineRidge(lam=self.ridge_lam).fit(X, y)
            self.stp.global_model_ = self._ridge

    # ------------------------------------------------------- prediction
    @staticmethod
    def _desc_key(desc: AppDescriptor) -> tuple:
        return (desc.app_class, desc.data_bytes, desc.reduced().tobytes())

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]:
        swap = not _canonical_order(a, b)
        key = (
            (self._desc_key(b), self._desc_key(a))
            if swap
            else (self._desc_key(a), self._desc_key(b))
        )
        tuned = self._tuned.get(key)
        if tuned is not None:
            self.telemetry.tuned_hits += 1
            return (tuned[1], tuned[0]) if swap else tuned
        return self.stp.predict_configs(a, b)

    def predict_single_config(self, a: AppDescriptor) -> JobConfig:
        return self.stp.predict_single_config(a)

    # ------------------------------------------------- controller hooks
    def note_pairing(
        self,
        *,
        t: float,
        desc_a: AppDescriptor,
        desc_b: AppDescriptor,
        inst_a: AppInstance,
        inst_b: AppInstance,
        job_a: int,
        job_b: int,
    ) -> None:
        """The controller placed a pair; watch for its completions."""
        self.observe_pair(
            t=t, desc_a=desc_a, desc_b=desc_b, inst_a=inst_a, inst_b=inst_b
        )
        self._book.note(
            t=t,
            desc_a=desc_a,
            desc_b=desc_b,
            inst_a=inst_a,
            inst_b=inst_b,
            job_a=job_a,
            job_b=job_b,
        )

    def observe_pair(
        self,
        *,
        t: float,
        desc_a: AppDescriptor,
        desc_b: AppDescriptor,
        inst_a: AppInstance,
        inst_b: AppInstance,
    ) -> bool:
        """First-sight relearn during the learning period.

        While the sweep budget a :meth:`refit` opened is unspent, a
        never-swept pairing is swept the moment the controller asks
        about it — *before* the decision is scored — so drifted
        applications that first appear after the alarm still get
        learned instead of waiting for a second alarm that may never
        come.  Returns True when a sweep happened.
        """
        if self._learning_budget <= 0:
            return False
        if not _canonical_order(desc_a, desc_b):
            desc_a, desc_b = desc_b, desc_a
            inst_a, inst_b = inst_b, inst_a
        entry = _RecentPair(
            desc_a=desc_a, desc_b=desc_b, inst_a=inst_a, inst_b=inst_b
        )
        if not self._relearn_pair(entry):
            return False
        self._refresh()
        return True

    def on_complete(self, result: JobResult) -> None:
        """Job-completion telemetry (controller/service harvest)."""
        for obs in self._book.complete(result):
            self.partial_fit(obs)

    # ----------------------------------------------------- incremental
    def _observation_row(self, obs: PairObservation) -> np.ndarray:
        """The model-input row for one observation (raw features —
        observed rows *are* the manifold, no projection)."""
        return _row_block(
            obs.desc_a.reduced(),
            obs.desc_a.data_bytes,
            obs.desc_b.reduced(),
            obs.desc_b.data_bytes,
            [obs.cfg_a.frequency],
            [obs.cfg_a.block_size],
            [obs.cfg_a.n_mappers],
            [obs.cfg_b.frequency],
            [obs.cfg_b.block_size],
            [obs.cfg_b.n_mappers],
        )[0]

    def partial_fit(self, obs: PairObservation) -> bool:
        """Fold one observed pairing into the live model.

        Returns False (and counts ``skipped_rows``) for observations a
        log-space model cannot ingest — non-positive or non-finite EDP.
        """
        obs = _canonicalize(obs)
        edp = float(obs.edp)
        if not np.isfinite(edp) or edp <= 0.0:
            self.telemetry.skipped_rows += 1
            return False
        row = self._observation_row(obs)
        y = float(np.log(edp))
        pred = float(
            np.asarray(self.stp.global_model_.predict(row[None, :])).reshape(-1)[0]
        )
        alarm = self.detector.update(abs(pred - y))
        if obs.synchronized:
            self._window.extend(row[None, :], np.array([y]))
        else:
            self.telemetry.noisy_rows += 1
        key = _pair_key(obs.inst_a, obs.inst_b)
        self._recent[key] = _RecentPair(
            desc_a=obs.desc_a,
            desc_b=obs.desc_b,
            inst_a=obs.inst_a,
            inst_b=obs.inst_b,
        )
        self._recent.move_to_end(key)
        while len(self._recent) > 64:
            self._recent.popitem(last=False)
        self.telemetry.updates += 1
        self.telemetry.window_rows = len(self._window)
        if obs.synchronized:
            if self.mode == "rls":
                assert self._ridge is not None
                self._ridge.partial_fit(row, y)
            else:
                self._since_refresh += 1
                if self._since_refresh >= self.refresh_every:
                    self._refresh()
        if alarm:
            self.telemetry.drift_alarms += 1
            self.refit(t=obs.t, reason="drift")
        return True

    # ------------------------------------------------------------ refit
    def refit(self, t: float | None = None, reason: str = "manual") -> bool:
        """Re-enter the learning period and refresh the model.

        The most recent distinct pairings (bounded by
        ``relearn_pairs``) are re-swept — the simulator's equivalent
        of the paper's learning-period profiling — and their sampled
        grid rows join the window; the observed descriptors extend the
        projection manifold so future queries for the drifted
        applications stop projecting onto stale training features.
        Any budget the recent pairs leave unspent stays open for
        first-sight sweeps (:meth:`observe_pair`).
        """
        self._learning_budget = self.relearn_pairs
        recent = list(self._recent.values())[-self.relearn_pairs :]
        for entry in recent:
            if self._learning_budget <= 0:
                break
            self._relearn_pair(entry)
        self._refresh()
        self.detector.reset()
        self.telemetry.refits += 1
        self.telemetry.window_rows = len(self._window)
        return True

    def _relearn_pair(self, entry: _RecentPair) -> bool:
        """Sweep one never-swept pairing into the window (one unit of
        learning-period budget); False when it was already swept."""
        key = _pair_key(entry.inst_a, entry.inst_b)
        if key in self._swept:
            return False
        self._swept.add(key)
        self._learning_budget = max(0, self._learning_budget - 1)
        sweep = sweep_pair(
            entry.inst_a,
            entry.inst_b,
            node=self.stp.node,
            constants=self.constants,
        )
        n = len(sweep.edp)
        take = min(self.relearn_rows, n)
        idx = self._rng.choice(n, size=take, replace=False)
        if sweep.best_index not in idx:
            idx[0] = sweep.best_index
        rows = _row_block(
            entry.desc_a.reduced(),
            entry.desc_a.data_bytes,
            entry.desc_b.reduced(),
            entry.desc_b.data_bytes,
            sweep.freq_a[idx],
            sweep.block_a[idx],
            sweep.mappers_a[idx],
            sweep.freq_b[idx],
            sweep.block_b[idx],
            sweep.mappers_b[idx],
        )
        self._window.extend(rows, np.log(sweep.edp[idx]))
        self._tuned[
            (self._desc_key(entry.desc_a), self._desc_key(entry.desc_b))
        ] = sweep.best_configs
        self.telemetry.relearn_sweeps += 1
        self._extend_manifold(entry)
        return True

    def _extend_manifold(self, entry: _RecentPair) -> None:
        for desc, inst in (
            (entry.desc_a, entry.inst_a),
            (entry.desc_b, entry.inst_b),
        ):
            key = (inst.app.code, inst.data_bytes)
            if key in self._manifold_keys:
                continue
            self._manifold_keys.add(key)
            self.stp.train_features_ = np.vstack(
                [self.stp.train_features_, desc.reduced()[None, :]]
            )
            self.stp.train_sizes_ = np.append(
                self.stp.train_sizes_, float(inst.data_bytes)
            )

    def _refresh(self) -> None:
        """Refit the live model on the current window."""
        if len(self._window) == 0:
            return
        X, y = self._window.arrays()
        if self.mode == "rls":
            self._ridge = OnlineRidge(lam=self.ridge_lam).fit(X, y)
            self.stp.global_model_ = self._ridge
        else:
            self.stp.global_model_ = self._factory().fit(X, y)
        self._since_refresh = 0
