"""Champion/challenger shadow-mode evaluation on one decision stream.

The frozen offline model (**champion**) and the online learner
(**challenger**, an :class:`~repro.online.stp.OnlineSTP`) both score
every pairing decision the controller makes: each predicts its own
pair configuration for the decision's descriptors, the closed-form
cost model prices both choices, and each contender accumulates **EDP
regret** — its choice's EDP minus the best EDP on the full pair grid
(cached per instance pair).  Placement follows the *active* contender
(champion until promotion); the other runs in shadow, costing two
extra grid predictions per decision and nothing on the cluster.

Promotion is deterministic and sticky: once at least
``min_decisions`` decisions are scored, the challenger is promoted at
the first ``check_every`` checkpoint where its cumulative regret is
at most ``margin`` of the champion's (and strictly smaller).  Two
runs with the same seed produce identical regret curves and the same
promotion decision — pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stp import AppDescriptor, LRUMemo
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.job import JobResult
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.costmodel import pair_edp_scalar
from repro.model.sweep import sweep_pair
from repro.online.stp import OnlineSTP
from repro.workloads.base import AppInstance


class PairScorer:
    """Closed-form EDP pricing of pairing choices, with a grid cache.

    ``score`` prices one concrete (cfg_a, cfg_b) choice for an
    instance pair with the cost kernel's scalar pair price
    (:func:`~repro.model.costmodel.pair_edp_scalar`, bit-identical to
    a one-point ``pair_metrics``), memoised per (ordered pair, cfg_a,
    cfg_b): a stream's decisions repeat a few dozen choices.
    ``optimum`` is the best EDP over the full 2,800-point pair grid,
    swept once per distinct unordered (app, size) pair and memoised —
    the regret baseline.  Both memos are LRU, capped at
    :data:`~repro.core.stp.DECISION_MEMO_CAP` entries.
    """

    def __init__(
        self,
        *,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> None:
        self.node = node
        self.constants = constants
        self._optima = LRUMemo()
        self._scores = LRUMemo()

    @staticmethod
    def _key(inst: AppInstance) -> tuple:
        return (inst.app.code, inst.data_bytes)

    def optimum(self, inst_a: AppInstance, inst_b: AppInstance) -> float:
        """Best pair EDP on the full grid (orientation-invariant)."""
        ka, kb = self._key(inst_a), self._key(inst_b)
        if kb < ka:
            ka, kb, inst_a, inst_b = kb, ka, inst_b, inst_a
        cached = self._optima.get((ka, kb))
        if cached is None:
            sweep = sweep_pair(
                inst_a, inst_b, node=self.node, constants=self.constants
            )
            cached = float(sweep.best_edp)
            self._optima.put((ka, kb), cached)
        return cached

    def score(
        self,
        inst_a: AppInstance,
        inst_b: AppInstance,
        cfg_a: JobConfig,
        cfg_b: JobConfig,
    ) -> float:
        """The pair EDP of one concrete configuration choice."""
        key = (inst_a, inst_b, cfg_a, cfg_b)
        edp = self._scores.get(key)
        if edp is None:
            edp = pair_edp_scalar(
                inst_a.profile,
                inst_a.data_bytes,
                cfg_a.frequency,
                cfg_a.block_size,
                cfg_a.n_mappers,
                inst_b.profile,
                inst_b.data_bytes,
                cfg_b.frequency,
                cfg_b.block_size,
                cfg_b.n_mappers,
                node=self.node,
                constants=self.constants,
            )
            self._scores.put(key, edp)
        return edp


@dataclass(frozen=True)
class PromotionPolicy:
    """Deterministic sticky promotion rule for the challenger."""

    min_decisions: int = 12
    check_every: int = 4
    margin: float = 0.9

    def __post_init__(self) -> None:
        if self.min_decisions < 1:
            raise ValueError("min_decisions must be >= 1")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if not 0.0 < self.margin <= 1.0:
            raise ValueError("margin must be in (0, 1]")

    def should_promote(
        self, n_decisions: int, champion_cum: float, challenger_cum: float
    ) -> bool:
        if n_decisions < self.min_decisions:
            return False
        if n_decisions % self.check_every:
            return False
        return (
            challenger_cum <= self.margin * champion_cum
            and challenger_cum < champion_cum
        )


class ShadowSTP:
    """The controller-facing predictor running both contenders."""

    def __init__(
        self,
        champion,
        challenger: OnlineSTP,
        *,
        scorer: PairScorer | None = None,
        policy: PromotionPolicy | None = None,
    ) -> None:
        self.champion = champion
        self.challenger = challenger
        self.scorer = scorer if scorer is not None else PairScorer(
            node=challenger.stp.node, constants=challenger.constants
        )
        self.policy = policy if policy is not None else PromotionPolicy()
        #: Shared with the challenger so one registry namespace covers
        #: the whole online layer.
        self.telemetry = challenger.telemetry
        #: Decision index (1-based) at which the challenger took over;
        #: None while the champion is still active.
        self.promoted_at: int | None = None
        #: Cumulative EDP regret after each scored decision.
        self.champion_curve: list[float] = []
        self.challenger_curve: list[float] = []

    # ------------------------------------------------------- prediction
    @property
    def active(self):
        """Whoever currently drives placements."""
        return self.champion if self.promoted_at is None else self.challenger

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]:
        return self.active.predict_configs(a, b)

    # ------------------------------------------------- controller hooks
    def refit(self, t: float | None = None, reason: str = "manual") -> bool:
        """Cluster-change relearn: only the challenger refits — the
        champion stays frozen by construction."""
        return self.challenger.refit(t=t, reason=reason)

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
        """Score one pairing decision for both contenders.

        The challenger notes the pairing first — during a learning
        period it may sweep a never-seen pairing before scoring, exactly
        as it would were it active — and its pairing book then matches
        the decision to the completions that train it.
        """
        self.challenger.note_pairing(
            t=t,
            desc_a=desc_a,
            desc_b=desc_b,
            inst_a=inst_a,
            inst_b=inst_b,
            job_a=job_a,
            job_b=job_b,
        )
        optimum = self.scorer.optimum(inst_a, inst_b)
        regrets = []
        for contender in (self.champion, self.challenger):
            cfg_a, cfg_b = contender.predict_configs(desc_a, desc_b)
            edp = self.scorer.score(inst_a, inst_b, cfg_a, cfg_b)
            regrets.append(edp - optimum)
        champ_cum = (self.champion_curve[-1] if self.champion_curve else 0.0) + regrets[0]
        chal_cum = (
            self.challenger_curve[-1] if self.challenger_curve else 0.0
        ) + regrets[1]
        self.champion_curve.append(champ_cum)
        self.challenger_curve.append(chal_cum)
        self.telemetry.decisions += 1
        self.telemetry.champion_regret = champ_cum
        self.telemetry.challenger_regret = chal_cum
        if self.promoted_at is None and self.policy.should_promote(
            len(self.champion_curve), champ_cum, chal_cum
        ):
            self.promoted_at = len(self.champion_curve)
            self.telemetry.promotions += 1
            self.telemetry.promoted_at = self.promoted_at

    def on_complete(self, result: JobResult) -> None:
        """Completion telemetry: finished pairings train the challenger."""
        self.challenger.on_complete(result)
