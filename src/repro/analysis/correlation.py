"""Counter-correlation analysis (§3.2's motivation, made explicit).

The paper notes "substantial debate about what hardware counter event
can accurately indicate performance" and uses PCA/clustering to pick a
minimal counter set.  This module makes the underlying evidence
explicit: Pearson correlations between every collected feature and the
performance/energy outcomes, plus the feature-feature redundancy
matrix that justifies dropping co-linear counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.features import FeatureMatrix
from repro.model.sweep import sweep_solo
from repro.utils.tables import render_table


def pearson_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of columns (constant cols → 0)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-D with at least 2 rows")
    Xc = X - X.mean(axis=0)
    std = Xc.std(axis=0)
    safe = np.where(std < 1e-12, 1.0, std)
    Z = Xc / safe
    corr = (Z.T @ Z) / X.shape[0]
    # Zero out correlations involving constant columns; unit diagonal.
    const = std < 1e-12
    corr[const, :] = 0.0
    corr[:, const] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class CorrelationReport:
    """Feature ↔ outcome and feature ↔ feature correlation analysis."""

    feature_names: tuple[str, ...]
    outcome_names: tuple[str, ...]
    outcome_corr: np.ndarray  # (n_features, n_outcomes)
    feature_corr: np.ndarray  # (n_features, n_features)
    redundancy_threshold: float

    def redundant_pairs(self) -> list[tuple[str, str, float]]:
        """Feature pairs more correlated than the threshold."""
        out = []
        n = len(self.feature_names)
        for i in range(n):
            for j in range(i + 1, n):
                r = float(self.feature_corr[i, j])
                if abs(r) >= self.redundancy_threshold:
                    out.append((self.feature_names[i], self.feature_names[j], r))
        return sorted(out, key=lambda t: -abs(t[2]))

    def best_single_indicator(self, outcome: str) -> tuple[str, float]:
        """The feature most correlated with one outcome."""
        j = self.outcome_names.index(outcome)
        i = int(np.argmax(np.abs(self.outcome_corr[:, j])))
        return self.feature_names[i], float(self.outcome_corr[i, j])

    def render(self) -> str:
        rows = [
            [name] + [float(self.outcome_corr[i, j]) for j in range(len(self.outcome_names))]
            for i, name in enumerate(self.feature_names)
        ]
        table = render_table(
            ["feature"] + list(self.outcome_names),
            rows,
            title="Feature ↔ outcome Pearson correlations",
            floatfmt="+.2f",
        )
        red = self.redundant_pairs()
        red_rows = [[a, b, r] for a, b, r in red] or [["(none)", "", 0.0]]
        red_table = render_table(
            ["feature A", "feature B", "r"],
            red_rows,
            title=f"Redundant counter pairs (|r| >= {self.redundancy_threshold})",
            floatfmt="+.2f",
        )
        return table + "\n\n" + red_table


def correlate_with_outcomes(
    matrix: FeatureMatrix,
    *,
    redundancy_threshold: float = 0.9,
) -> CorrelationReport:
    """Correlate the profiled features with tuned runtime/power/EDP.

    Outcomes come from each instance's oracle-tuned solo execution —
    the quantity a scheduler ultimately cares about predicting.
    """
    outcomes = []
    for inst in matrix.instances:
        sweep = sweep_solo(inst)
        i = sweep.best_index
        outcomes.append(
            [
                float(sweep.metrics.duration[i]),
                float(sweep.metrics.power[i]),
                float(np.log(sweep.metrics.edp[i])),
            ]
        )
    Y = np.asarray(outcomes)
    joint = np.hstack([matrix.scaled, (Y - Y.mean(axis=0)) / Y.std(axis=0)])
    corr = pearson_matrix(joint)
    nf = matrix.scaled.shape[1]
    return CorrelationReport(
        feature_names=matrix.names,
        outcome_names=("runtime", "power", "log_edp"),
        outcome_corr=corr[:nf, nf:],
        feature_corr=corr[:nf, :nf],
        redundancy_threshold=redundancy_threshold,
    )
