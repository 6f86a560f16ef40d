"""TAB1 — APE of the learned EDP models per class pair (paper Table 1).

Trains LR, REPTree and MLP on the training-pair sweep rows and scores
the absolute percentage error of EDP *prediction* (not selection) on
held-out grid points, per class pair.  The paper reports LR ≈ 55%
average APE, REPTree ≈ 4.4%, MLP ≈ 0.77% — the shape to reproduce is
the steep accuracy ordering LR ≫ REPTree > MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stp import MODEL_FACTORIES, TrainingDataset
from repro.ml.mlp import MLPRegressor
from repro.experiments.artifacts import train_pipeline
from repro.ml.metrics import mean_ape
from repro.ml.preprocessing import train_val_split
from repro.utils.tables import render_table

MODEL_ORDER = ("lr", "reptree", "mlp")


@dataclass(frozen=True)
class Table1Report:
    """APE (%) per class pair and model."""

    ape: dict[str, dict[str, float]]  # class pair -> model -> APE %

    def averages(self) -> dict[str, float]:
        out = {}
        for model in MODEL_ORDER:
            vals = [row[model] for row in self.ape.values()]
            out[model] = float(np.mean(vals))
        return out

    def render(self) -> str:
        rows = [
            [code] + [self.ape[code][m] for m in MODEL_ORDER]
            for code in sorted(self.ape)
        ]
        avg = self.averages()
        rows.append(["Average"] + [avg[m] for m in MODEL_ORDER])
        return render_table(
            ["class pair", "LR", "REPTree", "MLP"],
            rows,
            title="Table 1 — Absolute Percentage Error (%) of EDP prediction",
            floatfmt=".2f",
        )


def run_table1(
    *,
    dataset: TrainingDataset | None = None,
    holdout_fraction: float = 0.25,
    seed: int = 0,
) -> Table1Report:
    """Fit each model per class pair and score held-out APE."""
    ds = dataset if dataset is not None else train_pipeline().dataset
    ape: dict[str, dict[str, float]] = {}
    for code in ds.class_pairs:
        X, y = ds.subset(code)
        Xt, yt, Xv, yv = train_val_split(
            X, y, val_fraction=holdout_fraction, seed=seed
        )
        row = {}
        for model_name in MODEL_ORDER:
            if model_name == "mlp":
                # Table 1 scores pure prediction accuracy, so the MLP
                # gets a larger budget than the online STP variant.
                model = MLPRegressor(
                    hidden=(96, 48), epochs=1000, batch_size=128,
                    lr=2e-3, log_target=False, early_stop_patience=100,
                    seed=0,
                )
            else:
                model = MODEL_FACTORIES[model_name]()
            # LR is fitted on raw EDP (the paper's straw-man linear
            # surface); the nonlinear models on log-EDP as in MLM-STP.
            if model_name == "lr":
                model.fit(Xt, yt)
                pred = np.asarray(model.predict(Xv))
            else:
                model.fit(Xt, np.log(yt))
                pred = np.exp(np.asarray(model.predict(Xv)))
            row[model_name] = mean_ape(yv, np.maximum(pred, 1e-12))
        ape[code] = row
    return Table1Report(ape=ape)
