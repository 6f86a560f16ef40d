"""FIG8 — training and prediction cost of the STP models (Figure 8).

Measures wall-clock training time of each technique on the training
dataset and the per-decision prediction time (one incoming pair →
evaluate the whole configuration grid → pick; MLM-STP's decision memo
is emptied before each timed call).  The paper's shape:
training cost LR < REPTree ≪ LkT < MLP (the lookup table needs the
exhaustive sweeps to populate); prediction cost LkT ≪ LR < REPTree <
MLP, with MLP's long inference the reason §7.2 prefers REPTree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.stp import LkTSTP, MLMSTP, build_offline, describe_instance
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import TRAINING_APPS, instances_for, get_app


@dataclass(frozen=True)
class Fig8Report:
    """(train seconds, predict seconds per decision) per technique."""

    train_s: dict[str, float]
    predict_s: dict[str, float]

    def render(self) -> str:
        rows = [
            [name, self.train_s[name], self.predict_s[name] * 1e3]
            for name in self.train_s
        ]
        return render_table(
            ["technique", "training (s)", "prediction (ms/decision)"],
            rows,
            title="Figure 8 — STP computational overhead",
            floatfmt=".3f",
        )


def run_fig8(*, rows_per_pair: int = 300, predict_repeats: int = 3) -> Fig8Report:
    """Time every technique's offline training and online prediction.

    LkT's "training" is the offline build: the exhaustive sweeps its
    database needs, plus the training applications' profiling and the
    row sampling that feed the learned models in the same pass.  The
    learned models' training time is pure model fitting — mirroring
    the paper, where the one-time measurement campaign is shared.
    """
    training = instances_for(TRAINING_APPS)

    t0 = time.perf_counter()
    database, dataset = build_offline(training, rows_per_pair=rows_per_pair, seed=0)
    lkt_train = time.perf_counter() - t0

    train_s: dict[str, float] = {"LkT": lkt_train}
    techs: dict[str, object] = {"LkT": LkTSTP(database)}
    for name, kind in (("LR", "lr"), ("REPTree", "reptree"), ("MLP", "mlp")):
        stp = MLMSTP(kind)
        t0 = time.perf_counter()
        stp.fit(dataset)
        train_s[name] = time.perf_counter() - t0
        techs[name] = stp

    a = describe_instance(AppInstance(get_app("nb"), 5 * GB))
    b = describe_instance(AppInstance(get_app("km"), 5 * GB))
    predict_s: dict[str, float] = {}
    for name, stp in techs.items():
        best = np.inf
        for _ in range(predict_repeats):
            # Time a first-sight decision (the grid evaluation), not a
            # memo hit.
            if isinstance(stp, MLMSTP):
                stp.clear_memo()
            t0 = time.perf_counter()
            stp.predict_configs(a, b)  # type: ignore[attr-defined]
            best = min(best, time.perf_counter() - t0)
        predict_s[name] = best
    return Fig8Report(train_s=train_s, predict_s=predict_s)
