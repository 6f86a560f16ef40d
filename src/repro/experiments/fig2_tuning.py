"""FIG2 — EDP improvement from tuning knobs (paper Figure 2, §4.1).

For each mapper count, computes the EDP improvement available from
tuning the HDFS block size alone, the frequency alone, and both
concurrently — everything normalised to the paper's baseline of
(64 MB, 1.2 GHz) at the same mapper count.  The paper's findings this
must reproduce:

* concurrent tuning beats either individual knob (by 3.73%-87.39% in
  the paper);
* sensitivity shrinks as the mapper count grows (the motivation for
  careful tuning *under co-location*, where each app gets few cores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import standalone_metrics
from repro.utils.tables import render_series
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppProfile
from repro.workloads.registry import get_app

BASELINE_BLOCK = 64 * MB
BASELINE_FREQ = 1.2 * GHZ


@dataclass(frozen=True)
class Fig2Report:
    """Improvement factors per app per mapper count."""

    app_code: str
    data_bytes: int
    mappers: tuple[int, ...]
    block_only: tuple[float, ...]
    freq_only: tuple[float, ...]
    concurrent: tuple[float, ...]

    @property
    def concurrent_gain_over_individual(self) -> tuple[float, ...]:
        """Relative advantage (%) of joint tuning over the better knob."""
        return tuple(
            (c / max(b, f) - 1.0) * 100.0
            for b, f, c in zip(self.block_only, self.freq_only, self.concurrent)
        )

    def render(self) -> str:
        return render_series(
            {
                "block-only": list(self.block_only),
                "freq-only": list(self.freq_only),
                "concurrent": list(self.concurrent),
                "joint gain %": list(self.concurrent_gain_over_individual),
            },
            x_labels=list(self.mappers),
            x_name="mappers",
            title=(
                f"Figure 2 — EDP improvement over (64MB, 1.2GHz), "
                f"{self.app_code}@{self.data_bytes // GB}GB"
            ),
        )


def _mapper_point(
    profile: AppProfile,
    data_bytes: int,
    m: int,
    node: NodeSpec,
    constants: SimConstants,
) -> tuple[float, float, float]:
    """(block-only, freq-only, concurrent) improvements at one mapper
    count."""
    freqs = np.asarray(node.frequencies)
    blocks = np.asarray(HDFS_BLOCK_SIZES, dtype=float)

    base = standalone_metrics(
        profile, data_bytes, BASELINE_FREQ, BASELINE_BLOCK, m,
        node=node, constants=constants,
    )
    base_edp = float(np.asarray(base.edp))

    blk = standalone_metrics(
        profile, data_bytes, BASELINE_FREQ, blocks, m,
        node=node, constants=constants,
    )
    frq = standalone_metrics(
        profile, data_bytes, freqs, BASELINE_BLOCK, m,
        node=node, constants=constants,
    )
    ff, bb = np.meshgrid(freqs, blocks, indexing="ij")
    both = standalone_metrics(
        profile, data_bytes, ff.ravel(), bb.ravel(), m,
        node=node, constants=constants,
    )
    return (
        base_edp / float(blk.edp.min()),
        base_edp / float(frq.edp.min()),
        base_edp / float(both.edp.min()),
    )


def run_fig2(
    app_code: str = "wc",
    *,
    data_bytes: int = 10 * GB,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> Fig2Report:
    """Sweep the knobs at every mapper count for one application."""
    profile = get_app(app_code).profile
    mappers = tuple(range(1, node.n_cores + 1))
    points = [_mapper_point(profile, data_bytes, m, node, constants) for m in mappers]
    block_only = [p[0] for p in points]
    freq_only = [p[1] for p in points]
    concurrent = [p[2] for p in points]

    return Fig2Report(
        app_code=app_code,
        data_bytes=data_bytes,
        mappers=mappers,
        block_only=tuple(block_only),
        freq_only=tuple(freq_only),
        concurrent=tuple(concurrent),
    )
