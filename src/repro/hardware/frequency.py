"""DVFS operating points for the simulated Atom microserver.

The paper sweeps four frequency settings (1.2, 1.6, 2.0, 2.4 GHz,
§2.4).  Each operating point pairs a clock frequency with a supply
voltage; dynamic power scales as C·V²·f, so the voltage column is what
makes frequency an *energy* knob rather than a pure performance knob.

Voltages follow a typical low-power Silvermont V/f curve.  Absolute
values only matter through the power model's calibration constant, so
the curve's *shape* (superlinear power in f) is the load-bearing part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import GHZ
from repro.utils.validation import check_positive


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """One DVFS setting: clock frequency (Hz) and supply voltage (V)."""

    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        check_positive("frequency", self.frequency)
        check_positive("voltage", self.voltage)

    @property
    def ghz(self) -> float:
        """Frequency in GHz (the unit used in the paper's tables)."""
        return self.frequency / GHZ

    def dynamic_scale(self, reference: "OperatingPoint") -> float:
        """Ratio of dynamic power vs. ``reference`` at equal activity.

        Implements the classic CMOS scaling P_dyn ∝ V²·f.
        """
        return (self.voltage / reference.voltage) ** 2 * (
            self.frequency / reference.frequency
        )


#: The four operating points studied in the paper (§2.4).
DVFS_LEVELS: tuple[OperatingPoint, ...] = (
    OperatingPoint(frequency=1.2 * GHZ, voltage=0.85),
    OperatingPoint(frequency=1.6 * GHZ, voltage=0.93),
    OperatingPoint(frequency=2.0 * GHZ, voltage=1.02),
    OperatingPoint(frequency=2.4 * GHZ, voltage=1.12),
)


class DvfsTable:
    """Lookup and validation of the discrete DVFS operating points."""

    def __init__(self, levels: tuple[OperatingPoint, ...] = DVFS_LEVELS) -> None:
        if not levels:
            raise ValueError("DVFS table needs at least one operating point")
        self._levels = tuple(sorted(levels))
        freqs = [p.frequency for p in self._levels]
        if len(set(freqs)) != len(freqs):
            raise ValueError("duplicate frequencies in DVFS table")
        ref = self._levels[-1]
        #: Exact frequency -> dynamic-power scale against the top level,
        #: the cost kernel's per-call lookup.
        self.dyn_scales: dict[float, float] = {
            p.frequency: p.dynamic_scale(ref) for p in self._levels
        }
        #: The same map as two read-only ascending arrays, for the
        #: kernel's vectorised lookup.
        self.frequency_array = np.array(freqs)
        self.dyn_scale_array = np.array(list(self.dyn_scales.values()))
        self.frequency_array.flags.writeable = False
        self.dyn_scale_array.flags.writeable = False

    @property
    def levels(self) -> tuple[OperatingPoint, ...]:
        return self._levels

    @property
    def frequencies(self) -> tuple[float, ...]:
        """All frequencies, ascending, in Hz."""
        return tuple(p.frequency for p in self._levels)

    @property
    def max_point(self) -> OperatingPoint:
        return self._levels[-1]

    def point_for(self, frequency: float, *, tol: float = 1e-3) -> OperatingPoint:
        """The operating point matching ``frequency`` (Hz), within ``tol`` relative."""
        for point in self._levels:
            if abs(point.frequency - frequency) <= tol * point.frequency:
                return point
        ghz = frequency / GHZ
        valid = ", ".join(f"{p.ghz:g}" for p in self._levels)
        raise ValueError(f"{ghz:g} GHz is not a DVFS level (valid: {valid} GHz)")

    def voltage_for(self, frequency: float) -> float:
        return self.point_for(frequency).voltage

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self):
        return iter(self._levels)
