"""Physical constants, and the names of the shipped presets and intensity models.

The physical values are CODATA-2018. They live here and nowhere else so that
every module agrees on them bit for bit.  The two name tuples live here because
this module imports no numpy: the CLI's parser offers them as choices before
any numeric layer loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CODATA2018", "PhysicalConstants", "PRESETS", "INTENSITY_MODELS"]

PRESETS = ("cg4b-10khz", "cg4b-100khz", "reseda")
INTENSITY_MODELS = ("ideal", "wavepacket")


@dataclass(frozen=True)
class PhysicalConstants:
    """Neutron constants in SI units.

    neutron_mass        kg
    planck              J s
    hbar                J s
    gyromagnetic_ratio  rad s^-1 T^-1 (magnitude; the neutron moment is negative,
                        sign conventions are carried by the phase formulas instead)
    """

    neutron_mass: float = 1.67492749804e-27
    planck: float = 6.62607015e-34
    hbar: float = 6.62607015e-34 / (2.0 * math.pi)
    gyromagnetic_ratio: float = 1.83247171e8

    def velocity(self, wavelength: float) -> float:
        """de Broglie velocity (m/s) for a neutron of the given wavelength (m)."""
        if not (wavelength > 0.0) or not math.isfinite(wavelength):
            raise ValueError(f"wavelength must be positive and finite, got {wavelength!r}")
        return self.planck / (self.neutron_mass * wavelength)

    def wavenumber(self, wavelength: float) -> float:
        """Wavenumber k = 2 pi / lambda (rad/m)."""
        if not (wavelength > 0.0) or not math.isfinite(wavelength):
            raise ValueError(f"wavelength must be positive and finite, got {wavelength!r}")
        return 2.0 * math.pi / wavelength


CODATA2018 = PhysicalConstants()
