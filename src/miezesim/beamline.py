"""Beamline settings to phases, state evolution, and the idealized detector signal.

The coordinate and phase conventions:

* The spin-phase coil sits upstream of the first rf flipper; it advances the
  down-spin amplitude by ``exp(i alpha)`` relative to up, with alpha set by
  the Larmor formula from the coil field integral.
* The first rf flipper (angular frequency ``omega1 = 2 pi f1``) swaps the
  spin branches and splits the total energy into sidebands; the second
  flipper at ``omega2`` swaps again, leaving the up branch at ``E0 + hbar
  (omega2 - omega1)`` and the down branch mirrored below.  The intensity
  beat after the analyzer runs at the frequency ``omega_m = 2 (omega2 -
  omega1)``.
* Downstream of the second flipper the relative phase between the branches
  is written as ``alpha + omega_m t`` (the intermediate state after the
  first flipper carries the equivalent ``2 omega1 t - alpha`` form).
* The detector offset ``delta`` is measured from the focusing point;
  ``energy_phase`` is negative for positive offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA2018
from .errors import ConfigError, PhysicsError
from .quantum import SpinEnergyState

__all__ = [
    "BeamlineConfig",
    "mieze_frequency",
    "spin_phase",
    "current_for_spin_phase",
    "energy_phase",
    "offset_for_energy_phase",
    "energy_phase_detuning",
    "focusing_distance",
    "evolve_pipeline",
    "ideal_intensity",
]


@dataclass(frozen=True)
class BeamlineConfig:
    """Instrument settings in SI units.

    wavelength      m, nominal neutron wavelength
    bandwidth       dimensionless FWHM fractional bandwidth (delta lambda / lambda)
    f1, f2          Hz, rf flipper frequencies (f2 > f1)
    l1              m, separation of the two rf flippers
    l2              m, distance from the second flipper to the detector
    coil_cal        T*m per A, spin-phase coil field integral per unit current
    guide_bl        T*m, constant residual field integral (default 0)
    polarizer_eff   dimensionless; recorded but not folded into `contrast`,
                    which is taken as the end-to-end measured value
    contrast        dimensionless in [0, 1], MIEZE contrast C
    mean_level      relative intensity scale A of the detector signal
    """

    wavelength: float
    bandwidth: float
    f1: float
    f2: float
    l1: float
    l2: float
    coil_cal: float
    guide_bl: float = 0.0
    polarizer_eff: float = 0.96
    contrast: float = 1.0
    mean_level: float = 0.5

    def __post_init__(self) -> None:
        def positive(name: str) -> None:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")

        for name in ("wavelength", "f1", "f2", "l1", "l2", "mean_level"):
            positive(name)
        if not (0.0 < self.bandwidth < 1.0):
            raise ConfigError(f"bandwidth must be in (0, 1), got {self.bandwidth!r}")
        if not (0.0 <= self.contrast <= 1.0):
            raise ConfigError(f"contrast must be in [0, 1], got {self.contrast!r}")
        if not (0.0 < self.polarizer_eff <= 1.0):
            raise ConfigError(
                f"polarizer_eff must be in (0, 1], got {self.polarizer_eff!r}"
            )
        for name in ("coil_cal", "guide_bl"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.f2 <= self.f1:
            raise PhysicsError(
                f"f2 must exceed f1 for a defined beat frequency, got f1={self.f1!r}, f2={self.f2!r}"
            )

    @property
    def omega1(self) -> float:
        return 2.0 * math.pi * self.f1

    @property
    def omega2(self) -> float:
        return 2.0 * math.pi * self.f2

    @property
    def velocity(self) -> float:
        """Nominal neutron velocity h/(m lambda), m/s."""
        return CODATA2018.velocity(self.wavelength)

    @property
    def k0(self) -> float:
        """Nominal wavenumber 2 pi / lambda, rad/m."""
        return CODATA2018.wavenumber(self.wavelength)


def mieze_frequency(cfg: BeamlineConfig) -> float:
    """Intensity beat frequency omega_m = 2 (omega2 - omega1), rad/s."""
    return 2.0 * (cfg.omega2 - cfg.omega1)


def spin_phase(cfg: BeamlineConfig, current: float | np.ndarray) -> float | np.ndarray:
    """Larmor spin phase alpha (rad) for a coil current (A), elementwise on arrays.

    alpha = (gamma_n m lambda / h) * (coil_cal * current + guide_bl), i.e.
    gamma_n * integral(B dl) / v.
    """
    if not np.all(np.isfinite(current)):
        raise ValueError(f"current must be finite, got {current!r}")
    bl = cfg.coil_cal * current + cfg.guide_bl
    return CODATA2018.gyromagnetic_ratio * bl / cfg.velocity


def current_for_spin_phase(cfg: BeamlineConfig, alpha: float) -> float:
    """Coil current (A) that realizes the requested spin phase (rad)."""
    if cfg.coil_cal == 0.0:
        raise PhysicsError("coil_cal is zero; no current can set the spin phase")
    bl = alpha * cfg.velocity / CODATA2018.gyromagnetic_ratio
    return (bl - cfg.guide_bl) / cfg.coil_cal


def energy_phase(cfg: BeamlineConfig, delta: float | np.ndarray) -> float | np.ndarray:
    """Energy phase gamma (rad) at detector offset delta (m) from the focus, elementwise.

    gamma = -(m lambda omega_m / h) * delta = -omega_m * delta / v.
    """
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"offset must be finite, got {delta!r}")
    return -mieze_frequency(cfg) * delta / cfg.velocity


def offset_for_energy_phase(cfg: BeamlineConfig, gamma: float) -> float:
    """Detector offset (m) that realizes the requested energy phase (rad)."""
    return -gamma * cfg.velocity / mieze_frequency(cfg)


def energy_phase_detuning(
    delta_omega: float | np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """Energy phase gamma = -2 * delta_omega * t from frequency detuning, elementwise.

    ``delta_omega`` (rad/s) is the deviation of the flipper frequency
    difference from its nominal value, with the detector kept at the focus;
    ``t`` is the detector time coordinate of the channel being read.  Arrays
    broadcast.
    """
    if not (np.all(np.isfinite(delta_omega)) and np.all(np.isfinite(t))):
        raise ValueError("detuning and time must be finite")
    return -2.0 * delta_omega * t


def channel_phase(cfg: BeamlineConfig, scan_kind: str, coord: float, channel, n: int):
    """Phase omega_m t + gamma (rad) of time channel(s) ``channel`` of ``n`` per period T.

    t = channel (T / n); gamma is ``energy_phase(coord)`` in offset scans and
    ``energy_phase_detuning(coord, t)`` in detuning scans.  Arrays broadcast;
    the caller adds alpha.
    """
    omega_m = mieze_frequency(cfg)
    t = channel * (2.0 * math.pi / omega_m / n)
    if scan_kind == "detuning":
        return omega_m * t + energy_phase_detuning(coord, t)
    return omega_m * t + energy_phase(cfg, coord)


# Above 2**32 rad neighbouring doubles lie about 1e-6 rad apart or more, so a
# phase there no longer sets a cosine; the presets' phases stay below 70 rad.
_MAX_PHASE = 2.0**32


def _scan_phases(cfg: BeamlineConfig, scan_kind: str, currents, coords,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin phases of ``currents`` and the (len(coords), n) channel phases omega_m t + gamma.

    The one path from a scan to its phases, for simulation and analysis alike.
    Raises ConfigError for the first current, then the first coordinate, that
    is not finite or whose phase overflows or exceeds 2**32 rad.  ``n == 0``
    gives an empty table.
    """
    currents, coords = np.ravel(currents), np.ravel(coords)
    # the phase functions reject a non-finite value outright: it is phased as 0
    # here and named below
    finite_currents, finite_coords = np.isfinite(currents), np.isfinite(coords)
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = spin_phase(cfg, np.where(finite_currents, currents, 0.0))
        phases = (channel_phase(cfg, scan_kind, np.where(finite_coords, coords, 0.0)[:, None],
                                np.arange(n), n) if n else np.zeros((coords.size, 0)))
    coord_name, coord_unit = ("detuning", "rad/s") if scan_kind == "detuning" else ("offset", "m")
    for values, worst, name, unit, kind in (
        (currents, np.where(finite_currents, np.abs(alphas), np.inf), "current", "A", "spin"),
        (coords, np.where(finite_coords, np.abs(phases).max(axis=1, initial=0.0), np.inf),
         coord_name, coord_unit, "energy"),
    ):
        bad = np.flatnonzero(~(worst <= _MAX_PHASE))
        if bad.size:
            value, phase = float(values[bad[0]]), worst[bad[0]]
            if not np.isfinite(phase):
                raise ConfigError(f"{name} {value!r} {unit} gives a non-finite {kind} phase")
            raise ConfigError(f"{name} {value!r} {unit} gives a phase of {phase:.3g} rad, "
                              "over 2**32 rad, where doubles lie about 1e-6 rad apart")
    return alphas, phases


def focusing_distance(cfg: BeamlineConfig, coil_field_integral: float = 0.0) -> float:
    """Flipper-to-detector distance L2 (m) satisfying the focusing condition.

    Solves L1/L2 = (omega2 - omega1)/omega1 + gamma_n*BL/(2 omega1 L2):

        L2 = (omega1 * L1 - gamma_n * BL / 2) / (omega2 - omega1)

    Independent of wavelength.  Raises PhysicsError when the geometry has no
    positive finite solution.
    """
    if not math.isfinite(coil_field_integral):
        raise ValueError(f"field integral must be finite, got {coil_field_integral!r}")
    gamma_n = CODATA2018.gyromagnetic_ratio
    l2 = (cfg.omega1 * cfg.l1 - gamma_n * coil_field_integral / 2.0) / (
        cfg.omega2 - cfg.omega1
    )
    if not 0.0 < l2 < math.inf:
        raise PhysicsError("focusing condition yields no positive finite detector distance, "
                           f"got {l2!r}")
    return l2


def evolve_pipeline(cfg: BeamlineConfig, alpha: float, t: float) -> list[SpinEnergyState]:
    """States after each beamline element, in pipeline order.

    Returns [psi0, psi1, psi_bell, psi2, psi3]:

      psi0     (|up> + |down>) |E0> / sqrt(2); by convention the undisturbed
               energy |E0> occupies the E+ slot at the first two stages
      psi1     spin-phase coil applied: exp(i alpha) on the down branch
      psi_bell (|up,E+> + exp(i (2 omega1 t - alpha)) |down,E->)/sqrt(2)
      psi2     (|up,E+> + exp(i (alpha + omega_m t)) |down,E->)/sqrt(2)
      psi3     analyzer applied and spin rotated onto up:
               (|E+> + exp(i (alpha + omega_m t)) |E->) |up> / 2, squared norm
               1/2 (half the beam transmits on average)

    Global phases are dropped throughout.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    r = 1.0 / math.sqrt(2.0)
    omega_m = mieze_frequency(cfg)
    psi0 = SpinEnergyState([r, 0.0, r, 0.0])
    psi1 = SpinEnergyState([r, 0.0, r * np.exp(1j * alpha), 0.0])
    psi_bell = SpinEnergyState(
        [r, 0.0, 0.0, r * np.exp(1j * (2.0 * cfg.omega1 * t - alpha))]
    )
    phase2 = np.exp(1j * (alpha + omega_m * t))
    psi2 = SpinEnergyState([r, 0.0, 0.0, r * phase2])
    psi3 = SpinEnergyState([0.5, 0.5 * phase2, 0.0, 0.0])
    return [psi0, psi1, psi_bell, psi2, psi3]


def ideal_intensity(cfg: BeamlineConfig, alpha: float, gamma: float, t: float) -> float:
    """Expected relative intensity A (1 + C cos(alpha + gamma + omega_m t))."""
    for name, v in (("alpha", alpha), ("gamma", gamma), ("t", t)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    omega_m = mieze_frequency(cfg)
    return cfg.mean_level * (
        1.0 + cfg.contrast * math.cos(alpha + gamma + omega_m * t)
    )
