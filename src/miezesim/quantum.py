"""Two-qubit algebra for the spin (x) energy degrees of freedom of a neutron.

Conventions
-----------
* The joint Hilbert space is spanned by the product basis, ordered spin-major:

      index 0: |up,   E+>
      index 1: |up,   E->
      index 2: |down, E+>
      index 3: |down, E->

  so ``amplitudes[2*s + e]`` addresses spin s (0 = up, 1 = down) and energy
  sideband e (0 = E+, 1 = E-).
* Measurement directions lie in the equatorial plane of each Bloch sphere:
  ``sigma(theta) = cos(theta) sx + sin(theta) sy``, with eigenvalues +-1.
* The projector onto the +1 eigenvector is ``P(theta) = (I + sigma(theta))/2``,
  i.e. onto ``(|0> + exp(i theta)|1>)/sqrt(2)``.
* ``<sigma(alpha) (x) sigma(gamma)>`` couples only |up,E+> <-> |down,E-> and
  |up,E-> <-> |down,E+>, so it is real in the closed form
  ``E = 2 Re(a0* a3 exp(-i(alpha + gamma)) + a1* a2 exp(-i(alpha - gamma)))``.
* ``CLASSICAL_BOUND = 2`` and ``TSIRELSON_BOUND = 2*sqrt(2)`` split witness
  values into classical / quantum / unphysical, boundaries inclusive downwards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDataError

Array = np.ndarray

__all__ = [
    "CLASSICAL_BOUND",
    "TSIRELSON_BOUND",
    "Subsystem",
    "ObservableAngle",
    "WitnessSettings",
    "SpinEnergyState",
    "observable",
    "projector",
    "joint_expectation",
    "chsh_value",
    "optimal_settings",
    "classify",
    "expectation_from_counts",
    "bell_state",
    "product_state",
]

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_NORM_TOL = 1e-9


class Subsystem(str, Enum):
    SPIN = "spin"
    ENERGY = "energy"


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return theta


@dataclass(frozen=True)
class ObservableAngle:
    """A measurement direction: equatorial angle plus the subsystem it acts on."""

    angle: float
    subsystem: Subsystem = Subsystem.SPIN

    def __post_init__(self) -> None:
        _check_angle(self.angle)


@dataclass(frozen=True)
class WitnessSettings:
    """The two spin angles and two energy angles entering the CHSH sum."""

    alpha1: float
    alpha2: float
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "gamma1", "gamma2"):
            _check_angle(getattr(self, name))


def optimal_settings(alpha1: float = 0.0) -> WitnessSettings:
    """Settings that maximise the witness on the ideal zero-phase Bell state.

    They satisfy alpha1 + gamma1 = -pi/4 and alpha2 - alpha1 = gamma2 - gamma1
    = pi/2; ``alpha1`` fixes the remaining gauge freedom.
    """
    alpha1 = _check_angle(alpha1)
    return WitnessSettings(
        alpha1=alpha1,
        alpha2=alpha1 + math.pi / 2.0,
        gamma1=-math.pi / 4.0 - alpha1,
        gamma2=math.pi / 4.0 - alpha1,
    )


class SpinEnergyState:
    """A (not necessarily normalized) vector in the 4-dim spin (x) energy space.

    States are value objects: operations return new instances.  The squared
    norm may be below one (projections lose flux) but never above.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        n2 = float(np.vdot(amps, amps).real)
        if n2 > 1.0 + 1e-12:
            raise ValueError(f"squared norm {n2!r} exceeds 1")
        self._amps = amps
        self._amps.setflags(write=False)

    @property
    def amplitudes(self) -> Array:
        return self._amps

    def norm_squared(self) -> float:
        return float(np.vdot(self._amps, self._amps).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "SpinEnergyState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SpinEnergyState(self._amps / n)

    def density_matrix(self) -> Array:
        return np.outer(self._amps, self._amps.conj())

    def project(self, angle: "ObservableAngle") -> "SpinEnergyState":
        """Apply the +1 projector of ``sigma(angle)`` on the given subsystem.

        The result is generally unnormalized; its norm never exceeds the
        input norm.
        """
        p = projector(angle.angle)
        if angle.subsystem is Subsystem.SPIN:
            op = np.kron(p, np.eye(2))
        else:
            op = np.kron(np.eye(2), p)
        return SpinEnergyState(op @ self._amps)

    def equals_up_to_phase(self, other: "SpinEnergyState", tol: float = 1e-9) -> bool:
        """True when the two vectors differ only by a global phase."""
        a, b = self._amps, other._amps
        na, nb = self.norm(), other.norm()
        if abs(na - nb) > tol:
            return False
        if na < tol and nb < tol:
            return True
        overlap = np.vdot(a, b)
        return abs(abs(overlap) - na * nb) <= tol * max(1.0, na * nb)

    def __repr__(self) -> str:
        return f"SpinEnergyState({np.array2string(self._amps, precision=6)})"


def bell_state(phase: float = 0.0) -> SpinEnergyState:
    """(|up,E+> + exp(i phase) |down,E->)/sqrt(2)."""
    phase = _check_angle(phase)
    r = 1.0 / math.sqrt(2.0)
    return SpinEnergyState([r, 0.0, 0.0, r * np.exp(1j * phase)])


def product_state(spin: Array | list, energy: Array | list) -> SpinEnergyState:
    """Tensor product of separate spin and energy 2-vectors (normalized)."""
    s = np.asarray(spin, dtype=complex)
    e = np.asarray(energy, dtype=complex)
    if s.shape != (2,) or e.shape != (2,):
        raise ValueError("spin and energy parts must each have 2 amplitudes")
    v = np.kron(s, e)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return SpinEnergyState(v / n)


def observable(angle: "ObservableAngle | float") -> Array:
    """Equatorial spin-1/2 observable cos(theta) sx + sin(theta) sy as a 2x2 matrix."""
    theta = angle.angle if isinstance(angle, ObservableAngle) else angle
    theta = _check_angle(theta)
    return np.array(
        [[0.0, np.exp(-1j * theta)], [np.exp(1j * theta), 0.0]], dtype=complex
    )


def projector(angle: "ObservableAngle | float") -> Array:
    """Projector onto the +1 eigenvector of ``observable(angle)``."""
    return 0.5 * (np.eye(2, dtype=complex) + observable(angle))


def _pair_products(state: SpinEnergyState) -> tuple[complex, complex]:
    if abs(state.norm() - 1.0) > _NORM_TOL:
        raise ValueError(f"state must be normalized (norm {state.norm()!r}); "
                         "call .normalized() first")
    a0, a1, a2, a3 = state.amplitudes.tolist()
    return a0.conjugate() * a3, a1.conjugate() * a2


def _expectation(p03: complex, p12: complex, alpha: float, gamma: float) -> float:
    val = p03 * cmath.exp(-1j * (alpha + gamma)) + p12 * cmath.exp(-1j * (alpha - gamma))
    return min(1.0, max(-1.0, 2.0 * val.real))


def joint_expectation(state: SpinEnergyState, alpha: float, gamma: float) -> float:
    """<sigma_spin(alpha) (x) sigma_energy(gamma)> on a normalized state.

    Raises ValueError when the state norm is not within 1e-9 of one.  The
    returned value is clamped to [-1, 1].
    """
    alpha, gamma = _check_angle(alpha), _check_angle(gamma)
    return _expectation(*_pair_products(state), alpha, gamma)


def chsh_value(state: SpinEnergyState, settings: WitnessSettings) -> float:
    """CHSH combination E(a1,g1) + E(a1,g2) + E(a2,g1) - E(a2,g2)."""
    a1, a2, g1, g2 = map(_check_angle, (settings.alpha1, settings.alpha2,
                                        settings.gamma1, settings.gamma2))
    p03, p12 = _pair_products(state)
    return (_expectation(p03, p12, a1, g1) + _expectation(p03, p12, a1, g2)
            + _expectation(p03, p12, a2, g1) - _expectation(p03, p12, a2, g2))


def classify(s_value: float) -> str:
    """'classical' (|S| <= 2), 'quantum' (2 < |S| <= 2*sqrt(2)), else 'unphysical'.

    Thresholds are exact; no tolerance is applied.
    """
    a = abs(float(s_value))
    if not math.isfinite(a):
        raise ValueError(f"witness value must be finite, got {s_value!r}")
    if a <= CLASSICAL_BOUND:
        return "classical"
    if a <= TSIRELSON_BOUND:
        return "quantum"
    return "unphysical"


def expectation_from_counts(counts: dict[tuple[int, int], float]) -> float:
    """Correlation estimate from four projective count rates.

    ``counts[(k, l)]`` is the rate measured with the spin analyzer at
    alpha + k*pi and the energy analyzer at gamma + l*pi, k, l in {0, 1}:

        E = sum_kl (-1)^(k+l) N_kl / sum_kl N_kl

    The estimate is scale invariant; counts must be non-negative and not all
    zero.
    """
    required = {(0, 0), (0, 1), (1, 0), (1, 1)}
    if set(counts) != required:
        raise ValueError(f"counts must have exactly the keys {sorted(required)}")
    vals = {}
    for key, n in counts.items():
        n = float(n)
        if not math.isfinite(n) or n < 0.0:
            raise ValueError(f"count for {key} must be finite and >= 0, got {n!r}")
        vals[key] = n
    total = sum(vals.values())
    if total == 0.0:
        raise DegenerateDataError("all four counts are zero")
    signed = sum(((-1.0) ** (k + l)) * n for (k, l), n in vals.items())
    return signed / total
