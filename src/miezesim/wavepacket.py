"""k-space wave-packet model of the beamline.

Each spin branch of the packet is represented over a common k grid by

    psi_b(z, t) = w_b * integral dk g(k - k0) exp(i [theta_b(k)
                  + (k + p_b(k)) z - (omega(k) + Omega_b) t])

where ``g`` is the packet amplitude, ``theta_b`` collects the static phases
accumulated at the elements (spin-phase coil, flipper transfer phases),
``p_b`` the momentum perturbations ``+- m omega / (hbar k)`` from the rf
flippers, and ``Omega_b`` the accumulated energy offsets ``+- omega``.

Position-space intensities are evaluated by trapezoidal quadrature of the
oscillatory integral over a window of planes.  The sum is an entire
function of the plane, so a window with more planes than the Chebyshev
terms its phase reach needs is summed from its Chebyshev series at every
plane, instead of a phasor per plane and k sample; any other window is
summed directly, as one complex matrix-vector product per k sum.  The
series coefficients are Jacobi-Anger sums of Bessel values, which Miller's
backward recurrence gives by arithmetic alone, and the Chebyshev
polynomials at every plane come from their three-term recurrence, so the
window takes K complex exponentials and one real table of N + 1 values
per plane instead of a complex phasor row per plane.  The two spin
branches share their window, so they are summed as one stack: one degree,
from the larger of their phase reaches, one Bessel recurrence over both
branches' k values, and one table.
The dispersion relation is linearized about k0,
``omega(k) ~= omega(k0) + v (k - k0)`` with ``v = hbar k0 / m``:
the dropped quadratic term is common to both spin branches, so every
relative phase, every branch separation and every contrast value is
unaffected, while the integrand stays resolvable on a fixed grid.  (The
packet keeps its intrinsic width instead of chromatically spreading;
interference physics is measured against the intrinsic coherence length,
which is exactly the comparison the envelope makes.)  A resolution guard
raises rather than return an aliased quadrature whenever the
integrand phase advances by more than pi/4 between adjacent grid samples.
That phase is affine in z for every k, so over a window of planes its
largest step is reached at one of the two end planes; the guard checks those
two and gets the verdict of the whole window.

Two detection pictures are exposed:

* ``position_intensity`` is a single-packet snapshot: the packet center was
  launched from z = 0 at t = 0 and the field is evaluated coherently over k
  at lab coordinates (z, t).  Use it to inspect the packet structure (branch
  peaks, separations, overlap).
* ``detected_intensity`` models the continuous stationary beam feeding the
  time-channel histogram.  A steady beam's ensemble is diagonal in k, so the
  analyzer's interference term pairs the two spin branches at the same k,

      I(z, t) = 1/2 integral dk |g|^2 |w_u e^{i phi_u(k, z)}
                + e^{-i theta_a} w_d e^{i phi_d(k, z)}|^2

  with each branch's beat factor e^{-i Omega_b t} attached at the detection
  time.  The modulation contrast is then the |g|^2-weighted average of the
  branch-relative phase — the quantity the echo envelope measures.  (The
  per-branch k-coherent integrals of the snapshot picture would instead
  dephase symmetrically and cancel out of the visibility.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .beamline import BeamlineConfig, focusing_distance
from .constants import CODATA2018
from .errors import ConfigError, ResolutionError, bounded_repr, integer_in_range

Array = np.ndarray

__all__ = [
    "PacketShape",
    "WavePacketSpec",
    "PacketState",
    "CoherenceCheck",
    "spec_from_beamline",
    "k_distribution",
    "coherence_length",
    "initial_state",
    "apply_spin_phase_k",
    "apply_rf_flipper",
    "pipeline_packet_state",
    "branch_intensities",
    "position_intensity",
    "detected_intensity",
    "stationary_peak_positions",
    "contrast_envelope",
    "coherence_check",
]

_MAX_PHASE_STEP = math.pi / 4.0
_MAX_SAMPLES = 2**20
# Chebyshev terms are kept down to this fraction of sum|weights|.
_CHEBYSHEV_TAIL = 1e-18
# Miller's recurrence starts this many orders above the degree and rescales
# every this many orders.
_MILLER_START = 8
_MILLER_RESCALE = 8
# Signs of a branch-symmetric shift, as a column against the (up, down) stack.
_UP_DOWN = np.array([[-1.0], [1.0]])


class PacketShape(str, Enum):
    GAUSSIAN = "gaussian"
    TRIANGULAR = "triangular"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class WavePacketSpec:
    """Packet shape and k-grid description.

    shape        one of gaussian / triangular / rectangular
    k0           rad/m, nominal wavenumber 2 pi / lambda
    bandwidth    FWHM fractional bandwidth delta lambda / lambda of the
                 wavelength (intensity) distribution; triangular and
                 rectangular shapes read it as the full base width instead
    kappa        intrinsic-coherence scale factor, >= 1
    n_samples    k-grid samples, an integer from 64 to 2**20
    half_span    half-width of the grid in units of the shape's width scale
                 (sigma for gaussian, half-base for the compact shapes)
    """

    shape: PacketShape = PacketShape.GAUSSIAN
    k0: float = 0.0
    bandwidth: float = 0.0
    kappa: float = 1.0
    n_samples: int = 4096
    half_span: float = 8.0

    def __post_init__(self) -> None:
        shape = PacketShape(self.shape)
        object.__setattr__(self, "shape", shape)
        if not (self.k0 > 0.0 and math.isfinite(self.k0)):
            raise ConfigError(f"k0 must be positive, got {self.k0!r}")
        if not (0.0 < self.bandwidth < 1.0):
            raise ConfigError(f"bandwidth must be in (0, 1), got {self.bandwidth!r}")
        if not (self.kappa >= 1.0 and math.isfinite(self.kappa)):
            raise ConfigError(f"kappa must be >= 1, got {self.kappa!r}")
        object.__setattr__(self, "n_samples", integer_in_range(
            self.n_samples, 64, _MAX_SAMPLES,
            "n_samples must be an integer in [64, 2**20], got {}"))
        min_span = 4.0 if shape is PacketShape.GAUSSIAN else 1.0
        if not (self.half_span >= min_span):
            raise ConfigError(
                f"half_span must be >= {min_span} for shape {shape.value}, got {self.half_span!r}"
            )

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.k0

    @property
    def velocity(self) -> float:
        """Group velocity hbar k0 / m at the packet center, m/s."""
        return CODATA2018.hbar * self.k0 / CODATA2018.neutron_mass

    @property
    def width_scale(self) -> float:
        """Shape width parameter in k (sigma for gaussian, half-base otherwise)."""
        dk = self.k0 * self.bandwidth
        if self.shape is PacketShape.GAUSSIAN:
            return dk / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return dk / 2.0


def spec_from_beamline(cfg: BeamlineConfig, **options) -> WavePacketSpec:
    """Packet spec matching a beamline config's wavelength and bandwidth.

    ``options`` are the other ``WavePacketSpec`` fields; omitted ones keep
    the dataclass defaults.
    """
    return WavePacketSpec(k0=cfg.k0, bandwidth=cfg.bandwidth, **options)


def k_distribution(spec: WavePacketSpec) -> tuple[Array, Array]:
    """Grid and amplitude (k, g) with the intensity normalized: sum |g|^2 dk = 1."""
    w = spec.width_scale
    k = spec.k0 + np.linspace(-spec.half_span * w, spec.half_span * w, spec.n_samples)
    x = k - spec.k0
    if spec.shape is PacketShape.GAUSSIAN:
        g = np.exp(-(x**2) / (4.0 * w**2))
    elif spec.shape is PacketShape.TRIANGULAR:
        g = np.sqrt(np.clip(1.0 - np.abs(x) / w, 0.0, None))
    else:
        g = np.where(np.abs(x) <= w * (1.0 + 1e-12), 1.0, 0.0)
    norm = np.trapezoid(g * g, k)
    if norm <= 0.0:
        raise ConfigError("packet amplitude vanishes on the grid")
    g = g / math.sqrt(norm)
    g.setflags(write=False)
    k.setflags(write=False)
    return k, g


def coherence_length(spec: WavePacketSpec) -> float:
    """Longitudinal coherence length beta_l = lambda^2 / delta lambda, m."""
    return spec.wavelength / spec.bandwidth


@dataclass(frozen=True)
class PacketState:
    """Immutable two-branch packet over a k grid; see module docstring.

    The branches are stacked (up, down) on axis 0: ``weights`` w_b (2,),
    ``theta`` theta_b(k) (2, K), ``p`` p_b(k) (2, K) and ``omega`` Omega_b (2,).
    Each stack is held as a read-only view, so states that share an array
    cannot change each other, and the caller's own array stays writable.
    """

    spec: WavePacketSpec
    k: Array
    g: Array
    weights: Array
    theta: Array
    p: Array
    omega: Array

    def __post_init__(self) -> None:
        for name in ("weights", "theta", "p", "omega"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def norm_squared(self) -> float:
        """Summed branch populations (|w_up|^2 + |w_down|^2) integral |g|^2 dk."""
        total = float(np.trapezoid(self.g**2, self.k))
        return sum(abs(w) ** 2 for w in self.weights.tolist()) * total


def initial_state(spec: WavePacketSpec) -> PacketState:
    """Unpolarized-in-x source packet: equal up/down weights, no phases."""
    k, g = k_distribution(spec)
    return PacketState(spec=spec, k=k, g=g, weights=np.full(2, complex(1.0 / math.sqrt(2.0))),
                       theta=np.zeros((2, k.size)), p=np.zeros((2, k.size)), omega=np.zeros(2))


def apply_spin_phase_k(state: PacketState, field_integral: float) -> PacketState:
    """Spin-phase coil: phase exp(-+ i alpha(k)/2) on the up/down branches.

    alpha(k) = m gamma_n BL / (hbar k), the k-resolved Larmor phase.
    """
    if not math.isfinite(field_integral):
        raise ValueError(f"field integral must be finite, got {field_integral!r}")
    alpha_k = (CODATA2018.neutron_mass * CODATA2018.gyromagnetic_ratio * field_integral
               / (CODATA2018.hbar * state.k))
    return replace(state, theta=state.theta + _UP_DOWN * (alpha_k / 2.0))


def apply_rf_flipper(state: PacketState, omega: float, z_flipper: float) -> PacketState:
    """rf flipper at position ``z_flipper`` driven at angular frequency ``omega``.

    Swaps the spin branches; the branch flipped up gains energy hbar*omega
    and momentum m*omega/(hbar k), the branch flipped down loses both.  The
    transfer phase (k_in - k_out) * z_flipper keeps the maps consistent for
    flippers placed anywhere along the axis.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive, got {omega!r}")
    if not math.isfinite(z_flipper):
        raise ValueError(f"z_flipper must be finite, got {z_flipper!r}")
    dp = CODATA2018.neutron_mass * omega / (CODATA2018.hbar * state.k)
    # incoming down branch becomes up (energy raised), incoming up becomes down
    return replace(state, weights=state.weights[::-1],
                   theta=state.theta[::-1] + _UP_DOWN * (dp * z_flipper),
                   p=state.p[::-1] - _UP_DOWN * dp,
                   omega=state.omega[::-1] - _UP_DOWN[:, 0] * omega)


def pipeline_packet_state(cfg: BeamlineConfig, spec: WavePacketSpec,
                          coil_field_integral: float = 0.0) -> PacketState:
    """Packet after coil -> RF1 (z=0) -> RF2 (z=L1), ready for detection."""
    state = initial_state(spec)
    state = apply_spin_phase_k(state, coil_field_integral)
    state = apply_rf_flipper(state, cfg.omega1, 0.0)
    state = apply_rf_flipper(state, cfg.omega2, cfg.l1)
    return state


def _guard(offset: Array, slope: Array, planes: Array, label: str) -> None:
    """Check that the phase ``offset + slope * planes`` is finite and resolved by the k grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = offset + slope * planes
        step = np.max(np.abs(np.diff(phase, axis=-1)))
    if not np.all(np.isfinite(phase)):
        raise ResolutionError(
            f"integrand phase overflows on the {label} branch; move the evaluation point"
        )
    if not step <= _MAX_PHASE_STEP:
        raise ResolutionError(
            f"integrand phase advances {step:.3g} rad per grid step on the "
            f"{label} branch (limit {_MAX_PHASE_STEP:.3g}); refine the k grid "
            "or move the evaluation point"
        )


def _z_values(z, t: float) -> Array:
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array")
    if not np.all(np.isfinite(z_arr)) or not math.isfinite(t):
        raise ValueError("z and t must be finite")
    return z_arr


def _phasors(u: Array, slope: Array, offset) -> Array:
    """e^{i(offset + slope u)} as a (u.size, K) complex array, built in place."""
    out = np.empty((u.size, slope.size), dtype=complex)
    np.multiply.outer(u, slope, out=out.imag)
    out.imag += offset
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _direct_sum(weights: Array, offset: Array, slope: Array, u: Array) -> Array:
    """sum_k weights e^{i(offset + slope u)} at each u, one phasor row per plane.

    ``offset`` and ``slope`` are (B, K) stacks, which give (B, Z) one row at a
    time, each against the one (K,) ``weights``.
    """
    # einsum, not @: threaded BLAS gemv can stall for ms on few-plane windows
    return np.array([np.einsum("zk,k->z", _phasors(u, row_slope, row_offset), weights)
                     for row_offset, row_slope in zip(offset, slope)])


def _bessel_orders(a: Array, degree: int) -> Array:
    """J_0(a_k) ... J_degree(a_k) as a (degree + 1, a.size) array, by Miller's recurrence.

    J_{n-1} = (2n / a) J_n - J_{n+1} is run downward from J_{N+9} = 0,
    J_{N+8} = 1 with N = ``degree``, and the result is normalised by the
    identity J_0 + 2 sum_m J_2m = 1.  Every ``_MILLER_RESCALE`` orders the
    running pair is rescaled to magnitude 1, so that a small |a|, where the
    values grow by about 2n / |a| an order, cannot overflow; the orders above
    a rescale take its factor at the end, and orders that fall below the
    smallest double there are zero.  For |a| < 1e-9, J_0 = 1, J_1 = a / 2 and
    the higher orders are 0, each within 2.5e-19 of the true value.  Negating
    a negates the odd orders exactly.  With the degree the Chebyshev tail rule
    picks for max|a| (see ``_chebyshev_k_sum``), the start lies far enough
    past every |a| that each J_n is within 3e-15 of the true value for
    max|a| up to 90.
    """
    tiny = np.abs(a) < 1e-9
    two_over_a = 2.0 / np.where(tiny, 1.0, a)
    top = degree + _MILLER_START
    table = np.empty((top + 2, a.size))  # J_0 ... J_{top+1}, up to the rescales' factors
    table[top + 1], table[top] = 0.0, 1.0
    evens = np.zeros(a.size)  # the even orders >= 2 computed so far, summed
    rescales = []  # (order, factor): that order and every lower one carry the factor
    for n in range(top, 0, -1):
        above, here, below = table[n + 1], table[n], table[n - 1]
        np.multiply(two_over_a, here, out=below)
        below *= n
        below -= above
        if n % _MILLER_RESCALE == 0:
            factor = 1.0 / np.maximum(np.abs(below), np.abs(here))
            below *= factor
            here *= factor
            evens *= factor
            rescales.append((n, factor))
        if n % 2 and n > 1:
            evens += below
    out = table[:degree + 1]
    # each order takes the factors of the rescales below it, and 1 / (J_0 + 2 sum J_2m)
    scale = 1.0 / (out[0] + 2.0 * evens)
    start = 0
    for order, factor in reversed(rescales):
        out[start:order + 1] *= scale
        scale = scale * factor
        start = order + 1
    out[start:] *= scale
    out[:, tiny] = 0.0
    out[0, tiny], out[1, tiny] = 1.0, a[tiny] / 2.0
    return out


def _chebyshev_k_sum(weights: Array, offset: Array, slope: Array, u: Array) -> Array | None:
    """sum_k weights e^{i(offset + slope u)} at each u, from its Chebyshev series.

    ``offset`` and ``slope`` are (K,) for one sum, which gives (Z,), or
    (B, K) for a stack of B sums over the same window, which gives (B, Z);
    ``weights`` broadcasts against them.  None, for the direct sum, when the
    window is of zero or non-finite width or needs as many Chebyshev terms
    as it has planes.  The planes may come in any order and at any spacing:
    the series holds anywhere inside the window.

    With mid and h the window's centre and half-width, u = mid + h x maps it
    onto x in [-1, 1], where the sum is F(x) = sum_k V_k e^{i a_k x} with
    V_k = weights e^{i(offset + slope mid)} and a_k = slope h.  By
    Jacobi-Anger F = sum_n c_n T_n(x), c_n = e_n i^n sum_k V_k J_n(a_k)
    (e_0 = 1, e_n = 2), and |J_n(a)| <= (|a|/2)^n / n!.  With the reach
    A = max|a_k|, the largest over every row of a stack, the degree N is the
    least with (A/2)^(N+1) / (N+1)! below ``_CHEBYSHEV_TAIL`` (1e-18).  Past
    N + 1, which then exceeds e A/2, each bound is under 1/e of the one
    before, so the dropped terms sum to less than 2 * 1e-18 / (1 - 1/e)
    < 3.2e-18 of sum|V|, in every row.

    The series is summed at every plane from one table of T_0 ... T_N at
    each plane's x, by T_0 = 1, T_1 = x and T_n = 2x T_{n-1} - T_{n-2}
    (Trefethen, Approximation Theory and Approximation Practice, 2013), and
    one real product of that table with the coefficients of every row.  No
    plane is a special case.

    The rounding of the kept terms dominates.  J_0 ... J_N come from Miller's
    backward recurrence (``_bessel_orders``), one run over the B K values of
    a_k, arithmetic only, each within 3e-15 of the true value for A up to
    90; so each c_n is within e_n * 3e-15 of sum|V|.  The T_n recurrence is
    exact at x = 0 and +-1, and near +-1 it can amplify rounding by up to
    about n^2, most at the high orders, where the c_n have fallen off.
    Those errors vary in sign over n and k: measured against the direct sum,
    F stays within 7e-15 sum|V| on criterion 6's 1201-plane transport
    windows and within 5e-15 sum|V| on 200 drawn windows of reach up to 90,
    about the direct sum's own rounding from phases of up to hundreds of
    rad.  A transport window (A ~ 12) needs degree 40, so 49 orders of
    Bessel recurrence over 4096 k and 4096 complex exponentials per row, and
    a table of 41 real values per plane, instead of a complex phasor per
    plane and k.
    """
    n = u.size
    low, high = float(u.min()), float(u.max())  # Python floats overflow to inf silently
    mid, half = 0.5 * (low + high), 0.5 * (high - low)
    reach = float(np.max(np.abs(slope))) * half
    if not (half > 0.0 and math.isfinite(mid) and math.isfinite(reach)):
        return None
    terms, bound = 1, reach / 2.0  # bound = (A/2)^terms / terms!
    while bound >= _CHEBYSHEV_TAIL and terms < n:
        terms += 1
        bound *= reach / 2.0 / terms
    degree = max(terms - 1, 1)
    if degree + 1 >= n:
        return None
    offsets, slopes = np.atleast_2d(offset, slope)
    rows = slopes.shape[0]
    v = weights * np.exp(1j * (offsets + slopes * mid))
    bessel = _bessel_orders((slopes * half).ravel(), degree).reshape(degree + 1, rows, -1)
    # each row's J_n against its V as (re, im) pairs, a real product: real x complex
    # would cast the table; then sum_k V_k J_n(a_k) as (N + 1, B) complex
    pairs = np.matmul(bessel.transpose(1, 0, 2), v.view(float).reshape(rows, -1, 2))
    coeffs = np.ascontiguousarray(pairs.transpose(1, 0, 2)).view(complex)[..., 0]
    coeffs *= np.array([1.0, 1j, -1.0, -1j])[np.arange(degree + 1) % 4, None]
    coeffs[1:] *= 2.0
    # T_0 ... T_N at every plane, by T_n = 2x T_{n-1} - T_{n-2}
    x = (u - mid) / half
    table = np.empty((degree + 1, n))
    table[0], table[1] = 1.0, x
    two_x = 2.0 * x
    for order in range(2, degree + 1):
        np.multiply(two_x, table[order - 1], out=table[order])
        table[order] -= table[order - 2]
    out = (table.T @ coeffs.view(float)).view(complex).T
    return out if np.ndim(slope) == 2 else out[0]


def _k_integral(state: PacketState, amp: Array, offset: Array, slope: Array,
                u: Array, labels: tuple[str, ...]) -> Array:
    """Trapezoid integrals of amp e^{i(offset + slope u)} dk at each u; guarded at u's ends.

    ``offset`` and ``slope`` are (B, K) stacks, which give (B, Z); each row
    is guarded in turn under its entry of ``labels``.  A window with more
    planes than the Chebyshev terms its phase reach needs is summed from its
    Chebyshev series at every plane, all rows in one pass (see
    ``_chebyshev_k_sum``, which states the error bound).  Any other window,
    such as an envelope's few offsets, takes the direct Z x K quadrature.
    """
    if not u.size:
        return np.zeros((len(slope), 0), dtype=complex)
    ends = np.array([[u.min()], [u.max()]])
    for row_offset, row_slope, label in zip(offset, slope, labels):
        _guard(row_offset, row_slope, ends, label)
    half = np.diff(state.k) / 2.0
    weights = amp * (np.r_[half, 0.0] + np.r_[0.0, half])
    series = _chebyshev_k_sum(weights, offset, slope, u)
    if series is not None:
        return series
    return _direct_sum(weights, offset, slope, u)


def _branch_fields(state: PacketState, z, t: float) -> tuple[Array, Array]:
    """Snapshot complex fields (up, down) at positions z; z scalar or 1-d.

    The two branches are one (2, K) stack of k integrals, so they share the
    window's Chebyshev pass.
    """
    # theta + p z + (k - k0)(z - v t) in the small packet-frame u = z - v t;
    # expanding (p + k - k0) z instead would cancel terms of up to ~5e7 rad.
    v_t = state.spec.velocity * t
    u = _z_values(z, t) - v_t
    fields = _k_integral(state, state.g, state.theta + state.p * v_t,
                         state.p + (state.k - state.spec.k0), u, ("up", "down"))
    return tuple(w * np.exp(-1j * omega * t) * field for w, omega, field
                 in zip(state.weights.tolist(), state.omega.tolist(), fields))


def _shaped_like(z, out: Array):
    """``out`` for an array ``z``; its single value as a float for a scalar ``z``."""
    return out if np.ndim(z) else float(out[0])


def branch_intensities(state: PacketState, z, t: float):
    """Snapshot |psi_up|^2 and |psi_down|^2 at (z, t); z a scalar or 1-d array."""
    up, down = _branch_fields(state, z, t)
    return _shaped_like(z, np.abs(up) ** 2), _shaped_like(z, np.abs(down) ** 2)


def position_intensity(state: PacketState, z, t: float,
                       spin_projection: float | None = None):
    """Snapshot intensity |<z|P|psi(t)>|^2 for a packet launched from z=0 at t=0.

    ``z`` is a scalar or 1-d array.  With ``spin_projection`` set, the
    spinor is projected onto (|up> + exp(i theta)|down>)/sqrt(2) first (the
    analyzer); otherwise the two branch intensities are summed.
    """
    if spin_projection is not None and not math.isfinite(spin_projection):
        raise ValueError("spin projection angle must be finite")
    up, down = _branch_fields(state, z, t)
    if spin_projection is None:
        return _shaped_like(z, np.abs(up) ** 2 + np.abs(down) ** 2)
    amp = (up + np.exp(-1j * spin_projection) * down) / math.sqrt(2.0)
    return _shaped_like(z, np.abs(amp) ** 2)


def _cross_term(state: PacketState, z: Array) -> Array:
    """|g|^2-weighted integral of the branch-relative phasor at each plane of ``z``.

    This is the time-independent factor of the analyzer's interference term.
    The relative phase is affine in z, so the resolution guard checks the
    two end planes of the window, where its k step is largest.
    """
    return _k_integral(state, state.g**2, np.diff(state.theta, axis=0),
                       np.diff(state.p, axis=0), z, ("relative",))[0]


def detected_intensity(state: PacketState, z, t: float,
                       spin_projection: float | None = None):
    """Stationary-beam intensity at plane z for neutrons detected at time t.

    ``z`` is a scalar or 1-d array.  The beam ensemble is k-diagonal, so the
    analyzer's interference term averages the branch-relative phase over the
    |g|^2 distribution (see the module docstring); the result carries the
    full beat modulation in t.  Without a ``spin_projection`` the beam shows
    no modulation at all and the branch populations are simply summed.
    """
    z_arr = _z_values(z, t)
    populations = state.norm_squared()
    if spin_projection is None:
        return _shaped_like(z, np.full(z_arr.size, populations))
    if not math.isfinite(spin_projection):
        raise ValueError("spin projection angle must be finite")
    cross = _cross_term(state, z_arr)
    (up, down), omega = state.weights.tolist(), state.omega.tolist()
    beat = np.conj(up) * down * np.exp(-1j * ((omega[1] - omega[0]) * t + spin_projection))
    return _shaped_like(z, 0.5 * populations + np.real(beat * cross))


def stationary_peak_positions(state: PacketState, t: float) -> tuple[float, float]:
    """First-order stationary-phase peak positions (z_up, z_down) at time t.

    Solves d/dk [theta_b + (k + p_b) z - omega(k) t] = 0 at k0 for each
    branch using numerical derivatives of the stored phase arrays.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    v = state.spec.velocity
    idx = int(np.argmin(np.abs(state.k - state.spec.k0)))
    return tuple((v * t - np.gradient(state.theta, state.k, axis=1)[:, idx])
                 / (1.0 + np.gradient(state.p, state.k, axis=1)[:, idx]))


def contrast_envelope(cfg: BeamlineConfig, spec: WavePacketSpec,
                      delta_list) -> list[tuple[float, float]]:
    """Contrast of the detected time cosine at each detector offset.

    The packet is propagated through the two-flipper pipeline (no spin-phase
    coil).  At the focus plus each offset the detected signal is
    ``P/2 + Re(beat(t) * cross)`` (see :func:`detected_intensity`), where
    only the beat depends on t, so the modulation over mean is exactly
    ``2 |w_up w_down| |cross| / P``.  All offsets share one quadrature and
    the same resolution guard as ``detected_intensity``.
    """
    try:
        deltas = [float(delta) for delta in delta_list]
    except (TypeError, ValueError) as exc:
        raise ValueError("offsets must be a sequence of numbers, "
                         f"got {bounded_repr(delta_list)}") from exc
    if not all(map(math.isfinite, deltas)):
        raise ValueError(f"offsets must be finite, got {bounded_repr(delta_list)}")
    if not deltas:
        return []
    focus = cfg.l1 + focusing_distance(cfg, 0.0)
    state = pipeline_packet_state(cfg, spec)
    cross = _cross_term(state, _z_values(focus + np.array(deltas), 0.0))
    up, down = state.weights.tolist()
    weight = 2.0 * abs(up * down) / state.norm_squared()
    return list(zip(deltas, (weight * np.abs(cross)).tolist()))


@dataclass(frozen=True)
class CoherenceCheck:
    """Result of comparing an accumulated phase against the coherence bound."""

    satisfied: bool
    margin: float
    n_precessions: float
    n_limit: float


def coherence_check(phase: float, spec: WavePacketSpec) -> CoherenceCheck:
    """Check |phase|/2pi against the bound kappa (lambda/dlambda) / 10.

    The factor 10 encodes the 'much less than' of the coherence condition as
    one order of magnitude; ``margin`` > 1 means satisfied with room to
    spare.
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    n = abs(phase) / (2.0 * math.pi)
    n_limit = spec.kappa / (10.0 * spec.bandwidth)
    margin = math.inf if n == 0.0 else n_limit / n
    return CoherenceCheck(
        satisfied=n <= n_limit,
        margin=margin,
        n_precessions=n,
        n_limit=n_limit,
    )
