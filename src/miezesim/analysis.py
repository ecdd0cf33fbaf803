"""Fitting and witness extraction from counts data.

The analysis chain mirrors how beamline data are reduced:

1. ``fit_time_series`` fits one scan point's time channels with
   ``A + B cos(w_m t + phi)`` (Poisson weights).
2. ``fit_global`` fits intensity versus the combined phase ``alpha + gamma``
   across scan points with ``A + B cos(theta + phi0)``.
3. ``expectation_grid`` turns a fit into the four spin-energy correlations
   ``E(alpha_i, gamma_j) = C cos(alpha_i + gamma_j + phi0)``.
4. ``witness`` sums them into ``S = E11 + E12 + E21 - E22`` and classifies.

Three independent witness routes are provided and reported side by side
rather than collapsed: the primary global-fit route
(``analyze_records`` / ``witness_from_fit``), a per-point route that fits
every scan point's time series and pools the contrasts and phases
(``channel_fits_witness``), and a direct count-ratio route that picks the
recorded points nearest the requested analyzer settings
(``counts_witness``).  Agreement between them is a cross-check of the whole
reduction, so none of them reuses another's fitted numbers.

All fits share one closed-form engine, which fits a stack of rows in one
call.  The model is linear in ``(A, B cos phi, -B sin phi)``, so one weighted
solve of each row's ``[1, cos theta, sin theta]`` normal equations gives the
exact optimum.  ``B = hypot(c, s)`` is non-negative with the sign carried by
the phase; the (A, B, phi) covariance is the linear-parameter one mapped by
the delta method (Gauss-Newton for ``B > 0``), so the phase sigma grows
without bound as ``B`` tends to zero.  A row fails when its normal matrix is
singular to working precision (too few distinct phases), its amplitude is
exactly zero (no phase) or its mean level is not positive.  One-row fits and
the per-point route raise the first failure as ``FitError``; the bootstrap
counts failed resamples and drops them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .beamline import BeamlineConfig, _scan_phases
from .errors import ConfigError, DegenerateDataError, DiagnosticError, FitError, bounded_repr
from .quantum import (
    WitnessSettings,
    classify,
    expectation_from_counts,
)
from .synth import CountsRecord, _point_rng, _poisson_rows

Array = np.ndarray

__all__ = [
    "FitResult",
    "WitnessResult",
    "PointSample",
    "AnalysisReport",
    "BootstrapResult",
    "fit_global",
    "fit_time_series",
    "expectation_grid",
    "witness",
    "witness_from_fit",
    "witness_from_contrast",
    "single_channel_points",
    "channel_fits_witness",
    "counts_witness",
    "analyze_records",
    "bootstrap_uncertainty",
]

_SIGN_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class FitResult:
    """Cosine-fit parameters ``y = A + B cos(theta + phi0)`` with covariance.

    ``covariance`` is 3x3 over (mean_level, amplitude, phase); ``amplitude``
    is non-negative by convention with the sign folded into ``phase``.
    """

    mean_level: float
    amplitude: float
    phase: float
    covariance: Array
    chi_square: float
    dof: int

    def __post_init__(self) -> None:
        if not (self.mean_level > 0.0 and math.isfinite(self.mean_level)):
            raise FitError(f"fitted mean level must be positive, got {self.mean_level!r}")
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise FitError(f"fitted amplitude must be non-negative, got {self.amplitude!r}")
        if not math.isfinite(self.phase):
            raise FitError(f"fitted phase must be finite, got {self.phase!r}")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3) or not np.all(np.isfinite(cov)):
            raise FitError("covariance must be a finite 3x3 matrix")
        cov = cov.copy()
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        if not (self.chi_square >= 0.0 and math.isfinite(self.chi_square)):
            raise FitError(f"chi-square must be non-negative, got {self.chi_square!r}")
        if self.dof < 0:
            raise FitError(f"degrees of freedom must be >= 0, got {self.dof!r}")

    @property
    def contrast(self) -> float:
        return self.amplitude / self.mean_level

    @property
    def parameter_sigmas(self) -> tuple[float, float, float]:
        diag = np.clip(np.diag(self.covariance), 0.0, None)
        return tuple(float(s) for s in np.sqrt(diag))

    @property
    def contrast_sigma(self) -> float:
        grad = np.array([-self.amplitude / self.mean_level**2, 1.0 / self.mean_level, 0.0])
        var = float(grad @ self.covariance @ grad)
        return math.sqrt(max(var, 0.0))

    def model(self, theta) -> Array:
        return self.mean_level + self.amplitude * np.cos(np.asarray(theta) + self.phase)


@dataclass(frozen=True)
class WitnessResult:
    """Four correlations, their sum S, its uncertainty and classification."""

    e_matrix: Array
    e_sigma: Array
    s: float
    sigma_s: float
    classification: str

    def __post_init__(self) -> None:
        for name in ("e_matrix", "e_sigma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (2, 2) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 2x2 matrix")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not math.isfinite(self.s):
            raise ValueError(f"S must be finite, got {self.s!r}")
        if not (self.sigma_s >= 0.0 and math.isfinite(self.sigma_s)):
            raise ValueError(f"sigma_S must be non-negative, got {self.sigma_s!r}")


def _validate_xy(theta, y, sigma) -> tuple[Array, Array, Array]:
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if theta.ndim != 1 or theta.shape != y.shape or theta.shape != sigma.shape:
        raise FitError("phase, intensity and sigma arrays must be 1-d and equal length")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(y))):
        raise FitError("phase and intensity values must be finite")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
        raise FitError("sigma values must be positive and finite")
    return theta, y, sigma


class _CosineFits(NamedTuple):
    """Stacked fits named as in ``FitResult``; failed rows hold NaN, ``failures`` says why."""

    mean_level: Array
    amplitude: Array
    phase: Array
    covariance: Array
    chi_square: Array
    dof: int
    failures: dict[int, str]

    def one(self) -> FitResult:
        """The ``FitResult`` of a one-row fit, or its ``FitError``."""
        if self.failures:
            raise FitError(self.failures[0])
        a, b, phi, chi2 = (float(v[0]) for v in (*self[:3], self.chi_square))
        return FitResult(a, b, phi, self.covariance[0], chi2, self.dof)


def _fit_cosines(theta: Array, y: Array, sigma: Array) -> _CosineFits:
    """Fit y = A + B cos(theta + phi) to each (R, N) row of y, sigma; theta broadcasts."""
    basis = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=-1)
    design = basis / sigma[..., None]
    weighted_y = y / sigma
    normal = np.einsum("rni,rnj->rij", design, design)
    singular = np.linalg.matrix_rank(normal) < 3
    normal[singular] = np.eye(3)  # a solvable stand-in; these rows are reported failed
    coef = np.linalg.solve(normal, np.einsum("rni,rn->ri", design, weighted_y)[..., None])[..., 0]
    a, c, s = coef.T
    b = np.hypot(c, s)
    failed = singular | (b == 0.0) | ~(a > 0.0)
    failures = {
        row: ("fit design is singular: the phases do not determine a cosine "
              "(fewer than three distinct phases modulo 2 pi)" if singular[row]
              else "fitted amplitude is exactly zero: the phase is undefined" if b[row] == 0.0
              else f"fitted mean level must be positive, got {float(a[row])!r}")
        for row in np.flatnonzero(failed).tolist()
    }
    coef[failed] = b[failed] = np.nan
    resid = np.einsum("rni,ri->rn", design, coef) - weighted_y
    phase = np.arctan2(-s, c)
    phase[phase == -math.pi] = math.pi  # wrap to (-pi, pi]
    # (A, c, s) -> (A, B, phi) with c = B cos(phi), s = -B sin(phi)
    grad = np.zeros(normal.shape)
    grad[:, 0, 0] = 1.0
    grad[:, 1:, 1:] = np.moveaxis(np.array([[c / b, s / b], [s / b**2, -c / b**2]]), -1, 0)
    covariance = grad @ np.linalg.inv(normal) @ grad.transpose(0, 2, 1)
    chi_square = np.einsum("rn,rn->r", resid, resid)
    return _CosineFits(a, b, phase, covariance, chi_square, max(y.shape[-1] - 3, 0), failures)


def _poisson_sigma(counts):
    return np.sqrt(np.maximum(counts, 1.0))


def _fit_channels(counts: Array) -> _CosineFits:
    """Fit every row of a (P, n) counts table over its channels t_i = i T / n."""
    n = counts.shape[-1]
    if n < 4:
        raise FitError(f"need at least 4 time channels, got {n}")
    fits = _fit_cosines(2.0 * math.pi * np.arange(n) / n, counts, _poisson_sigma(counts))
    if fits.failures:
        # An all-zero row fits to B = 0 exactly, so it is always among the failures.
        row = min(fits.failures)
        if not np.any(counts[row] > 0):
            raise DegenerateDataError("all-zero counts: nothing to fit")
        raise FitError(fits.failures[row])
    return fits


def fit_global(points) -> FitResult:
    """Fit ``intensity = A + B cos(phase + phi0)`` over (phase, intensity, sigma) points.

    Requires at least four points spanning more than pi of phase.
    """
    rows = list(points)
    if len(rows) < 4:
        raise FitError(f"need at least 4 points, got {len(rows)}")
    theta, y, sigma = _validate_xy(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    )
    span = float(np.max(theta) - np.min(theta))
    if span <= math.pi:
        raise FitError(
            f"insufficient phase coverage: span {span:.4g} rad, need more than pi"
        )
    return _fit_cosines(theta, y[None], sigma[None]).one()


def fit_time_series(record: CountsRecord, omega_m: float) -> FitResult:
    """Fit one scan point's time channels with ``A + B cos(w_m t + phi)``.

    Channels are the period-folded bins ``t_i = i T / n``; Poisson weighting
    uses ``sigma^2 = max(counts, 1)``.
    """
    if not (omega_m > 0.0 and math.isfinite(omega_m)):
        raise ValueError(f"omega_m must be positive, got {omega_m!r}")
    return _fit_channels(np.asarray(record.counts, dtype=float)[None]).one()


def _expectation_gradients(fit, settings: WitnessSettings):
    """E matrix, per-element gradients wrt (A, B, phi), per-element sigma; per row if stacked."""
    a, b, phi = (np.asarray(v)[..., None, None]
                 for v in (fit.mean_level, fit.amplitude, fit.phase))
    alphas, gammas = (settings.alpha1, settings.alpha2), (settings.gamma1, settings.gamma2)
    arg = np.add.outer(alphas, gammas) + phi
    c, s = np.cos(arg), np.sin(arg)
    e = (b / a) * c
    grads = np.stack([-b * c / a**2, c / a, -(b / a) * s], axis=-1)
    cov = np.asarray(fit.covariance)[..., None, None, :, :]
    var = np.einsum("...i,...ij,...j->...", grads, cov, grads)
    return e, grads, np.sqrt(np.maximum(var, 0.0))


def expectation_grid(fit: FitResult, settings: WitnessSettings) -> tuple[Array, Array]:
    """Correlations E(alpha_i, gamma_j) = C cos(alpha_i + gamma_j + phi0) and sigmas."""
    e, _, sig = _expectation_gradients(fit, settings)
    return e, sig


def witness(e_matrix, sigma_matrix=None) -> WitnessResult:
    """Combine four correlations into S = E11 + E12 + E21 - E22 and classify.

    ``sigma_matrix`` sigmas are combined in quadrature (treated independent);
    use ``witness_from_fit`` when the values share fit parameters.
    """
    e = np.asarray(e_matrix, dtype=float)
    if e.shape != (2, 2) or not np.all(np.isfinite(e)):
        raise ValueError("expected a finite 2x2 matrix of correlations")
    if sigma_matrix is None:
        sig = np.zeros((2, 2))
    else:
        sig = np.asarray(sigma_matrix, dtype=float)
        if sig.shape != (2, 2) or not np.all(np.isfinite(sig)) or np.any(sig < 0):
            raise ValueError("sigma matrix must be finite, non-negative and 2x2")
    s = float(np.sum(_SIGN_MATRIX * e))
    sigma_s = float(np.sqrt(np.sum(sig**2)))
    return WitnessResult(
        e_matrix=e, e_sigma=sig, s=s, sigma_s=sigma_s, classification=classify(s)
    )


def witness_from_fit(fit: FitResult, settings: WitnessSettings) -> WitnessResult:
    """Witness from a global fit, propagating the full parameter covariance.

    Unlike :func:`witness` on the separate sigmas, this accounts for the
    correlations the four E values inherit from sharing (A, B, phi0).
    """
    e, grads, sig = _expectation_gradients(fit, settings)
    s = float(np.sum(_SIGN_MATRIX * e))
    grad_s = np.tensordot(_SIGN_MATRIX, grads, axes=([0, 1], [0, 1]))
    var_s = float(grad_s @ fit.covariance @ grad_s)
    return WitnessResult(
        e_matrix=e,
        e_sigma=sig,
        s=s,
        sigma_s=math.sqrt(max(var_s, 0.0)),
        classification=classify(s),
    )


def witness_from_contrast(contrast: float) -> float:
    """Expected witness 2*sqrt(2)*C for a maximally entangled state at contrast C."""
    if not (0.0 <= contrast <= 1.0):
        raise ValueError(f"contrast must be in [0, 1], got {contrast!r}")
    return 2.0 * math.sqrt(2.0) * contrast


class _Scan:
    """A record set validated once: (P,) currents, spin phases and coordinates, (P, n) counts."""

    def __init__(self, cfg: BeamlineConfig, records, scan_kind: str) -> None:
        records = list(records)
        if not records:
            raise ConfigError("no records to analyze")
        if scan_kind not in ("offset", "detuning"):
            raise ConfigError(f"unknown scan kind {scan_kind!r}")
        widths = {len(rec.counts) for rec in records}
        if len(widths) != 1:
            raise ConfigError(f"inconsistent channel counts across points: {sorted(widths)}")
        self.cfg, self.scan_kind = cfg, scan_kind
        self.currents, self.coords = np.array([(rec.current, rec.coord) for rec in records]).T
        (n,) = widths
        # (P,) spin phases and (P, n) phases omega_m t + gamma of every channel at every point
        self.alphas, self.phases = _scan_phases(cfg, scan_kind, self.currents, self.coords, n)
        self.counts = np.array([rec.counts for rec in records], dtype=float)

    def channel_points(self, channel: int) -> tuple[Array, Array, Array]:
        """(phase alpha + omega_m t + gamma, counts, sigma) of one time channel at every point."""
        n = self.counts.shape[1]
        if not (0 <= channel < n):
            raise ConfigError(f"channel {channel} out of range for {n} time channels")
        phase = self.alphas + self.phases[:, channel]
        counts = self.counts[:, channel]
        return phase, counts, _poisson_sigma(counts)


def single_channel_points(cfg: BeamlineConfig, records, channel: int = 0,
                          scan_kind: str = "offset") -> list[tuple[float, float, float]]:
    """(phase, counts, sigma) of one time channel across all scan points."""
    points = _Scan(cfg, records, scan_kind).channel_points(channel)
    return list(zip(*(column.tolist() for column in points)))


def channel_fits_witness(cfg: BeamlineConfig, records, settings: WitnessSettings,
                         scan_kind: str = "offset") -> tuple[WitnessResult, FitResult]:
    """Witness from per-point time-series fits (the 'cosine fits' route).

    Every record's channels are fitted separately; the contrasts are pooled
    by inverse-variance weighting and the fitted phases, referenced to each
    point's model phase, are pooled circularly into a global phase offset.
    The pooled (C, phi) pair is then evaluated at the witness settings.
    Returns the witness plus the pooled two-stage fit summary.
    """
    scan = _Scan(cfg, records, scan_kind)
    fits = _fit_channels(scan.counts)
    base = scan.channel_points(0)[0]
    a, b = fits.mean_level, fits.amplitude
    grad = np.stack([-b / a**2, 1.0 / a, np.zeros_like(a)], axis=-1)
    c_weights = 1.0 / np.maximum(np.einsum("ri,rij,rj->r", grad, fits.covariance, grad), 1e-300)
    c_hat = float(np.dot(b / a, c_weights) / c_weights.sum())
    sigma_c = math.sqrt(1.0 / c_weights.sum())
    offset = fits.phase - base
    phi_weights = 1.0 / np.maximum(fits.covariance[:, 2, 2], 1e-300)
    phi_hat = math.atan2(np.dot(np.sin(offset), phi_weights), np.dot(np.cos(offset), phi_weights))
    sigma_phi = math.sqrt(1.0 / phi_weights.sum())
    pooled = FitResult(
        mean_level=1.0,
        amplitude=max(c_hat, 0.0),
        phase=phi_hat,
        covariance=np.diag([0.0, sigma_c**2, sigma_phi**2]),
        chi_square=float(fits.chi_square.sum()),
        dof=fits.dof * len(base),
    )
    return witness_from_fit(pooled, settings), pooled


def _wrap_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def counts_witness(cfg: BeamlineConfig, records, settings: WitnessSettings,
                   scan_kind: str = "offset") -> WitnessResult:
    """Witness from raw count ratios at the grid points nearest the settings.

    For each (alpha_i, gamma_j) cell the four projector outcomes are read
    from the recorded counts whose realized phases are nearest to
    alpha_i + k pi (via the coil current) and gamma_j + l pi (via detector
    offset and time channel), k, l in {0, 1}.  The (offset, channel) is
    picked only among the offsets recorded at the picked current, so a
    ragged table, one missing some (current, offset) points, reads only
    recorded counts.  Ties prefer the smaller |current|, then the smaller
    |offset| and channel index; of two values of equal magnitude, the
    negative one.  Independent Poisson statistics give
    sigma_E^2 = (1 - E^2) / N_total.
    """
    if scan_kind != "offset":
        raise ConfigError("count-ratio witness requires an offset scan")
    scan = _Scan(cfg, records, scan_kind)
    n = scan.counts.shape[1]
    if n == 0:
        raise ConfigError("count-ratio witness requires time channels, got 0")
    by_point = {point: row for row, point in
                enumerate(zip(scan.currents.tolist(), scan.coords.tolist()))}
    alpha_of = dict(zip(scan.currents.tolist(), scan.alphas.tolist()))
    currents = sorted(alpha_of, key=lambda c: (abs(c), c))
    offsets = sorted({d for _, d in by_point}, key=lambda d: (abs(d), d))

    def pick_current(target: float) -> float:
        return min(currents, key=lambda c: (_wrap_distance(alpha_of[c], target), abs(c)))

    phase_of = dict(zip(scan.coords.tolist(), scan.phases.tolist()))
    phases = [phase_of[delta] for delta in offsets]

    def pick_gamma(current: float, target: float) -> tuple[float, int]:
        best = None
        for delta, row in zip(offsets, phases):
            if (current, delta) not in by_point:
                continue
            for ch, value in enumerate(row):
                key = (_wrap_distance(value, target), abs(delta), ch)
                if best is None or key < best[0]:
                    best = (key, delta, ch)
        return best[1], best[2]

    e = np.empty((2, 2))
    sig = np.empty((2, 2))
    for i, alpha in enumerate((settings.alpha1, settings.alpha2)):
        for j, gamma in enumerate((settings.gamma1, settings.gamma2)):
            outcome_counts = {}
            for k in (0, 1):
                current = pick_current(alpha + k * math.pi)
                for l in (0, 1):
                    delta, ch = pick_gamma(current, gamma + l * math.pi)
                    outcome_counts[(k, l)] = float(scan.counts[by_point[(current, delta)], ch])
            e[i, j] = expectation_from_counts(outcome_counts)
            total = sum(outcome_counts.values())
            sig[i, j] = math.sqrt(max(1.0 - e[i, j] ** 2, 0.0) / total)
    return witness(e, sig)


class PointSample(NamedTuple):
    """One plotted point: phase, measured intensity, its sigma, model value."""

    phase: float
    intensity: float
    sigma: float
    model: float


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the witness report serializes for one counts table."""

    witness: WitnessResult
    fit: FitResult
    points: tuple[PointSample, ...]
    count_witness: WitnessResult | None = None
    channel_witness: WitnessResult | None = None
    diagnostics: dict = field(default_factory=dict)


def analyze_records(cfg: BeamlineConfig, records, settings: WitnessSettings,
                    channel: int = 0, scan_kind: str = "offset") -> AnalysisReport:
    """Full reduction of a counts table to a witness report.

    Primary route: single-channel intensities versus combined phase, global
    cosine fit, witness with full covariance.  The count-ratio route (offset
    scans) and the per-point fit route are computed alongside as
    cross-checks.
    """
    records = list(records)
    points = single_channel_points(cfg, records, channel=channel, scan_kind=scan_kind)
    fit = fit_global(points)
    primary = witness_from_fit(fit, settings)
    model = fit.model([p[0] for p in points]).tolist()
    samples = tuple(PointSample(*p, model=m) for p, m in zip(points, model))
    count_route = None
    if scan_kind == "offset":
        count_route = counts_witness(cfg, records, settings, scan_kind=scan_kind)
    channel_route, _ = channel_fits_witness(cfg, records, settings, scan_kind=scan_kind)
    diagnostics = {
        "method": "single_channel_global_fit",
        "channel": channel,
        "n_points": len(points),
        "chi_square": fit.chi_square,
        "dof": fit.dof,
        "reduced_chi_square": fit.chi_square / fit.dof if fit.dof else math.nan,
        "contrast": fit.contrast,
        "contrast_sigma": fit.contrast_sigma,
        "fitted_phase_offset": fit.phase,
    }
    return AnalysisReport(
        witness=primary,
        fit=fit,
        points=samples,
        count_witness=count_route,
        channel_witness=channel_route,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Resampled witness spread alongside the analytic error bar."""

    sigma_s: float
    resamples: int
    failures: int
    s_values: tuple[float, ...]


_RESAMPLE_KEY = 1 << 64  # high key word 1: apart from simulate_scan's bare 64-bit seeds


def _resample_rng(seed: int, index: int) -> np.random.Generator:
    return _point_rng(_RESAMPLE_KEY | seed, index)


def bootstrap_uncertainty(cfg: BeamlineConfig, records, settings: WitnessSettings,
                          resamples: int = 200, seed: int = 0, channel: int = 0,
                          scan_kind: str = "offset") -> BootstrapResult:
    """Parametric Poisson bootstrap of the single-channel witness.

    Each resample redraws every channel count around the observed value, so
    the spread of refitted S values estimates sigma_S without assuming the
    propagation linearization.  Resample streams are counter-partitioned from
    the seed, making the estimate independent of batching, and keyed apart
    from ``simulate_scan``'s streams, so equal seeds share no draws.  More
    than 5% failed refits raises a diagnostic error.
    """
    if resamples < 100:
        raise ConfigError(f"resamples must be >= 100, got {bounded_repr(resamples)}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {bounded_repr(seed)}")
    theta, observed, _ = _Scan(cfg, records, scan_kind).channel_points(channel)
    means = np.broadcast_to(observed, (resamples, observed.size))
    counts = _poisson_rows(_RESAMPLE_KEY | seed, means).astype(float)
    fits = _fit_cosines(theta, counts, _poisson_sigma(counts))
    failures = len(fits.failures)
    if failures > 0.05 * resamples:
        raise DiagnosticError(
            f"{failures}/{resamples} bootstrap refits failed; counts data too degenerate"
        )
    e, _, _ = _expectation_gradients(fits, settings)
    s_values = np.delete(np.sum(_SIGN_MATRIX * e, axis=(-2, -1)), list(fits.failures))
    return BootstrapResult(
        sigma_s=float(np.std(s_values, ddof=1)),
        resamples=resamples,
        failures=failures,
        s_values=tuple(s_values.tolist()),
    )
