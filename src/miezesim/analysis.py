"""Fitting and witness extraction from counts data.

``analyze_records`` reduces a counts table as beamline data are reduced:

1. ``_Scan`` validates the records once and gives each time channel at each
   point its cell phase ``theta = alpha + w_m t + gamma``.
2. ``fit_global`` fits one channel's counts over theta with ``A + B cos(theta
   + phi0)``, weighted by sigma = sqrt(max(counts, 1)) (Neyman's chi-square).
3. ``witness_from_fit`` forms ``E(alpha_i, gamma_j) = C cos(alpha_i + gamma_j
   + phi0)`` and propagates the fit's full covariance to sigma_S.
4. One tail, shared by every route, sums ``S = E11 + E12 + E21 - E22`` with
   ``quantum``'s one sign matrix and classifies it.

Three independent witness routes are reported side by side rather than
collapsed: the primary global-fit route (``analyze_records`` /
``witness_from_fit``), a per-point route that fits every scan point's time
series over its own cell phases ``alpha + w_m t + gamma`` and pools the fits
as one complex contrast (``channel_fits_witness``), and a direct count-ratio
route that picks the recorded points nearest the requested analyzer settings
(``counts_witness``).  Agreement between them is a cross-check of the whole
reduction, so none of them reuses another's fitted numbers.

All fits share one closed-form engine, ``_fit_cosines``, which fits a stack
of rows in one call.  The model is linear in ``(A, c, s) = (A, B cos phi,
-B sin phi)``, so one weighted solve of each row's ``[1, cos theta, sin theta]``
normal equations gives the exact optimum; one matrix product against nine
columns built from six products (1, cos, sin, cos^2, cos sin, sin^2) gives
every row's normal matrix and moments together.  A row's rank is certified in
closed form where det(X^T W X / trace) > 1e-10, and only the rows this does
not clear are ranked by ``matrix_rank``.  The covariance ``inv(X^T W X)``
and the chi-square are computed when read, so the bootstrap, which reads only
the coefficients (each resample's S is linear in ``c / A`` and ``s / A``),
pays for the solve alone.  Fits stay linear until a ``FitResult`` is made, by
the one map to (A, B, phi) (``_polar_fit``), so the per-point route pools its
rows as the plain sum ``Z = sum (c_p - i s_p) / sum A_p``.  A row fails when
its normal matrix is singular to working precision (too few distinct phases),
its amplitude is exactly zero (no phase) or its mean level is not positive;
flat data fail this way only where the solve is exact (see ``_fit_cosines``).
One-row fits and the per-point route raise the first failure as ``FitError``;
the bootstrap counts failed resamples and drops them.  All three routes read
one ``_Scan``; it checks no count: a ``CountsRecord`` holds integers in [0, 2**53].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .beamline import BeamlineConfig, _scan_phases
from .errors import ConfigError, DegenerateDataError, DiagnosticError, FitError, integer_in_range
from .quantum import (
    _CHSH_SIGNS,
    TSIRELSON_BOUND,
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

_TINY = np.finfo(float).tiny


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
    # The normal equations sum w and w y with w = sigma**-2: neither may overflow.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum((1.0 + np.abs(y)) / sigma / sigma)):
            raise FitError("sigma values are too small: the fit's weighted sums overflow")
    if np.any(sigma**-2.0 < _TINY):  # a subnormal weight's inv(X^T W X) can overflow
        raise FitError("sigma values are too large: a weight 1/sigma**2 underflows to 0 "
                       "or to a subnormal")
    return theta, y, sigma


def _polar_fit(coef: Array, covariance: Array, chi_square: float, dof: int) -> FitResult:
    """(A, c, s) and covariance as the ``FitResult`` of (A, B, phi), c = B cos phi, s = -B sin phi.

    ``B = hypot(c, s)`` is non-negative with the sign carried by the phase.  The
    covariance is mapped by the delta method (Gauss-Newton for ``B > 0``), so
    the phase sigma grows without bound as ``B`` tends to zero.
    """
    a, c, s = coef
    b = np.hypot(c, s)
    phase = np.arctan2(-s, c)
    grad = np.array([[1.0, 0.0, 0.0], [0.0, c / b, s / b], [0.0, s / (b * b), -c / (b * b)]])
    return FitResult(float(a), float(b), math.pi if phase == -math.pi else float(phase),
                     grad @ covariance @ grad.T, chi_square, dof)


class _CosineFits(NamedTuple):
    """Rows' (A, c, s), NaN where failed (``failures`` says why), the solve's sums and dof.

    The covariance inv(X^T W X) and the chi-square are computed when read, so
    a caller that needs only ``coef``, as the bootstrap does, pays for the solve
    alone.  ``fit(row)`` makes one row's (A, B, phi) ``FitResult``.
    """

    basis: Array
    y: Array
    w: Array
    normal: Array
    coef: Array
    dof: int
    failures: dict[int, str]

    @property
    def covariance(self) -> Array:
        return np.linalg.inv(self.normal)

    @property
    def chi_square(self) -> Array:
        resid = (self.basis @ self.coef[..., None])[..., 0] - self.y
        return np.einsum("rn,rn->r", self.w, resid * resid)

    def fit(self, row: int) -> FitResult:
        """One row's ``FitResult``, or its ``FitError``; only that row's matrix is inverted."""
        if row in self.failures:
            raise FitError(self.failures[row])
        return _polar_fit(self.coef[row], np.linalg.inv(self.normal[row]),
                          float(self.chi_square[row]), self.dof)


def _fit_cosines(theta: Array, y: Array, sigma: Array) -> _CosineFits:
    """Fit y = A + c cos theta + s sin theta to each (R, N) row of y, sigma; theta broadcasts.

    With w = sigma**-2 and the basis b = [1, cos theta, sin theta], one product
    of the stacked rows [w, w y] against the (..., N, 9) products b b^T, nine
    columns stacked from 1, cos, sin, cos^2, cos sin and sin^2, gives the
    normal matrix sum(w b b^T) and, in its first three columns, the moments
    sum(w y b).  Both come from the same sums, so a flat row with w y = w
    (counts of 1) has the normal matrix's constant column as its moments, bit
    for bit.  It solves to B = 0 exactly only where the divisions by sum(w) are
    exact too, as on 8 or 16 channels; twelve 1-counts give B ~ 1e-32, sixteen
    5-counts B ~ 5e-16, each at an arbitrary phase.

    A row has rank 3 when ``matrix_rank(normal, hermitian=True)`` says so.  Most
    rows are cleared in closed form instead: the normal matrix is positive
    semi-definite, so its eigenvalues l1 <= l2 <= l3 have l2 l3 <= trace^2 / 4
    and l1 >= 4 det / trace^2.  Where det(normal / trace) > 1e-10, l1 / l3
    exceeds 4e-10, far above matrix_rank's 3 eps, and only the rows this does
    not clear go to ``matrix_rank``; no decision differs from it.
    """
    ones, cos, sin = np.ones_like(theta), np.cos(theta), np.sin(theta)
    basis = np.stack([ones, cos, sin], axis=-1)
    cos_sin = cos * sin  # b_i b_j == b_j b_i: the normal matrix is exactly symmetric
    products = np.stack([ones, cos, sin, cos, cos * cos, cos_sin, sin, cos_sin, sin * sin],
                        axis=-1)
    w = sigma**-2.0
    sums = np.matmul(np.stack([w, w * y], axis=-2), products)
    normal = sums[:, 0].reshape(-1, 3, 3)
    trace = np.maximum(sums[:, 0, 0] + sums[:, 0, 4] + sums[:, 0, 8], _TINY)  # 0 if no weight
    singular = ~(np.linalg.det(normal / trace[:, None, None]) > 1e-10)
    if singular.any():
        singular[singular] = np.linalg.matrix_rank(normal[singular], hermitian=True) < 3
    normal[singular] = np.eye(3)  # a solvable stand-in; these rows are reported failed
    coef = np.linalg.solve(normal, sums[:, 1, :3, None])[..., 0]
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
    coef[failed] = np.nan
    return _CosineFits(basis, y, w, normal, coef, max(y.shape[-1] - 3, 0), failures)


def _poisson_sigma(counts):
    return np.sqrt(np.maximum(counts, 1.0))


def _fit_channels(counts: Array, theta: Array) -> _CosineFits:
    """Fit each row of (P, n) counts over phases theta."""
    n = counts.shape[-1]
    if n < 4:
        raise FitError(f"need at least 4 time channels, got {n}")
    fits = _fit_cosines(theta, counts, _poisson_sigma(counts))
    if fits.failures:
        # An all-zero row fits to B = 0 exactly, so it is always among the failures.
        row = min(fits.failures)
        if not np.any(counts[row] > 0):
            raise DegenerateDataError("all-zero counts: nothing to fit")
        raise FitError(fits.failures[row])
    return fits


def _fit_points(theta, y, sigma) -> FitResult:
    """``fit_global`` on (phase, intensity, sigma) columns."""
    if len(theta) < 4:
        raise FitError(f"need at least 4 points, got {len(theta)}")
    theta, y, sigma = _validate_xy(theta, y, sigma)
    span = float(np.max(theta) - np.min(theta))
    if span <= math.pi:
        raise FitError(
            f"insufficient phase coverage: span {span:.4g} rad, need more than pi"
        )
    return _fit_cosines(theta, y[None], sigma[None]).fit(0)


def fit_global(points) -> FitResult:
    """Fit ``intensity = A + B cos(phase + phi0)`` over (phase, intensity, sigma) points.

    Requires at least four points spanning more than pi of phase.
    """
    rows = list(points)
    return _fit_points(*([r[k] for r in rows] for k in range(3)))


def fit_time_series(record: CountsRecord, omega_m: float) -> FitResult:
    """Fit one scan point's time channels with ``A + B cos(w_m t + phi)``.

    Channels are the period-folded bins ``t_i = i T / n``, fitted at the phases
    ``2 pi i / n``: a point's channel phases on offset scans only.  The fit is
    solved in (A, c, s) and mapped to (A, B, phi) once, as every fit is.
    ``omega_m`` is only validated; Poisson weighting uses ``sigma^2 = max(counts, 1)``.
    """
    if not (omega_m > 0.0 and math.isfinite(omega_m)):
        raise ValueError(f"omega_m must be positive, got {omega_m!r}")
    n = len(record.counts)
    return _fit_channels(np.asarray(record.counts, dtype=float)[None],
                         2.0 * math.pi * np.arange(n) / n).fit(0)


def _expectation_gradients(fit: FitResult, settings: WitnessSettings):
    """E matrix, per-element gradients wrt (A, B, phi), per-element sigma."""
    a, b, phi = fit.mean_level, fit.amplitude, fit.phase
    alphas, gammas = (settings.alpha1, settings.alpha2), (settings.gamma1, settings.gamma2)
    arg = np.add.outer(alphas, gammas) + phi
    c, s = np.cos(arg), np.sin(arg)
    e = (b / a) * c
    grads = np.stack([-b * c / (a * a), c / a, -(b / a) * s], axis=-1)
    var = np.einsum("...i,ij,...j->...", grads, fit.covariance, grads)
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
    sig = np.zeros((2, 2)) if sigma_matrix is None else np.asarray(sigma_matrix, dtype=float)
    if sig.shape != (2, 2) or not np.all(np.isfinite(sig)) or np.any(sig < 0):
        raise ValueError("sigma matrix must be finite, non-negative and 2x2")
    return _witness_result(e, sig, float(np.sqrt(np.sum(sig**2))))


def witness_from_fit(fit: FitResult, settings: WitnessSettings) -> WitnessResult:
    """Witness from a global fit, propagating the full parameter covariance.

    Unlike :func:`witness` on the separate sigmas, this accounts for the
    correlations the four E values inherit from sharing (A, B, phi0).
    """
    e, grads, sig = _expectation_gradients(fit, settings)
    grad_s = np.tensordot(_CHSH_SIGNS, grads, axes=([0, 1], [0, 1]))
    return _witness_result(e, sig, math.sqrt(max(float(grad_s @ fit.covariance @ grad_s), 0.0)))


def _witness_result(e: Array, sig: Array, sigma_s: float) -> WitnessResult:
    """The one tail of every route: S = sum sign_ij E_ij, its verdict and the result."""
    s = float(np.sum(_CHSH_SIGNS * e))
    return WitnessResult(e, sig, s, sigma_s, classify(s))


def witness_from_contrast(contrast: float) -> float:
    """Expected witness 2*sqrt(2)*C for a maximally entangled state at contrast C."""
    if not (0.0 <= contrast <= 1.0):
        raise ValueError(f"contrast must be in [0, 1], got {contrast!r}")
    return TSIRELSON_BOUND * contrast


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
        (n,) = widths
        p = len(records)
        self.currents = np.fromiter((rec.current for rec in records), float, p)
        self.coords = np.fromiter((rec.coord for rec in records), float, p)
        # (P,) spin phases and (P, n) phases omega_m t + gamma of every channel at every point
        self.alphas, self.phases = _scan_phases(cfg, scan_kind, self.currents, self.coords, n)
        self.theta = self.alphas[:, None] + self.phases  # (P, n) cell phases, read by every fit
        self.counts = np.fromiter(chain.from_iterable(rec.counts for rec in records), float,
                                  p * n).reshape(p, n)

    def channel_points(self, channel: int) -> tuple[Array, Array, Array]:
        """(phase alpha + omega_m t + gamma, counts, sigma) of one time channel at every point."""
        n = self.counts.shape[1]
        index = integer_in_range(channel, 0, n - 1,
                                 f"channel {{}} out of range for {n} time channels")
        counts = self.counts[:, index]
        return self.theta[:, index], counts, _poisson_sigma(counts)


def single_channel_points(cfg: BeamlineConfig, records, channel: int = 0,
                          scan_kind: str = "offset") -> list[tuple[float, float, float]]:
    """(phase, counts, sigma) of one time channel across all scan points."""
    points = _Scan(cfg, records, scan_kind).channel_points(channel)
    return list(zip(*(column.tolist() for column in points)))


def channel_fits_witness(cfg: BeamlineConfig, records, settings: WitnessSettings,
                         scan_kind: str = "offset") -> tuple[WitnessResult, FitResult]:
    """Witness from per-point time-series fits (the 'cosine fits' route).

    Every record's channels are fitted over their own cell phases, which
    move with the detuning on a detuning scan, and the fits are pooled, while
    still linear, as one complex contrast ``Z = sum B_p exp(i phi_p) / sum A_p
    = sum (c_p - i s_p) / sum A_p`` over p.  No weight depends on a fitted
    phase, so a point whose amplitude is rounding noise adds nothing to Z.
    The pooled fit (mean level 1, C = |Z|, phi0 = arg Z, the pooled linear
    covariance mapped as every fit's, summed chi-square and dof) is evaluated
    at the witness settings; returns the witness and that fit.
    """
    return _channel_route(_Scan(cfg, records, scan_kind), settings)


def _channel_route(scan: _Scan, settings: WitnessSettings) -> tuple[WitnessResult, FitResult]:
    fits = _fit_channels(scan.counts, scan.theta)
    sums = fits.coef.sum(axis=0)  # Z = sum (c - i s) / sum A: the pool (1, c, s) is linear
    pool = sums / sums[0]
    jac = np.array([[0.0, 0.0, 0.0], [-pool[1], 1.0, 0.0], [-pool[2], 0.0, 1.0]]) / sums[0]
    pooled = _polar_fit(pool, jac @ fits.covariance.sum(axis=0) @ jac.T,
                        float(fits.chi_square.sum()), fits.dof * len(fits.coef))
    return witness_from_fit(pooled, settings), pooled


def _wrapped_distance(x):
    """|x| wrapped into [0, pi]; equal bit for bit to ``abs(math.remainder(x, 2 pi))``."""
    d = np.abs(np.fmod(x, 2.0 * math.pi))
    return np.minimum(d, 2.0 * math.pi - d)


def counts_witness(cfg: BeamlineConfig, records, settings: WitnessSettings,
                   scan_kind: str = "offset") -> WitnessResult:
    """Witness from raw count ratios at the grid points nearest the settings.

    For each (alpha_i, gamma_j) cell the four projector outcomes are read
    from the recorded counts whose realized phases are nearest to
    alpha_i + k pi (via the coil current) and gamma_j + l pi (via detector
    offset and time channel), k, l in {0, 1}.  The (record, channel) cell is
    picked only among the records at the picked current, so a ragged table,
    one missing some (current, offset) points, reads only recorded counts.
    Ties prefer the smaller |current|, then the smaller |offset| and channel
    index; of two values of equal magnitude, the negative one; of a point
    recorded twice, the later record.  Independent Poisson statistics give
    sigma_E^2 = (1 - E^2) / N_total.
    """
    if scan_kind != "offset":
        raise ConfigError("count-ratio witness requires an offset scan")
    return _count_route(_Scan(cfg, records, scan_kind), settings)


def _count_route(scan: _Scan, settings: WitnessSettings) -> WitnessResult:
    n = scan.counts.shape[1]
    if n == 0:
        raise ConfigError("count-ratio witness requires time channels, got 0")
    shifts = (0.0, math.pi)
    # Targets in (i, k) and (j, l) order: alpha_i + k pi and gamma_j + l pi.
    alpha_targets = np.add.outer((settings.alpha1, settings.alpha2), shifts).ravel()
    gamma_targets = np.add.outer((settings.gamma1, settings.gamma2), shifts).ravel()
    # Candidates in the tie order, so that argmin's first minimum is the documented pick:
    # rows by |current|, then negative first; the picked currents' (row, channel) cells by
    # |offset|, then channel, then negative first, then the later record of a twice-recorded point.
    by_current = np.lexsort((scan.currents, np.abs(scan.currents)))
    picked = scan.currents[by_current[np.argmin(
        _wrapped_distance(scan.alphas[by_current] - alpha_targets[:, None]), axis=1)]]
    at_picked = scan.currents == picked[:, None]  # (ik, rows)
    rows = np.flatnonzero(at_picked.any(axis=0))
    row, channel = rows.repeat(n), np.tile(np.arange(n), rows.size)
    cells = np.lexsort((-row, scan.coords[row], channel, np.abs(scan.coords[row])))
    row, channel = row[cells], channel[cells]
    distance = _wrapped_distance(scan.phases[row, channel] - gamma_targets[:, None])
    best = np.argmin(np.where(at_picked[:, None, row], distance, np.inf), axis=2)  # (ik, jl)
    # (i, k, j, l) -> (ij, kl)
    reads = scan.counts[row[best], channel[best]].reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    e, sig = np.empty(4), np.empty(4)
    for ij, cell in enumerate(reads.reshape(4, 4).tolist()):
        e[ij] = expectation_from_counts(dict(zip(((0, 0), (0, 1), (1, 0), (1, 1)), cell)))
        sig[ij] = math.sqrt(max(1.0 - e[ij] ** 2, 0.0) / sum(cell))
    return witness(e.reshape(2, 2), sig.reshape(2, 2))


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
    scan = _Scan(cfg, records, scan_kind)
    theta, intensity, sigma = scan.channel_points(channel)
    fit = _fit_points(theta, intensity, sigma)
    primary = witness_from_fit(fit, settings)
    samples = tuple(map(PointSample, theta.tolist(), intensity.tolist(), sigma.tolist(),
                        fit.model(theta).tolist()))
    count_route = _count_route(scan, settings) if scan_kind == "offset" else None
    channel_route, _ = _channel_route(scan, settings)
    diagnostics = {
        "method": "single_channel_global_fit",
        "channel": int(channel),
        "n_points": len(samples),
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

    Each resample redraws the fitted channel's count at each point around
    its observed value; the spread of refitted S values estimates sigma_S
    without assuming the propagation linearization.  Resample streams are
    counter-partitioned from the seed (independent of batching) and keyed
    apart from ``simulate_scan``'s, so equal seeds share no draws.  More
    than 5% failed refits raises a diagnostic error.
    """
    resamples = integer_in_range(resamples, 100, 2**16,
                                 "resamples must be an integer in [100, 2**16], got {}")
    seed = integer_in_range(seed, 0, 2**64 - 1, "seed must be a 64-bit unsigned integer, got {}")
    theta, observed, _ = _Scan(cfg, records, scan_kind).channel_points(channel)
    means = np.broadcast_to(observed, (resamples, observed.size))
    counts = _poisson_rows(_RESAMPLE_KEY | seed, means).astype(float)
    solved = _fit_cosines(theta, counts, _poisson_sigma(counts))  # reads coef and failures only
    failures = len(solved.failures)
    if failures > 0.05 * resamples:
        raise DiagnosticError(
            f"{failures}/{resamples} bootstrap refits failed; counts data too degenerate"
        )
    # S = sum sign_ij B cos(x_ij + phi) / A over x_ij = alpha_i + gamma_j, and
    # B cos(x + phi) = c cos x + s sin x: no (A, B, phi) or covariance needed.
    a, c, s = np.delete(solved.coef, list(solved.failures), axis=0).T
    x = np.add.outer((settings.alpha1, settings.alpha2), (settings.gamma1, settings.gamma2))
    s_values = (c * np.sum(_CHSH_SIGNS * np.cos(x)) + s * np.sum(_CHSH_SIGNS * np.sin(x))) / a
    return BootstrapResult(
        sigma_s=float(np.std(s_values, ddof=1)),
        resamples=resamples,
        failures=failures,
        s_values=tuple(s_values.tolist()),
    )
