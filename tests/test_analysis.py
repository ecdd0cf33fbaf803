"""Cosine fitting, correlation grids, witness routes, bootstrap errors."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from miezesim import (
    BeamlineConfig,
    ConfigError,
    CountsRecord,
    DegenerateDataError,
    DiagnosticError,
    FitError,
    PRESETS,
    ScanPlan,
    SpinEnergyState,
    TSIRELSON_BOUND,
    WitnessSettings,
    analyze_records,
    bootstrap_uncertainty,
    channel_fits_witness,
    chsh_value,
    classify,
    counts_witness,
    current_for_spin_phase,
    energy_phase,
    expectation_from_counts,
    expectation_grid,
    expected_channel_means,
    fit_global,
    fit_time_series,
    joint_expectation,
    load_preset,
    mieze_frequency,
    offset_for_energy_phase,
    optimal_settings,
    simulate_scan,
    single_channel_points,
    spin_phase,
    witness,
    witness_from_contrast,
    witness_from_fit,
)
from miezesim import analysis
from miezesim.analysis import _Scan, _fit_cosines, _resample_rng, _wrapped_distance
from miezesim.beamline import channel_phase
from miezesim.synth import _point_rng

CFG = BeamlineConfig(
    wavelength=0.55e-9,
    bandwidth=0.002,
    f1=45e3,
    f2=50e3,
    l1=0.085,
    l2=0.765,
    coil_cal=250e-6,
    contrast=0.85,
)

PLAN = ScanPlan(
    currents=tuple(np.linspace(-1.0, -0.88, 13)),
    offsets=(-0.035, -0.02, -0.01, -0.005, 0.005, 0.01, 0.02, 0.035),
    counts_scale=8600.0,
)

SETTINGS = optimal_settings(0.0)

SQRT2 = math.sqrt(2.0)


def cosine_points(mean, amplitude, phi, n=16, sigma=1.0):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    y = mean + amplitude * np.cos(theta + phi)
    return [(float(t), float(v), sigma) for t, v in zip(theta, y)]


def noiseless_records(cfg, plan):
    """Counts records whose channels equal the model means exactly."""
    return [
        CountsRecord(
            current=cur,
            coord=off,
            counts=tuple(
                int(round(m)) for m in expected_channel_means(cfg, plan, cur, off)
            ),
        )
        for cur in plan.currents
        for off in plan.offsets
    ]


# ---------------------------------------------------------------------------
# cosine fits


def test_fit_global_exact_recovery():
    fit = fit_global(cosine_points(4300.0, 3655.0, 0.35))
    assert math.isclose(fit.mean_level, 4300.0, rel_tol=1e-10)
    assert math.isclose(fit.amplitude, 3655.0, rel_tol=1e-10)
    assert math.isclose(fit.phase, 0.35, abs_tol=1e-9)
    assert fit.chi_square < 1e-12
    assert fit.dof == 13
    assert math.isclose(fit.contrast, 0.85, rel_tol=1e-9)


@hyp_settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(min_value=0.5, max_value=1e4),
    contrast=st.floats(min_value=0.02, max_value=0.98),
    phi=st.floats(min_value=-math.pi + 1e-6, max_value=math.pi),
)
def test_fit_round_trip_on_noiseless_data(mean, contrast, phi):
    fit = fit_global(cosine_points(mean, contrast * mean, phi))
    assert math.isclose(fit.mean_level, mean, rel_tol=1e-7)
    assert math.isclose(fit.contrast, contrast, rel_tol=1e-6, abs_tol=1e-9)
    assert math.isclose(
        math.remainder(fit.phase - phi, 2.0 * math.pi), 0.0, abs_tol=1e-7
    )


def test_fit_amplitude_is_non_negative():
    # A negative seed amplitude must come back as +B with the phase flipped.
    fit = fit_global(cosine_points(10.0, 2.0, 0.2 - math.pi))
    assert fit.amplitude > 0.0
    assert math.isclose(fit.phase, 0.2 - math.pi, abs_tol=1e-8)
    flipped = fit_global(
        [(t, 10.0 - 2.0 * math.cos(t + 0.2), 1.0)
         for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
    )
    assert flipped.amplitude > 0.0
    assert math.isclose(flipped.phase, 0.2 - math.pi, abs_tol=1e-8)


def test_fit_phase_is_wrapped():
    fit = fit_global(cosine_points(10.0, 2.0, 5.0))
    assert -math.pi < fit.phase <= math.pi
    assert math.isclose(fit.phase, 5.0 - 2.0 * math.pi, abs_tol=1e-8)


def test_fit_global_needs_four_points():
    with pytest.raises(FitError, match="4 points"):
        fit_global(cosine_points(10.0, 2.0, 0.0, n=3))


def test_fit_global_needs_phase_span():
    points = [(0.1 * i, 10.0, 1.0) for i in range(8)]
    with pytest.raises(FitError, match="span"):
        fit_global(points)


def test_fit_global_rejects_singular_design():
    # 3.5 rad of span passes the coverage check, but two distinct phases
    # cannot determine three cosine parameters.
    points = [(0.0, 10.0, 1.0), (0.0, 11.0, 1.0), (3.5, 5.0, 1.0), (3.5, 6.0, 1.0),
              (0.0, 10.5, 1.0)]
    with pytest.raises(FitError, match="singular"):
        fit_global(points)


def test_fit_rejects_exactly_zero_amplitude():
    # Flat data on eight even phases solves to c = s = 0 exactly: no phase.
    with pytest.raises(FitError, match="exactly zero"):
        fit_global(cosine_points(1.0, 0.0, 0.0, n=8))


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 1.0, 1.0), (1.0, math.nan, 1.0), (2.0, 1.0, 1.0), (4.0, 1.0, 1.0)],
        [(0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (4.0, 1.0, 1.0)],
        [(0.0, 1.0, -1.0), (1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (4.0, 1.0, 1.0)],
        # Weights sigma**-2 past the float range, and weighted sums past it.
        cosine_points(10.0, 3.0, 0.3, n=8, sigma=1e-160),
        cosine_points(10.0, 3.0, 0.3, n=8, sigma=1e-154),
        # Weights that underflow to 0: a normal matrix of zeros is singular.
        cosine_points(10.0, 3.0, 0.3, n=8, sigma=1e200),
        # Rows that are not three numbers: a 2-vector phase, a text intensity, a
        # row of two values, a row that is an integer; and no rows at all.
        [([0.0, 0.5], 13.0, 1.0)] + cosine_points(10.0, 3.0, 0.3, n=8)[1:],
        [(0.0, "x", 1.0)] + cosine_points(10.0, 3.0, 0.3, n=8)[1:],
        cosine_points(10.0, 3.0, 0.3, n=8)[:7] + [(5.5, 7.0)],
        cosine_points(10.0, 3.0, 0.3, n=8)[:7] + [5],
        [],
    ],
)
def test_fit_global_validates_points(points):
    with pytest.raises(FitError):
        fit_global(points)


@pytest.mark.parametrize("row", [([0.0, 0.5], 13.0, 1.0), (0.0, "x", 1.0), (5.5, 7.0), 5])
def test_fit_global_names_a_malformed_point(row):
    message = "each point must be a row of at least three numbers (phase, intensity, sigma)"
    with pytest.raises(FitError, match=re.escape(message)):
        fit_global(cosine_points(10.0, 3.0, 0.3, n=8)[:7] + [row])
    # Fewer than four points are refused for their number first, as before.
    with pytest.raises(FitError, match="^need at least 4 points, got 3$"):
        fit_global(cosine_points(10.0, 3.0, 0.3, n=8)[:2] + [row])
    with pytest.raises(FitError, match="^need at least 4 points, got 0$"):
        fit_global([])


def test_fit_global_reads_the_first_three_values_of_each_point():
    # A report's points carry a fourth value, the model; fitted again through
    # fit_global they give the report's own fit, bit for bit.
    for preset in PRESETS:
        rc = load_preset(preset)
        report = analyze_records(rc.beamline, simulate_scan(rc.beamline, rc.plan), rc.settings)
        fit = fit_global(report.points)
        assert (fit.mean_level, fit.amplitude, fit.phase, fit.chi_square, fit.dof) == (
            report.fit.mean_level, report.fit.amplitude, report.fit.phase,
            report.fit.chi_square, report.fit.dof)
        assert np.array_equal(fit.covariance, report.fit.covariance)


@pytest.mark.parametrize("huge", [slice(None), slice(0, 1)])
def test_fit_global_names_a_sigma_whose_weight_underflows(huge):
    # A weight of 0 is an infinite sigma's; on well-spread phases the design is not singular.
    points = np.array(cosine_points(10.0, 3.0, 0.3, n=8))
    points[huge, 2] = 1e200
    with pytest.raises(FitError, match=re.escape(
            "sigma values are too large: a weight 1/sigma**2 underflows to 0")):
        fit_global(points)


@pytest.mark.parametrize("sigma", [1e155, 1e158, 1e161])
@pytest.mark.parametrize("huge", [slice(None), slice(0, 1)])
def test_fit_global_names_a_sigma_whose_weight_is_subnormal(huge, sigma):
    # sigma**-2 is below the smallest normal double but not 0: inv(X^T W X) would overflow.
    points = np.array(cosine_points(10.0, 3.0, 0.3, n=8))
    points[huge, 2] = sigma
    with pytest.raises(FitError, match="^" + re.escape(
            "sigma values are too large: a weight 1/sigma**2 underflows to 0 "
            "or to a subnormal") + "$"):
        fit_global(points)


def test_fit_result_rejects_bad_fields():
    good = dict(mean_level=1.0, amplitude=0.5, phase=0.1, covariance=np.eye(3),
                chi_square=2.0, dof=3)
    analysis.FitResult(**good)
    for field, value, message in [
        ("mean_level", 0.0, "fitted mean level must be positive, got 0.0"),
        ("mean_level", math.inf, "fitted mean level must be positive, got inf"),
        ("amplitude", -0.5, "fitted amplitude must be non-negative, got -0.5"),
        ("amplitude", math.nan, "fitted amplitude must be non-negative, got nan"),
        ("phase", math.inf, "fitted phase must be finite, got inf"),
        ("covariance", np.eye(2), "covariance must be a finite 3x3 matrix"),
        ("covariance", np.full((3, 3), math.nan), "covariance must be a finite 3x3 matrix"),
        ("chi_square", -1.0, "chi-square must be non-negative, got -1.0"),
        ("chi_square", math.inf, "chi-square must be non-negative, got inf"),
        ("dof", -1, "degrees of freedom must be >= 0, got -1"),
    ]:
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            analysis.FitResult(**{**good, field: value})


def test_witness_result_rejects_bad_fields():
    good = dict(e_matrix=np.eye(2), e_sigma=np.zeros((2, 2)), s=2.0, sigma_s=0.1,
                classification="classical")
    analysis.WitnessResult(**good)
    for field, value, message in [
        ("e_matrix", np.eye(3), "e_matrix must be a finite 2x2 matrix"),
        ("e_matrix", np.full((2, 2), math.inf), "e_matrix must be a finite 2x2 matrix"),
        ("e_sigma", [[0.0, math.nan], [0.0, 0.0]], "e_sigma must be a finite 2x2 matrix"),
        ("s", math.nan, "S must be finite, got nan"),
        ("sigma_s", -0.1, "sigma_S must be non-negative, got -0.1"),
        ("sigma_s", math.inf, "sigma_S must be non-negative, got inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analysis.WitnessResult(**{**good, field: value})


def test_fit_with_tiny_uniform_sigma_matches_unit_sigma():
    # w = 1e300 is still in range; uniform weights leave A and B as at sigma = 1.
    want = fit_global(cosine_points(10.0, 3.0, 0.3, n=8))
    got = fit_global(cosine_points(10.0, 3.0, 0.3, n=8, sigma=1e-150))
    assert math.isclose(got.mean_level, want.mean_level, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got.amplitude, want.amplitude, rel_tol=0, abs_tol=1e-12)


def test_fit_two_pi_shift_is_invariant():
    base = cosine_points(10.0, 2.0, 0.4)
    shifted = [(t + 2.0 * math.pi, v, s) for t, v, s in base]
    f1, f2 = fit_global(base), fit_global(shifted)
    assert math.isclose(f1.phase, f2.phase, abs_tol=1e-8)
    assert math.isclose(f1.amplitude, f2.amplitude, rel_tol=1e-9)
    assert math.isclose(
        witness_from_fit(f1, SETTINGS).s, witness_from_fit(f2, SETTINGS).s,
        abs_tol=1e-9,
    )


def test_fit_offset_equivariance():
    # Shifting every measured phase by delta is absorbed into phi0, and the
    # witness is recovered by shifting the analyzer alphas the same way.
    delta = 0.7
    base = cosine_points(10.0, 8.5, 0.4)
    shifted = [(t + delta, v, s) for t, v, s in base]
    f1, f2 = fit_global(base), fit_global(shifted)
    assert math.isclose(f2.phase, f1.phase - delta, abs_tol=1e-8)
    moved = WitnessSettings(
        alpha1=SETTINGS.alpha1 + delta,
        alpha2=SETTINGS.alpha2 + delta,
        gamma1=SETTINGS.gamma1,
        gamma2=SETTINGS.gamma2,
    )
    assert math.isclose(
        witness_from_fit(f2, moved).s, witness_from_fit(f1, SETTINGS).s,
        abs_tol=1e-9,
    )


def test_fit_time_series_matches_global_fit():
    rec = simulate_scan(CFG, replace(PLAN, rng_seed=8))[0]
    fit = fit_time_series(rec, mieze_frequency(CFG))
    theta = 2.0 * math.pi * np.arange(16) / 16
    points = [
        (float(t), float(c), math.sqrt(max(c, 1.0)))
        for t, c in zip(theta, rec.counts)
    ]
    direct = fit_global(points)
    assert math.isclose(fit.mean_level, direct.mean_level, rel_tol=1e-9)
    assert math.isclose(fit.amplitude, direct.amplitude, rel_tol=1e-9)
    assert math.isclose(fit.phase, direct.phase, abs_tol=1e-9)


def test_fit_time_series_validation():
    with pytest.raises(FitError, match="4 time channels"):
        fit_time_series(CountsRecord(current=0.0, coord=0.0, counts=(1, 2, 3)), 1.0)
    with pytest.raises(ValueError):
        fit_time_series(CountsRecord(current=0.0, coord=0.0, counts=(1,) * 16), 0.0)
    with pytest.raises(DegenerateDataError):
        fit_time_series(CountsRecord(current=0.0, coord=0.0, counts=(0,) * 16), 1.0)


def test_a_flat_point_of_ones_fails_the_per_point_route():
    # Sixteen 1-counts have w y = w under Poisson weights, so B = 0 exactly:
    # a failing row that is not all zero.
    flat = CountsRecord(current=0.0, coord=0.0, counts=(1,) * 16)
    with pytest.raises(FitError, match="fitted amplitude is exactly zero"):
        fit_time_series(flat, mieze_frequency(CFG))
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    recs[5] = replace(recs[5], counts=flat.counts)
    with pytest.raises(FitError, match="fitted amplitude is exactly zero"):
        analyze_records(CFG, recs, SETTINGS)


def test_constant_counts_fit_to_zero_amplitude():
    rec = CountsRecord(current=0.0, coord=0.0, counts=(500,) * 16)
    fit = fit_time_series(rec, mieze_frequency(CFG))
    assert fit.amplitude < 1e-9 * fit.mean_level
    assert math.isclose(fit.mean_level, 500.0, rel_tol=1e-9)
    s = witness_from_fit(fit, SETTINGS).s
    assert abs(s) < 1e-9


def test_stacked_fits_match_one_row_fits():
    # Good rows around three failing ones: a singular design (two distinct
    # phases), flat data on eight even phases (B = 0 exactly) and a fit
    # whose mean level is negative.
    even = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    uneven = np.array([-2.9, -2.0, -1.1, -0.3, 0.4, 1.3, 2.2, 3.0])
    rng = np.random.default_rng(7)
    rows = [
        (even, 10.0 + 2.0 * np.cos(even + 0.3) + rng.normal(0.0, 0.1, 8),
         rng.uniform(0.5, 2.0, 8)),
        (np.repeat([0.0, 3.5], 4), np.array([10.0, 11.0, 10.5, 10.2, 5.0, 6.0, 5.5, 5.2]),
         np.ones(8)),
        (even, np.ones(8), np.ones(8)),
        (even, -5.0 + 2.0 * np.cos(even), np.ones(8)),
        (uneven, 40.0 + 8.0 * np.cos(uneven - 2.0) + rng.normal(0.0, 2.0, 8),
         rng.uniform(1.0, 3.0, 8)),
    ]
    theta, y, sigma = (np.array(column) for column in zip(*rows))
    fits = _fit_cosines(theta, y, sigma)
    reasons = {1: "singular", 2: "exactly zero", 3: "mean level must be positive, got -5"}
    assert list(fits.failures) == list(reasons)
    assert fits.dof == 5
    for row, (t, v, s) in enumerate(rows):
        points = list(zip(t.tolist(), v.tolist(), s.tolist()))
        if row in fits.failures:
            with pytest.raises(FitError, match=reasons[row]) as err:
                fit_global(points)
            assert str(err.value) == fits.failures[row]
            assert np.all(np.isnan(fits.coef[row])) and np.isnan(fits.chi_square[row])
            continue
        got, one = fits.fit(row), fit_global(points)
        np.testing.assert_allclose(
            [got.mean_level, got.amplitude, got.chi_square],
            [one.mean_level, one.amplitude, one.chi_square], rtol=1e-12,
        )
        assert math.isclose(got.phase, one.phase, abs_tol=1e-12)
        np.testing.assert_allclose(
            got.covariance, one.covariance,
            rtol=1e-12, atol=1e-12 * np.abs(one.covariance).max(),
        )


def reference_fit_cosines(theta, y, sigma):
    """(coef, failures) of the engine without the rank certificate: the (..., N, 9) outer
    products b b^T and ``matrix_rank`` on every row's normal matrix."""
    basis = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=-1)
    products = (basis[..., :, None] * basis[..., None, :]).reshape(*basis.shape[:-1], 9)
    w = sigma**-2.0
    sums = np.matmul(np.stack([w, w * y], axis=-2), products)
    normal = sums[:, 0].reshape(-1, 3, 3)
    singular = np.linalg.matrix_rank(normal, hermitian=True) < 3
    normal[singular] = np.eye(3)
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
    return coef, failures


def random_cosine_row(rng, n):
    """(theta, y, sigma) of one row: spread, one-, two- or near-coincident phases, or flat."""
    kind = rng.integers(6)
    base = rng.uniform(-math.pi, math.pi)
    if kind == 0:
        theta = rng.uniform(-math.pi, math.pi, n)
    elif kind == 1:
        theta = np.full(n, base)
    elif kind == 2:
        theta = np.where(rng.random(n) < 0.5, base, base + rng.uniform(0.1, 3.0))
    elif kind == 3:  # phases 1e-9 apart: rank 1 or 2 to working precision
        theta = base + 1e-9 * rng.integers(0, 3, n)
    elif kind == 4:  # two phases 1e-9 apart and a third
        theta = np.where(rng.random(n) < 0.7, base + 1e-9 * rng.integers(0, 2, n), base + 2.0)
    else:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False) + base
    if kind == 5 or rng.random() < 0.2:
        y = np.full(n, float(rng.choice([1.0, 5.0, 500.0])))
    else:
        y = rng.uniform(-5.0, 3.0) + rng.uniform(0.0, 4.0) * np.cos(theta + base) \
            + rng.normal(0.0, 0.5, n)
    weight = 10.0 ** rng.uniform(-150.0, 150.0)  # w = sigma**-2 from 1e-150 to 1e150
    sigma = rng.uniform(0.5, 2.0, n) / math.sqrt(weight)
    if rng.random() < 0.3:
        sigma = np.full(n, sigma[0])
    return theta, y, sigma


@pytest.mark.parametrize("shared", [False, True], ids=["own-phases", "shared-phases"])
@pytest.mark.parametrize("seed", range(40))
def test_the_rank_certificate_decides_as_matrix_rank_does(seed, shared):
    # The closed-form certificate clears a row only where matrix_rank finds rank 3, so
    # every coefficient (NaN where a row failed) and every failure is the reference's.
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 8, 12, 16, 117]))
    theta, y, sigma = (np.array(column) for column in
                       zip(*(random_cosine_row(rng, n) for _ in range(int(rng.integers(1, 30))))))
    if shared:  # one phase row for the stack, as the bootstrap fits it
        theta = theta[0]
    fits = _fit_cosines(theta, y, sigma)
    coef, failures = reference_fit_cosines(theta, y, sigma)
    assert np.array_equal(fits.coef, coef, equal_nan=True)
    assert fits.failures == failures


def spy_matrix_rank(monkeypatch) -> list:
    """The list of matrices that ``np.linalg.matrix_rank`` will be called on, copied."""
    ranked, rank = [], np.linalg.matrix_rank

    def spy(m, *args, **kwargs):
        ranked.append(m.copy())
        return rank(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", spy)
    return ranked


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_no_preset_table_needs_matrix_rank(monkeypatch, name):
    # Every fit of the three routes and the bootstrap, at the preset counts and down to
    # 3 counts per point, is cleared by the certificate alone.
    ranked = spy_matrix_rank(monkeypatch)
    rc = load_preset(name)
    for counts_scale in (8600.0, 300.0, 30.0, 3.0):
        recs = simulate_scan(rc.beamline, replace(rc.plan, counts_scale=counts_scale))
        analyze_records(rc.beamline, recs, rc.settings)
        bootstrap_uncertainty(rc.beamline, recs, rc.settings, resamples=200, seed=0)
    assert ranked == []


def test_only_the_doubtful_row_goes_to_matrix_rank(monkeypatch):
    # Phases 1e-5 apart leave rank 3 with det(normal / trace) ~ 6e-13, under the
    # certificate's 1e-10; 1e-9 apart leave rank 2.  Either row alone is ranked.
    even = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    for gap, failed in ((1e-5, set()), (1e-9, {2})):
        close = np.concatenate([np.full(6, 0.3), np.full(5, 0.3 + gap), np.full(5, 2.0)])
        theta = np.stack([even, even, close, even])
        y = 50.0 + 10.0 * np.cos(theta + 0.4)
        sigma = np.sqrt(y)
        coef, failures = reference_fit_cosines(theta, y, sigma)
        with monkeypatch.context() as patch:
            ranked = spy_matrix_rank(patch)
            fits = _fit_cosines(theta, y, sigma)
        assert np.array_equal(fits.coef, coef, equal_nan=True) and fits.failures == failures
        assert set(failures) == set(failed)
        assert len(ranked) == 1 and ranked[0].shape == (1, 3, 3)
        basis = np.stack([np.ones(16), np.cos(close), np.sin(close)], axis=-1)
        np.testing.assert_allclose(ranked[0][0], (basis.T / y[2]) @ basis, rtol=1e-12)


def test_a_row_with_no_weight_is_singular_in_the_engine():
    # fit_global refuses weights that underflow to 0; the engine itself floors such a
    # row's trace, so it is ranked (as singular) and not divided by 0.
    theta = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    y = np.stack([10.0 + 3.0 * np.cos(theta + 0.3)] * 2)
    fits = _fit_cosines(theta, y, np.array([[1.0], [1e200]]) * np.ones(8))
    assert set(fits.failures) == {1} and "fit design is singular" in fits.failures[1]
    assert np.isfinite(fits.coef[0]).all() and np.isnan(fits.coef[1]).all()


# ---------------------------------------------------------------------------
# correlation grid and witness arithmetic


def test_expectation_grid_values():
    fit = fit_global(cosine_points(1.0, 0.85, 0.0))
    e, sig = expectation_grid(fit, SETTINGS)
    expected = np.array(
        [
            [
                0.85 * math.cos(a + g)
                for g in (SETTINGS.gamma1, SETTINGS.gamma2)
            ]
            for a in (SETTINGS.alpha1, SETTINGS.alpha2)
        ]
    )
    assert np.allclose(e, expected, atol=1e-9)
    assert np.allclose(np.abs(e), 0.85 / SQRT2, atol=1e-9)
    assert sig.shape == (2, 2)


def test_expectations_bounded_by_contrast():
    rng = np.random.default_rng(20240605)
    for _ in range(50):
        contrast = rng.uniform(0.05, 1.0)
        phi = rng.uniform(-math.pi, math.pi)
        fit = fit_global(cosine_points(1.0, contrast, phi))
        e, _ = expectation_grid(fit, optimal_settings(rng.uniform(-2.0, 2.0)))
        assert np.all(np.abs(e) <= contrast + 1e-9)


def test_witness_combines_four_correlations():
    e = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    result = witness(e)
    assert math.isclose(result.s, 2.0 * SQRT2, rel_tol=1e-12)
    assert result.sigma_s == 0.0
    assert result.classification == "quantum"


def test_witness_quadrature_sigma():
    e = np.zeros((2, 2))
    sig = np.array([[0.01, 0.02], [0.02, 0.04]])
    result = witness(e, sig)
    assert math.isclose(result.sigma_s, math.sqrt(0.0001 + 2 * 0.0004 + 0.0016))


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 3)), np.array([[1.0, math.nan], [0.0, 0.0]])],
)
def test_witness_rejects_bad_matrices(bad):
    with pytest.raises(ValueError):
        witness(bad)
    with pytest.raises(ValueError):
        witness(np.zeros((2, 2)), np.full((2, 2), -0.1))


def test_witness_from_contrast_values():
    assert math.isclose(witness_from_contrast(1.0), 2.0 * SQRT2, rel_tol=1e-15)
    assert math.isclose(witness_from_contrast(0.85), 2.4041630560342617, rel_tol=1e-12)
    assert math.isclose(witness_from_contrast(0.82), 2.319310242291876, rel_tol=1e-12)
    assert math.isclose(witness_from_contrast(1.0 / SQRT2), 2.0, rel_tol=1e-15)
    assert classify(witness_from_contrast(1.0 / SQRT2)) == "classical"
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            witness_from_contrast(bad)


def test_witness_from_fit_uses_shared_covariance():
    # The four correlations share (A, B, phi0); treating their sigmas as
    # independent misstates sigma_S, and the full propagation must differ.
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=4))
    fit = fit_global(single_channel_points(CFG, recs))
    full = witness_from_fit(fit, SETTINGS)
    e, sig = expectation_grid(fit, SETTINGS)
    naive = witness(e, sig)
    assert math.isclose(full.s, naive.s, rel_tol=1e-12)
    assert not math.isclose(full.sigma_s, naive.sigma_s, rel_tol=1e-3)


CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # S = E11 + E12 + E21 - E22


@pytest.mark.parametrize("kind", ["offset", "detuning"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_route_forms_s_and_its_verdict_from_its_own_correlations(name, kind):
    rc = load_preset(name)
    plan = rc.plan if kind == "offset" else replace(
        rc.plan, detunings=(-3000.0, -1500.0, 1500.0, 3000.0))
    recs = simulate_scan(rc.beamline, plan)
    report = analyze_records(rc.beamline, recs, rc.settings, scan_kind=kind)
    routes = [report.witness, report.channel_witness,
              channel_fits_witness(rc.beamline, recs, rc.settings, scan_kind=kind)[0]]
    if kind == "offset":
        routes += [report.count_witness, counts_witness(rc.beamline, recs, rc.settings)]
    else:
        assert report.count_witness is None
    for result in routes:
        assert result.s == float(np.sum(CHSH_SIGNS * result.e_matrix))
        assert result.classification == classify(result.s)


def test_chsh_value_is_the_signed_sum_of_the_joint_expectations():
    # == takes -0.0 and 0.0 as equal: an exact 0 is the one S whose sign bit may differ.
    rng = np.random.default_rng(20261020)
    for _ in range(2000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = SpinEnergyState(raw / np.linalg.norm(raw))
        settings = WitnessSettings(*rng.uniform(-20.0, 20.0, 4))
        e = [[joint_expectation(state, alpha, gamma) for gamma in (settings.gamma1,
                                                                   settings.gamma2)]
             for alpha in (settings.alpha1, settings.alpha2)]
        assert chsh_value(state, settings) == float(np.sum(CHSH_SIGNS * e))
        assert chsh_value(state, settings) == e[0][0] + e[0][1] + e[1][0] - e[1][1]


# ---------------------------------------------------------------------------
# scan reduction routes


def test_noiseless_scan_recovers_witness():
    recs = noiseless_records(CFG, PLAN)
    report = analyze_records(CFG, recs, SETTINGS)
    # Rounding model means to integer counts limits agreement, not the fit.
    assert math.isclose(report.witness.s, witness_from_contrast(0.85), abs_tol=1e-3)
    assert report.witness.classification == "quantum"
    assert math.isclose(report.fit.contrast, 0.85, abs_tol=5e-4)


def test_poisson_scan_recovers_contrast():
    hits = 0
    n_seeds = 200
    for seed in range(n_seeds):
        recs = simulate_scan(CFG, replace(PLAN, rng_seed=seed))
        fit = fit_global(single_channel_points(CFG, recs))
        if abs(fit.contrast - 0.85) <= 3.0 * fit.contrast_sigma:
            hits += 1
    assert hits >= 0.95 * n_seeds


def test_sigma_s_scales_with_counting_statistics():
    sigmas = []
    for n0 in (1e3, 1e4, 1e5):
        plan = replace(PLAN, counts_scale=n0)
        fit = fit_global(single_channel_points(CFG, noiseless_records(CFG, plan)))
        sigmas.append(witness_from_fit(fit, SETTINGS).sigma_s)
    assert math.isclose(sigmas[0] / sigmas[1], math.sqrt(10.0), rel_tol=1e-2)
    assert math.isclose(sigmas[1] / sigmas[2], math.sqrt(10.0), rel_tol=1e-2)
    assert sigmas[2] < 2e-3


def test_analysis_report_contents():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    report = analyze_records(CFG, recs, SETTINGS)
    assert len(report.points) == PLAN.n_points
    for point in report.points:
        assert math.isclose(
            point.model,
            float(report.fit.model(point.phase)),
            rel_tol=1e-12,
        )
    assert report.diagnostics["n_points"] == PLAN.n_points
    assert report.diagnostics["dof"] == PLAN.n_points - 3
    assert 0.5 < report.diagnostics["reduced_chi_square"] < 2.0
    assert abs(report.witness.s - 2.404) < 3.0 * report.witness.sigma_s + 0.01


def test_count_route_agrees_with_fit_route():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    report = analyze_records(CFG, recs, SETTINGS)
    count = report.count_witness
    assert count is not None
    # Nearest-grid readout quantizes the analyzer angles, biasing S by a few
    # hundredths; the routes stay close but are not interchangeable.
    assert abs(count.s - report.witness.s) < 0.1
    assert count.sigma_s > report.witness.sigma_s
    assert count.classification == "quantum"


def test_count_route_requires_offset_scan():
    plan = ScanPlan(currents=(-0.94,), detunings=(0.0, 100.0), counts_scale=2000.0)
    recs = simulate_scan(CFG, plan)
    with pytest.raises(ConfigError):
        counts_witness(CFG, recs, SETTINGS, scan_kind="detuning")


def tie_table(currents, offsets, n=5, drop=()):
    """Counts per (current, offset), each of its n channels a distinct count."""
    values = iter((np.random.default_rng(3).permutation(len(currents) * len(offsets) * n)
                   + 10).tolist())
    table = {(cur, off): tuple(next(values) for _ in range(n))
             for cur in currents for off in offsets}
    return {point: counts for point, counts in table.items() if point not in drop}


def count_route_e(table, alpha, gamma):
    """The count route's E on ``table`` with both alphas at alpha, both gammas at gamma."""
    records = [CountsRecord(current=cur, coord=off, counts=counts)
               for (cur, off), counts in table.items()]
    e = counts_witness(CFG, records, WitnessSettings(alpha, alpha, gamma, gamma)).e_matrix
    assert np.all(e == e[0, 0])
    return e[0, 0]


def e_of_reads(table, reads):
    """E from the counts at each (k, l)'s (current, offset, channel)."""
    return expectation_from_counts({kl: table[(cur, off)][ch]
                                    for kl, (cur, off, ch) in reads.items()})


# Exact ties at a target of the count route: guide_bl = 0 makes spin and
# energy phases odd in current and offset, and doubling a current or an
# offset doubles its phase exactly, so both of a pair lie 1.5 p from -p/2.
# The targets pi further on are won outright by a current and an offset
# placed there.
C_TIE = 1e-3
C_PI = current_for_spin_phase(CFG, math.pi)
D_TIE = 1e-3
D_PI = offset_for_energy_phase(CFG, math.pi / 5)  # its channel 2 of 5 lies at pi


def cell_reads(cur, off, ch, at_pi):
    """(k, l) reads of a cell whose 0 targets pick (cur, off, ch) and pi targets C_PI, at_pi."""
    return {(0, 0): (cur, off, ch), (0, 1): (cur, *at_pi),
            (1, 0): (C_PI, off, ch), (1, 1): (C_PI, *at_pi)}


# sign: of +-c and of +-d, the negative one; magnitude: of c and -2c, and of
# d and -2d, the smaller; channel: of two channels of one offset, the lower.
@pytest.mark.parametrize("currents, offsets, alpha, gamma, won, lost, at_pi", [
    pytest.param([-C_TIE, C_TIE, C_PI], [-D_TIE, D_TIE, D_PI], 0.0, 0.0,
                 (-C_TIE, -D_TIE, 0), (C_TIE, D_TIE, 0), (D_PI, 2), id="sign"),
    pytest.param([C_TIE, -2 * C_TIE, C_PI], [D_TIE, -2 * D_TIE, D_PI],
                 -spin_phase(CFG, C_TIE) / 2, -energy_phase(CFG, D_TIE) / 2,
                 (C_TIE, D_TIE, 0), (-2 * C_TIE, -2 * D_TIE, 0), (D_PI, 2), id="magnitude"),
    pytest.param([0.0, C_PI], [0.0], 0.0, channel_phase(CFG, "offset", 0.0, 1, 5) / 2,
                 (0.0, 0.0, 0), (0.0, 0.0, 1), (0.0, 3), id="channel"),
])
def test_count_route_breaks_exact_ties_in_the_documented_order(currents, offsets, alpha, gamma,
                                                               won, lost, at_pi):
    table = tie_table(currents, offsets)
    want = e_of_reads(table, cell_reads(*won, at_pi))
    assert count_route_e(table, alpha, gamma) == want
    assert e_of_reads(table, cell_reads(*lost, at_pi)) != want


def test_count_route_reads_only_offsets_recorded_at_the_picked_current():
    # The tied point (-c, -d) is missing, so at -c the route reads +d, while
    # the pi current, recorded at every offset, still reads -d.
    table = tie_table([-C_TIE, C_TIE, C_PI], [-D_TIE, D_TIE, D_PI], drop={(-C_TIE, -D_TIE)})
    want = e_of_reads(table, {(0, 0): (-C_TIE, D_TIE, 0), (0, 1): (-C_TIE, D_PI, 2),
                              (1, 0): (C_PI, -D_TIE, 0), (1, 1): (C_PI, D_PI, 2)})
    assert count_route_e(table, 0.0, 0.0) == want


def test_count_route_reduces_a_ragged_preset_table():
    rc = load_preset("cg4b-10khz")
    recs = simulate_scan(rc.beamline, rc.plan)
    full = counts_witness(rc.beamline, recs, rc.settings)
    ragged = [rec for rec in recs if (rec.current, rec.coord) != (-0.96, 0.005)]
    assert len(ragged) == len(recs) - 1
    result = counts_witness(rc.beamline, ragged, rc.settings)
    assert result.classification == full.classification == "quantum"
    assert abs(result.s - full.s) < 3.0 * math.hypot(result.sigma_s, full.sigma_s)


def reference_counts_witness(cfg, records, settings):
    """The count route as a loop over currents and (offset, channel) cells, with dict lookups."""
    scan = _Scan(cfg, records, "offset")
    by_point = {point: row for row, point in
                enumerate(zip(scan.currents.tolist(), scan.coords.tolist()))}
    alpha_of = dict(zip(scan.currents.tolist(), scan.alphas.tolist()))
    currents = sorted(alpha_of, key=lambda c: (abs(c), c))
    offsets = sorted({d for _, d in by_point}, key=lambda d: (abs(d), d))
    phase_of = dict(zip(scan.coords.tolist(), scan.phases.tolist()))

    def distance(a, b):
        return abs(math.remainder(a - b, 2.0 * math.pi))

    def pick_current(target):
        return min(currents, key=lambda c: (distance(alpha_of[c], target), abs(c)))

    def pick_gamma(current, target):
        best = None
        for delta in offsets:
            if (current, delta) not in by_point:
                continue
            for ch, value in enumerate(phase_of[delta]):
                key = (distance(value, target), abs(delta), ch)
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


def assert_same_witness(got, want):
    assert np.array_equal(got.e_matrix, want.e_matrix)
    assert np.array_equal(got.e_sigma, want.e_sigma)
    assert got.s == want.s and got.sigma_s == want.sigma_s


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_route_matches_the_reference_loop_on_full_and_ragged_tables(name):
    rc = load_preset(name)
    drop = np.random.default_rng(11)
    for seed in range(20):
        recs = simulate_scan(rc.beamline, replace(rc.plan, rng_seed=seed))
        ragged = [rec for rec, keep in zip(recs, drop.random(len(recs)) >= 0.3) if keep]
        for table in (recs, ragged):
            assert_same_witness(counts_witness(rc.beamline, table, rc.settings),
                                reference_counts_witness(rc.beamline, table, rc.settings))


@pytest.mark.parametrize("currents, offsets, drop", [
    ([-C_TIE, C_TIE, C_PI], [-D_TIE, D_TIE, D_PI], ()),
    ([C_TIE, -2 * C_TIE, C_PI], [D_TIE, -2 * D_TIE, D_PI], ()),
    ([0.0, C_PI], [0.0], ()),
    ([-C_TIE, C_TIE, C_PI], [-D_TIE, D_TIE, D_PI], {(-C_TIE, -D_TIE)}),
    ([-C_TIE, C_TIE, -2 * C_TIE, C_PI], [D_TIE, -D_TIE, -2 * D_TIE, D_PI],
     {(C_TIE, D_TIE), (-2 * C_TIE, -D_TIE), (C_PI, D_PI)}),
], ids=["sign", "magnitude", "channel", "sign-dropped", "ragged"])
def test_count_route_matches_the_reference_loop_on_tie_tables(currents, offsets, drop):
    records = [CountsRecord(current=cur, coord=off, counts=counts)
               for (cur, off), counts in tie_table(currents, offsets, drop=drop).items()]
    half_channel = channel_phase(CFG, "offset", 0.0, 1, 5) / 2
    targets = [0.0, -spin_phase(CFG, C_TIE) / 2, -energy_phase(CFG, D_TIE) / 2, half_channel,
               math.pi, -math.pi / 2]
    for alpha in targets:
        for gamma in targets:
            settings = WitnessSettings(alpha, alpha + 0.7, gamma, gamma - 2.1)
            assert_same_witness(counts_witness(CFG, records, settings),
                                reference_counts_witness(CFG, records, settings))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_route_reads_the_later_record_of_a_point_recorded_twice(name):
    rc = load_preset(name)
    recs = simulate_scan(rc.beamline, rc.plan)
    again = [replace(rec, counts=rec.counts[::-1]) for rec in recs]
    got = counts_witness(rc.beamline, recs + again, rc.settings)
    assert_same_witness(got, reference_counts_witness(rc.beamline, recs + again, rc.settings))
    assert_same_witness(got, counts_witness(rc.beamline, again, rc.settings))
    assert got.s != counts_witness(rc.beamline, recs, rc.settings).s


def test_wrapped_distance_equals_the_remainder_bit_for_bit():
    rng = np.random.default_rng(5)
    # Multiples of pi and their neighbours are where the wrap and the rounding meet.
    multiples = np.arange(-5000, 5000) * math.pi
    x = np.concatenate([
        rng.uniform(-50.0, 50.0, 50_000), rng.normal(0.0, 1e4, 40_000),
        multiples, np.nextafter(multiples, np.inf), np.nextafter(multiples, -np.inf),
        [0.0, -0.0, 2.0 * math.pi, 2.0**32, -(2.0**32)],
    ])
    want = np.array([abs(math.remainder(v, 2.0 * math.pi)) for v in x.tolist()])
    assert np.array_equal(_wrapped_distance(x), want)


def test_channel_route_agrees_with_single_channel_route():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    report = analyze_records(CFG, recs, SETTINGS)
    channel = report.channel_witness
    assert channel is not None
    combined = math.hypot(report.witness.sigma_s, channel.sigma_s)
    assert abs(channel.s - report.witness.s) < 3.0 * combined
    assert abs(channel.s - witness_from_contrast(0.85)) < 3.0 * channel.sigma_s + 0.01


def test_channel_route_pools_all_points():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    result, pooled = channel_fits_witness(CFG, recs, SETTINGS)
    assert pooled.mean_level == 1.0
    assert pooled.dof == PLAN.n_points * (16 - 3)
    assert math.isclose(pooled.contrast, 0.85, abs_tol=3.5 * pooled.contrast_sigma)
    assert result.classification == "quantum"
    # Pooling every channel of every point beats the single-channel fit.
    single = analyze_records(CFG, recs, SETTINGS).witness
    assert result.sigma_s < single.sigma_s


def test_channel_route_ignores_the_phase_of_a_zero_first_harmonic():
    # (1, 2, 1, 2) and (2, 1, 2, 1) have no first harmonic: each fits B to rounding
    # noise at an arbitrary phase, which S must not see.
    rc = load_preset("cg4b-10khz")
    plan = replace(rc.plan, counts_scale=40.0, rng_seed=7, time_channels_per_period=4)
    recs = simulate_scan(rc.beamline, plan)
    results = []
    for counts in ((1, 2, 1, 2), (2, 1, 2, 1)):
        recs[3] = replace(recs[3], counts=counts)
        results.append(channel_fits_witness(rc.beamline, recs, rc.settings)[0])
    assert abs(results[0].s - results[1].s) < 1e-12
    # sigma_S moves only by the channel weights 1 / max(counts, 1): they give the
    # point's (c, s) variances (1/2, 1) and (1, 1/2).  Its share of S is
    # (c Re u + s Im u) / sum A, u = e^{-i base} sum_ij sign_ij e^{i (alpha_i + gamma_j)}.
    total = sum(fit_time_series(rec, mieze_frequency(rc.beamline)).mean_level for rec in recs)
    base = single_channel_points(rc.beamline, recs)[3][0]
    s = rc.settings
    x = np.add.outer((s.alpha1, s.alpha2), (s.gamma1, s.gamma2)) - base
    u = np.sum(np.array([[1.0, 1.0], [1.0, -1.0]]) * np.exp(1j * x))
    assert math.isclose(results[0].sigma_s**2 - results[1].sigma_s**2,
                        (u.imag**2 - u.real**2) / 2.0 / total**2, rel_tol=1e-9)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_channel_route_is_calibrated_at_the_preset_counts(name):
    rc = load_preset(name)
    target = witness_from_contrast(rc.beamline.contrast)
    z = []
    for seed in range(3000, 3040):
        recs = simulate_scan(rc.beamline, replace(rc.plan, rng_seed=seed))
        result, _ = channel_fits_witness(rc.beamline, recs, rc.settings)
        z.append((result.s - target) / result.sigma_s)
    assert abs(np.mean(z)) <= 1.0
    assert 0.7 <= np.std(z, ddof=1) <= 1.4
    assert np.sum(np.abs(z) <= 3.0) >= 38


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_channel_route_is_calibrated_on_a_detuning_table(name):
    # gamma = -2 delta_omega t moves from channel to channel, so a fit over 2 pi i / n
    # alone loses contrast: each point must be fitted over its own cell phases.
    rc = load_preset(name)
    plan = replace(rc.plan, detunings=(-3000.0, -1500.0, 1500.0, 3000.0))
    target = witness_from_contrast(rc.beamline.contrast)
    z = []
    for seed in range(3000, 3040):
        recs = simulate_scan(rc.beamline, replace(plan, rng_seed=seed))
        result, _ = channel_fits_witness(rc.beamline, recs, rc.settings, scan_kind="detuning")
        z.append((result.s - target) / result.sigma_s)
    assert abs(np.mean(z)) <= 1.0
    assert 0.7 <= np.std(z, ddof=1) <= 1.4
    assert np.sum(np.abs(z) <= 3.0) >= 38


def reference_offset_channel_route(cfg, records, settings):
    """The per-point route on an offset scan, each point fitted over 2 pi i / n and its
    fitted phase then re-referenced by its channel-0 phase alpha + gamma."""
    counts = np.array([rec.counts for rec in records], dtype=float)
    base = (spin_phase(cfg, np.array([rec.current for rec in records]))
            + channel_phase(cfg, "offset", np.array([rec.coord for rec in records]), 0,
                            counts.shape[1]))
    fits = [fit_time_series(rec, mieze_frequency(cfg)) for rec in records]
    amplitude = np.array([fit.amplitude for fit in fits])
    turn = np.exp(1j * (np.array([fit.phase for fit in fits]) - base))
    total = sum(fit.mean_level for fit in fits)
    z = complex(amplitude @ turn) / total
    jac = np.stack([np.full_like(turn, -z), turn, 1j * amplitude * turn], axis=-1) / total
    jac = np.stack([jac.real, jac.imag], axis=1)
    cov_z = np.sum(jac @ np.array([fit.covariance for fit in fits]) @ jac.transpose(0, 2, 1),
                   axis=0)
    c = abs(z)
    polar = np.array([[z.real * c, z.imag * c], [-z.imag, z.real]]) / c**2
    pooled = analysis.FitResult(1.0, c, math.atan2(z.imag, z.real),
                                np.pad(polar @ cov_z @ polar.T, ((1, 0), (1, 0))),
                                sum(fit.chi_square for fit in fits), fits[0].dof * len(base))
    return witness_from_fit(pooled, settings), pooled


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_channel_route_on_an_offset_scan_matches_the_channel_0_reference(name):
    rc = load_preset(name)
    for seed in range(3000, 3010):
        recs = simulate_scan(rc.beamline, replace(rc.plan, rng_seed=seed))
        result, pooled = channel_fits_witness(rc.beamline, recs, rc.settings)
        want, want_pooled = reference_offset_channel_route(rc.beamline, recs, rc.settings)
        assert math.isclose(result.s, want.s, rel_tol=1e-13, abs_tol=0.0)
        assert math.isclose(result.sigma_s, want.sigma_s, rel_tol=1e-13, abs_tol=0.0)
        assert math.isclose(pooled.contrast, want_pooled.contrast, rel_tol=1e-13, abs_tol=0.0)
        assert math.isclose(pooled.phase, want_pooled.phase, rel_tol=0.0, abs_tol=1e-13)
        np.testing.assert_allclose(pooled.covariance, want_pooled.covariance, rtol=0.0,
                                   atol=1e-13 * np.abs(want_pooled.covariance).max())
        assert np.all(pooled.covariance[0] == 0.0) and np.all(pooled.covariance[:, 0] == 0.0)


def test_single_channel_points_validation():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    with pytest.raises(ConfigError, match="channel"):
        single_channel_points(CFG, recs, channel=16)
    with pytest.raises(ConfigError):
        single_channel_points(CFG, recs, scan_kind="angle")
    with pytest.raises(ConfigError):
        single_channel_points(CFG, [])


ROUTES = {
    "single_channel_points": lambda recs, kind: single_channel_points(CFG, recs, scan_kind=kind),
    "analyze_records": lambda recs, kind: analyze_records(CFG, recs, SETTINGS, scan_kind=kind),
    "channel_fits_witness":
        lambda recs, kind: channel_fits_witness(CFG, recs, SETTINGS, scan_kind=kind),
    "counts_witness": lambda recs, kind: counts_witness(CFG, recs, SETTINGS, scan_kind=kind),
    "bootstrap_uncertainty":
        lambda recs, kind: bootstrap_uncertainty(CFG, recs, SETTINGS, scan_kind=kind),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_records_of_unequal_width(route):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    recs[-1] = replace(recs[-1], counts=recs[-1].counts[:-1])
    with pytest.raises(ConfigError, match=r"inconsistent channel counts .*\[15, 16\]"):
        ROUTES[route](recs, "offset")


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_an_unknown_scan_kind(route):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    with pytest.raises(ConfigError, match="scan"):
        ROUTES[route](recs, "bogus")


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_an_empty_record_set(route):
    with pytest.raises(ConfigError, match="no records"):
        ROUTES[route](iter([]), "offset")


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_a_current_whose_spin_phase_overflows(route):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    recs[3] = replace(recs[3], current=1e305)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"current 1e\+305 A gives a non-finite spin phase"):
            ROUTES[route](recs, "offset")


DETUNING_PLAN = ScanPlan(
    currents=tuple(np.linspace(-1.0, -0.88, 13)),
    detunings=tuple(np.linspace(-400.0, 400.0, 9)),
    counts_scale=8600.0,
    rng_seed=5,
)


@pytest.mark.parametrize("kind, coord", [
    ("offset", 1e305), ("offset", -1e305), ("detuning", 1e308), ("detuning", -1e308),
])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_a_coordinate_whose_energy_phase_overflows(route, kind, coord):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0) if kind == "offset" else DETUNING_PLAN)
    recs[3] = replace(recs[3], coord=coord)
    unit = "m" if kind == "offset" else "rad/s"
    message = re.escape(f"{kind} {coord!r} {unit} gives a non-finite energy phase")
    if route == "counts_witness" and kind == "detuning":
        message = "requires an offset scan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            ROUTES[route](recs, kind)


@pytest.mark.parametrize("field, value, message", [
    ("current", 1e300, "current 1e+300 A gives a phase of 6.37e+301 rad, over 2**32 rad"),
    ("coord", -1e300, "offset -1e+300 m gives a phase of 8.74e+301 rad, over 2**32 rad"),
])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_a_finite_phase_with_no_digits(route, field, value, message):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    recs[3] = replace(recs[3], **{field: value})
    with pytest.raises(ConfigError, match=re.escape(message)):
        ROUTES[route](recs, "offset")


@pytest.mark.parametrize("count, shown", [(2**53 + 1, "9007199254740993"),
                                          (10**400, "an integer of 1329 bits")],
                         ids=["2**53+1", "10**400"])
def test_a_record_rejects_a_count_over_2_to_the_53(count, shown):
    rec = simulate_scan(CFG, replace(PLAN, rng_seed=0))[3]
    with pytest.raises(ConfigError, match=f"^counts must be at most 2\\*\\*53, .* got {shown}$"):
        replace(rec, counts=(count,) + rec.counts[1:])


def test_a_record_names_a_count_that_is_not_a_number():
    rec = simulate_scan(CFG, replace(PLAN, rng_seed=0))[3]
    with pytest.raises(ConfigError, match=f"^{re.escape('counts must be numbers, got nan')}$"):
        replace(rec, counts=(math.nan,) + rec.counts[1:])


@pytest.mark.parametrize("field, value, message", [
    ("current", math.nan, "current nan A gives a non-finite spin phase"),
    ("coord", math.inf, "offset inf m gives a non-finite energy phase"),
], ids=["nan-current", "inf-coord"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_names_a_current_or_coordinate_that_is_not_finite(route, field, value,
                                                                      message):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    recs[3] = replace(recs[3], **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ROUTES[route](recs, "offset")


def test_a_count_of_2_to_the_53_is_reduced():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0))
    recs[3] = replace(recs[3], counts=recs[3].counts[:5] + (2**53,) + recs[3].counts[6:])
    report = analyze_records(CFG, recs, SETTINGS)
    assert report.count_witness is not None and report.channel_witness is not None


def test_analyze_records_validates_one_scan_for_all_three_routes(monkeypatch):
    built = []

    class CountingScan(_Scan):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "_Scan", CountingScan)
    report = analyze_records(CFG, iter(simulate_scan(CFG, replace(PLAN, rng_seed=42))), SETTINGS)
    assert report.count_witness is not None and report.channel_witness is not None
    assert len(built) == 1


@pytest.mark.parametrize("kind", ["offset", "detuning"])
def test_channel_points_equal_the_phase_law_of_each_channel(kind):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=0) if kind == "offset" else DETUNING_PLAN)
    alphas = spin_phase(CFG, np.array([rec.current for rec in recs]))
    coords = np.array([rec.coord for rec in recs])
    for channel in range(16):
        phases = [point[0] for point in single_channel_points(CFG, recs, channel, kind)]
        want = alphas + channel_phase(CFG, kind, coords, channel, 16)
        assert np.array_equal(phases, want)


@pytest.mark.parametrize("route, error", [
    ("analyze_records", ConfigError),
    ("counts_witness", ConfigError),
    ("channel_fits_witness", FitError),
])
def test_records_without_time_channels_raise_a_typed_error(route, error):
    recs = [CountsRecord(current=-0.94, coord=0.0, counts=())] * 4
    with pytest.raises(error):
        ROUTES[route](recs, "offset")


def test_detuning_scan_reduces_like_offset_scan():
    plan = ScanPlan(
        currents=tuple(np.linspace(-1.0, -0.88, 13)),
        detunings=tuple(np.linspace(-400.0, 400.0, 9)),
        counts_scale=8600.0,
        rng_seed=5,
    )
    recs = simulate_scan(CFG, plan)
    report = analyze_records(CFG, recs, SETTINGS, scan_kind="detuning")
    assert report.count_witness is None
    assert abs(report.witness.s - witness_from_contrast(0.85)) \
        < 3.0 * report.witness.sigma_s + 0.01


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_matches_analytic_sigma():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    report = analyze_records(CFG, recs, SETTINGS)
    boot = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=200, seed=1)
    assert boot.failures == 0
    assert len(boot.s_values) == 200
    assert 0.7 < boot.sigma_s / report.witness.sigma_s < 1.3


def test_bootstrap_is_deterministic_and_seeded():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    b1 = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100, seed=1)
    b2 = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100, seed=1)
    b3 = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100, seed=2)
    assert b1.s_values == b2.s_values
    assert b1.s_values != b3.s_values


def test_bootstrap_draws_do_not_depend_on_the_resample_count():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    short = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100, seed=3)
    full = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=200, seed=3)
    assert short.failures == full.failures == 0
    assert short.s_values == full.s_values[:100]


def test_bootstrap_streams_are_apart_from_simulation_streams():
    for seed in (0, 42, 2**64 - 1):
        for index in range(3):
            boot = _resample_rng(seed, index).integers(0, 2**63, size=4)
            sim = _point_rng(seed, index).integers(0, 2**63, size=4)
            assert not np.array_equal(boot, sim)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bootstrap_rejects_seed_outside_64_bits(seed):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    with pytest.raises(ConfigError, match="seed"):
        bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100, seed=seed)


def test_bootstrap_rejects_too_few_resamples():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    with pytest.raises(ConfigError, match="resamples"):
        bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=99)


@pytest.mark.parametrize("resamples", [2**16 + 1, 150.5, 2**63 - 1])
def test_bootstrap_rejects_resamples_outside_the_integers_up_to_2_to_the_16(resamples):
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    with pytest.raises(ConfigError, match="resamples"):
        bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=resamples)


def test_bootstrap_takes_an_integral_float_resample_count():
    recs = simulate_scan(CFG, replace(PLAN, rng_seed=42))
    boot = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100.0)
    assert boot == bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=100)
    assert type(boot.resamples) is int


def test_bootstrap_counts_each_failed_refit():
    # Channel-0 counts of 1 at four points and 0 elsewhere: a few resamples
    # are all zero, refit to B = 0 exactly and count as failures.  The rest
    # must match one-row refits, in resample order.
    recs = [
        CountsRecord(current=cur, coord=off, counts=(int(i in (0, 30, 60, 90)),) + (5,) * 15)
        for i, (cur, off) in enumerate((c, o) for c in PLAN.currents for o in PLAN.offsets)
    ]
    boot = bootstrap_uncertainty(CFG, recs, SETTINGS, resamples=200, seed=0)
    theta, observed, _ = zip(*single_channel_points(CFG, recs))
    expected = []
    for index in range(200):
        counts = _resample_rng(0, index).poisson(observed).astype(float)
        try:
            fit = fit_global(zip(theta, counts, np.sqrt(np.maximum(counts, 1.0))))
        except FitError:
            continue
        expected.append(witness_from_fit(fit, SETTINGS).s)
    assert boot.failures == 200 - len(expected) > 0
    np.testing.assert_allclose(boot.s_values, expected, rtol=1e-12, atol=1e-12)


def full_path_s_values(cfg, recs, settings, resamples, seed):
    """Failures and surviving S of the resamples, each refitted to (A, B, phi) with covariance."""
    theta, observed, _ = (np.array(column) for column in zip(*single_channel_points(cfg, recs)))
    counts = np.array([_resample_rng(seed, index).poisson(observed)
                       for index in range(resamples)], dtype=float)
    fits = _fit_cosines(theta, counts, np.sqrt(np.maximum(counts, 1.0)))
    s = [witness_from_fit(fits.fit(row), settings).s
         for row in range(resamples) if row not in fits.failures]
    return len(fits.failures), np.array(s)


def degenerate_table():
    """Channel-0 counts of 1 at four points and 0 elsewhere: some resamples are all zero."""
    return [
        CountsRecord(current=cur, coord=off, counts=(int(i in (0, 30, 60, 90)),) + (5,) * 15)
        for i, (cur, off) in enumerate((c, o) for c in PLAN.currents for o in PLAN.offsets)
    ]


@pytest.mark.parametrize("name", [*PRESETS, "off-optimal", "degenerate"])
def test_bootstrap_s_values_match_the_full_fit_path(name):
    # The bootstrap solves only for (A, c, s); S from the full (A, B, phi) fit and its
    # E matrix must agree, resample by resample, failures dropped in resample order.
    # At optimal settings sum sign_ij sin(alpha_i + gamma_j) = 0, so S does not depend
    # on s; at the off-optimal settings it does.
    if name == "degenerate":
        cfg, recs, settings = CFG, degenerate_table(), SETTINGS
    elif name == "off-optimal":
        cfg, recs = CFG, simulate_scan(CFG, replace(PLAN, rng_seed=42))
        settings = WitnessSettings(alpha1=0.3, alpha2=1.5, gamma1=-0.5, gamma2=0.9)
    else:
        rc = load_preset(name)
        cfg, recs, settings = rc.beamline, simulate_scan(rc.beamline, rc.plan), rc.settings
    boot = bootstrap_uncertainty(cfg, recs, settings, resamples=200, seed=0)
    failures, expected = full_path_s_values(cfg, recs, settings, 200, 0)
    assert boot.failures == failures
    assert failures > 0 if name == "degenerate" else failures == 0
    np.testing.assert_allclose(boot.s_values, expected, rtol=1e-12, atol=0)


def test_bootstrap_flags_degenerate_counts():
    zeros = [
        CountsRecord(current=cur, coord=off, counts=(0,) * 16)
        for cur in PLAN.currents
        for off in PLAN.offsets
    ]
    with pytest.raises((DiagnosticError, FitError)):
        bootstrap_uncertainty(CFG, zeros, SETTINGS, resamples=100, seed=0)


def test_bootstrap_forms_no_covariance_and_no_chi_square(monkeypatch):
    # Each resample's S needs only its (A, c, s): the bootstrap inverts no normal matrix
    # (np.linalg.inv) and sums no chi-square (np.einsum), eagerly or through the
    # _CosineFits properties.  A full reduction, spied alike, does both.
    rc = load_preset("cg4b-10khz")
    recs = simulate_scan(rc.beamline, rc.plan)
    formed = []

    def spy(name, call):
        return lambda *args, **kwargs: formed.append(name) or call(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
    monkeypatch.setattr(np, "einsum", spy("einsum", np.einsum))
    for name in ("covariance", "chi_square"):
        monkeypatch.setattr(analysis._CosineFits, name,
                            property(spy(name, getattr(analysis._CosineFits, name).fget)))
    boot = bootstrap_uncertainty(rc.beamline, recs, rc.settings, resamples=200, seed=0)
    assert boot.failures == 0 and formed == []
    analyze_records(rc.beamline, recs, rc.settings)
    assert set(formed) == {"inv", "einsum", "covariance", "chi_square"}


# ---------------------------------------------------------------------------
# golden pins: every preset at its own scan seed, bootstrap seed 0

# (primary, per-point, count-ratio) (S, sigma_S), then the bootstrap
# (sigma_S, failures) of 200 resamples.
GOLDEN_WITNESS = {
    "cg4b-10khz": (
        ((2.4012420068645266, 0.003724844121553619),
         (2.4036230957757136, 0.0009484901278273625),
         (2.3762672244275014, 0.012183717707215125)),
        (0.003551471746383043, 0),
    ),
    "cg4b-100khz": (
        ((2.3138086328145997, 0.00371637088042068),
         (2.319948970163674, 0.0009452026783748524),
         (2.282111585770661, 0.012473853080493574)),
        (0.003375272156035202, 0),
    ),
    "reseda": (
        ((2.827921003028439, 0.0005210287478701772),
         (2.8282488997923556, 0.0002686947926756649),
         (2.7895776524612836, 0.010843685718349384)),
        (0.000505661124686828, 0),
    ),
}


def test_golden_witness_covers_every_preset():
    assert set(GOLDEN_WITNESS) == set(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN_WITNESS))
def test_preset_witness_routes_are_pinned(name):
    routes, (boot_sigma, boot_failures) = GOLDEN_WITNESS[name]
    rc = load_preset(name)
    recs = simulate_scan(rc.beamline, rc.plan)
    report = analyze_records(rc.beamline, recs, rc.settings)
    got = (report.witness, report.channel_witness, report.count_witness)
    for result, (s, sigma_s) in zip(got, routes):
        assert math.isclose(result.s, s, rel_tol=1e-12)
        assert math.isclose(result.sigma_s, sigma_s, rel_tol=1e-12)
    # The spread of 200 S values magnifies last-ulp changes in S by S/sigma_S.
    boot = bootstrap_uncertainty(rc.beamline, recs, rc.settings, resamples=200, seed=0)
    assert math.isclose(boot.sigma_s, boot_sigma, rel_tol=1e-10)
    assert boot.failures == boot_failures


# ---------------------------------------------------------------------------
# the phase reference: at the optimal settings every fitted route reads
# S = 2 sqrt(2) C cos(phi0), so a phase offset lowers S with the source unchanged


@pytest.mark.parametrize("preset", PRESETS)
def test_fitted_witness_is_tsirelson_times_contrast_times_cos_phase(preset):
    # Sum over the optimal settings' signs of cos(x_ij + phi0) = 2 sqrt(2) cos(phi0),
    # for the primary fit and for the per-point route's pooled fit alike.
    rc = load_preset(preset)
    rng = np.random.default_rng(1700 + PRESETS.index(preset))
    for offset in rng.uniform(-1.2, 1.2, 13).tolist():
        plan = replace(rc.plan, phase_offset=offset, rng_seed=int(rng.integers(2**32)))
        records = simulate_scan(rc.beamline, plan)
        report = analyze_records(rc.beamline, records, rc.settings)
        route, pooled = channel_fits_witness(rc.beamline, records, rc.settings)
        for s, fit in ((report.witness.s, report.fit), (route.s, pooled)):
            want = TSIRELSON_BOUND * fit.contrast * math.cos(fit.phase)
            assert abs(s - want) <= 1e-12 * abs(want)


def test_a_phase_offset_makes_an_unchanged_source_read_classical():
    # cg4b-10khz's source reads S = 2.40 at phi0 ~ 0; at a plan phase offset of
    # 0.8 rad its contrast is the same, and every route reads classical.
    rc = load_preset("cg4b-10khz")
    records = simulate_scan(rc.beamline, replace(rc.plan, phase_offset=0.8))
    report = analyze_records(rc.beamline, records, rc.settings)
    routes = (report.witness, report.channel_witness, report.count_witness)
    assert [round(route.s, 3) for route in routes] == [1.668, 1.674, 1.685]
    assert {route.classification for route in routes} == {"classical"}
    assert round(report.fit.contrast, 2) == 0.85
