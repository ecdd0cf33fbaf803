"""k-space packet engine: shapes, phase maps, peaks, envelope, coherence."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miezesim import wavepacket
from miezesim.constants import CODATA2018
from miezesim import (
    PRESETS,
    BeamlineConfig,
    ConfigError,
    PacketShape,
    ResolutionError,
    WavePacketSpec,
    apply_rf_flipper,
    apply_spin_phase_k,
    branch_intensities,
    coherence_check,
    coherence_length,
    contrast_envelope,
    current_for_spin_phase,
    detected_intensity,
    energy_phase,
    focusing_distance,
    ideal_intensity,
    initial_state,
    k_distribution,
    load_preset,
    mieze_frequency,
    pipeline_packet_state,
    position_intensity,
    spec_from_beamline,
    spin_phase,
    stationary_peak_positions,
)

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

RESEDA = BeamlineConfig(
    wavelength=0.6e-9,
    bandwidth=0.116,
    f1=45e3,
    f2=50e3,
    l1=0.085,
    l2=0.765,
    coil_cal=250e-6,
)

SPEC = spec_from_beamline(CFG)
RSPEC = spec_from_beamline(RESEDA, shape="triangular", half_span=1.5)

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def gradient_scale(cfg, delta):
    # phase-gradient spread s(delta) = omega_m * delta / (v k0) between branches
    return mieze_frequency(cfg) * delta / (cfg.velocity * cfg.k0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        WavePacketSpec(k0=-1.0, bandwidth=0.01)
    with pytest.raises(ConfigError):
        WavePacketSpec(k0=1e10, bandwidth=0.0)
    with pytest.raises(ConfigError):
        WavePacketSpec(k0=1e10, bandwidth=0.01, kappa=0.5)
    with pytest.raises(ConfigError):
        WavePacketSpec(k0=1e10, bandwidth=0.01, n_samples=32)
    with pytest.raises(ConfigError):
        WavePacketSpec(k0=1e10, bandwidth=0.01, half_span=2.0)  # gaussian needs >= 4
    # compact shapes allow tighter spans
    WavePacketSpec(k0=1e10, bandwidth=0.1, shape="triangular", half_span=1.2)


def test_spec_from_beamline_matches_config():
    assert SPEC.k0 == CFG.k0
    assert SPEC.bandwidth == CFG.bandwidth
    assert SPEC.shape is PacketShape.GAUSSIAN
    assert math.isclose(SPEC.velocity, CFG.velocity, rel_tol=1e-12)


@pytest.mark.parametrize("shape", ["gaussian", "triangular", "rectangular"])
def test_k_distribution_normalized(shape):
    spec = WavePacketSpec(shape=shape, k0=CFG.k0, bandwidth=0.05, half_span=4.0)
    k, g = k_distribution(spec)
    assert math.isclose(float(np.trapezoid(g * g, k)), 1.0, rel_tol=1e-12)
    assert np.all(g >= 0.0)


def test_rectangular_flat_in_band():
    spec = WavePacketSpec(shape="rectangular", k0=CFG.k0, bandwidth=0.05, half_span=1.0)
    _, g = k_distribution(spec)
    assert np.allclose(g, g[0], rtol=1e-12)


def test_coherence_length_values():
    # beta = lambda / (fractional bandwidth)
    assert math.isclose(coherence_length(SPEC), 275e-9, rel_tol=1e-9)
    assert math.isclose(coherence_length(RSPEC), 0.6e-9 / 0.116, rel_tol=1e-9)
    assert coherence_length(RSPEC) < 6e-9


def test_initial_state_norm():
    state = initial_state(SPEC)
    assert math.isclose(state.norm_squared(), 1.0, rel_tol=0, abs_tol=1e-9)


def test_norm_conserved_through_pipeline():
    state = initial_state(SPEC)
    for step in (
        lambda s: apply_spin_phase_k(s, 25e-6),
        lambda s: apply_rf_flipper(s, CFG.omega1, 0.0),
        lambda s: apply_rf_flipper(s, CFG.omega2, CFG.l1),
    ):
        state = step(state)
        assert math.isclose(state.norm_squared(), 1.0, rel_tol=0, abs_tol=1e-9)


def reference_pipeline_branches(cfg, spec, field_integral):
    """Per-branch [weight, theta, p, omega] after coil -> RF1 (z=0) -> RF2 (z=L1)."""
    k, _ = k_distribution(spec)
    c = CODATA2018
    up = [complex(1.0 / math.sqrt(2.0)), np.zeros_like(k), np.zeros_like(k), 0.0]
    down = list(up)
    alpha = c.neutron_mass * c.gyromagnetic_ratio * field_integral / (c.hbar * k)
    up[1], down[1] = up[1] - alpha / 2.0, down[1] + alpha / 2.0
    for omega, z in ((cfg.omega1, 0.0), (cfg.omega2, cfg.l1)):
        dp = c.neutron_mass * omega / (c.hbar * k)
        # the incoming down branch becomes up (energy raised), the incoming up becomes down
        up, down = ([down[0], down[1] - dp * z, down[2] + dp, down[3] + omega],
                    [up[0], up[1] + dp * z, up[2] - dp, up[3] - omega])
    return up, down


@pytest.mark.parametrize("coil_turns", [0.0, 0.94])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_maps_match_the_per_branch_formulas_bit_for_bit(name, coil_turns):
    # The (up, down) stacks carry the same bits as each branch mapped on its own.
    rc = load_preset(name)
    field = coil_turns * rc.beamline.coil_cal
    state = pipeline_packet_state(rc.beamline, rc.packet, field)
    up, down = reference_pipeline_branches(rc.beamline, rc.packet, field)
    stacks = (state.weights, state.theta, state.p, state.omega)
    assert [stack.shape for stack in stacks] == [(2,), (2, state.k.size), (2, state.k.size), (2,)]
    for stack, pair in zip(stacks, zip(up, down)):
        assert np.array_equal(stack, np.array(pair))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_state_s_branch_stacks_are_read_only(name):
    # The coil keeps its input's p and a flipper reverses its input's weights: a write into
    # a later state's stack would change the state it came from.  Every stack refuses it.
    rc = load_preset(name)
    field = 0.94 * rc.beamline.coil_cal
    source = initial_state(rc.packet)
    stacks = ("weights", "theta", "p", "omega")
    before = [getattr(source, stack).copy() for stack in stacks]
    states = (source, apply_spin_phase_k(source, field),
              pipeline_packet_state(rc.beamline, rc.packet, field))
    for state in states:
        for stack in stacks:
            with pytest.raises(ValueError, match="read-only"):
                getattr(state, stack)[..., 0] = 99
    for stack, kept in zip(stacks, before):
        assert np.array_equal(getattr(source, stack), kept)
    fresh = pipeline_packet_state(rc.beamline, rc.packet, field)
    for stack in stacks:
        assert np.array_equal(getattr(states[-1], stack), getattr(fresh, stack))
    # The state holds a view: the caller's own array stays writable and is not copied.
    theta = np.zeros((2, source.k.size))
    state = replace(source, theta=theta)
    theta[0, 0] = 1.0
    assert state.theta[0, 0] == 1.0 and state.theta.base is theta


def test_spin_phase_coil_identity_at_zero_field():
    state = initial_state(SPEC)
    same = apply_spin_phase_k(state, 0.0)
    assert np.array_equal(same.theta, state.theta)


def test_spin_phase_coil_matches_beamline_phase():
    # the k-resolved coil phase evaluated at k0 is the Larmor phase alpha
    current = -0.94
    bl = CFG.coil_cal * current
    state = apply_spin_phase_k(initial_state(SPEC), bl)
    relative = state.theta[1] - state.theta[0]
    at_k0 = float(np.interp(CFG.k0, state.k, relative))
    assert math.isclose(at_k0, spin_phase(CFG, current), rel_tol=1e-9)


def test_coil_splits_packet_by_one_wavelength_per_turn():
    # a 2 pi spin phase separates the branch peaks by alpha / k0 = lambda
    bl = CFG.coil_cal * current_for_spin_phase(CFG, 2.0 * math.pi)
    state = apply_spin_phase_k(initial_state(SPEC), bl)
    t = 1e-4
    z_up, z_down = stationary_peak_positions(state, t)
    assert math.isclose(abs(z_down - z_up), CFG.wavelength, rel_tol=1e-5)


def test_flipper_group_velocity_difference():
    # one flipper at omega1 makes the branches drift apart at 2 omega1 / k0
    state = apply_rf_flipper(initial_state(SPEC), CFG.omega1, 0.0)
    t1, t2 = 2e-5, 1.2e-4
    up1, down1 = stationary_peak_positions(state, t1)
    up2, down2 = stationary_peak_positions(state, t2)
    dv = ((up2 - down2) - (up1 - down1)) / (t2 - t1)
    want = 2.0 * CFG.omega1 / CFG.k0
    assert math.isclose(want, 4.95e-5, rel_tol=1e-3)
    assert math.isclose(dv, want, rel_tol=1e-5)


def test_branch_separation_at_second_flipper():
    # after L1 of flight the branches sit 2 omega1 L1 / (k0 v) apart, well
    # inside the 275 nm coherence length
    state = apply_rf_flipper(initial_state(SPEC), CFG.omega1, 0.0)
    t = CFG.l1 / CFG.velocity
    z_up, z_down = stationary_peak_positions(state, t)
    want = 2.0 * CFG.omega1 * CFG.l1 / (CFG.k0 * CFG.velocity)
    assert math.isclose(abs(z_up - z_down), want, rel_tol=1e-5)
    assert math.isclose(want, 5.85e-9, rel_tol=1e-2)
    assert want < coherence_length(SPEC) / 40.0


def test_peaks_reconverge_at_focus():
    state = pipeline_packet_state(CFG, SPEC)
    focus = CFG.l1 + focusing_distance(CFG)
    t_det = focus / CFG.velocity
    z_up, z_down = stationary_peak_positions(state, t_det)
    assert abs(z_up - z_down) < 1e-12
    assert math.isclose(z_up, focus, rel_tol=0, abs_tol=1e-9)


def test_peak_prediction_matches_argmax():
    state = apply_rf_flipper(initial_state(SPEC), CFG.omega1, 0.0)
    t = CFG.l1 / CFG.velocity
    z_up, z_down = stationary_peak_positions(state, t)
    center = CFG.velocity * t
    z = np.linspace(center - 2e-7, center + 2e-7, 1201)
    cell = z[1] - z[0]
    i_up, i_down = branch_intensities(state, z, t)
    assert abs(z[np.argmax(i_up)] - z_up) <= cell
    assert abs(z[np.argmax(i_down)] - z_down) <= cell


def test_position_intensity_peaks_at_center():
    state = initial_state(SPEC)
    t = 5e-5
    center = CFG.velocity * t
    z = np.linspace(center - 2e-7, center + 2e-7, 801)
    profile = position_intensity(state, z, t)
    assert abs(z[np.argmax(profile)] - center) <= z[1] - z[0]


def test_detected_focus_cosine_matches_ideal_model():
    state = pipeline_packet_state(CFG, SPEC)
    omega_m = mieze_frequency(CFG)
    focus = CFG.l1 + focusing_distance(CFG)
    t0 = focus / CFG.velocity
    period = 2.0 * math.pi / omega_m
    times = t0 + np.arange(32) * period / 32.0
    samples = np.array(
        [detected_intensity(state, focus, t, spin_projection=0.0) for t in times]
    )
    ideal_cfg = replace(CFG, contrast=1.0, mean_level=0.5)
    # the packet quadrature should reproduce the idealized signal within 1%
    reference_phase = np.array(
        [ideal_intensity(ideal_cfg, 0.0, 0.0, t - t0) for t in times]
    )
    # allow a global time-origin phase between the two conventions
    design = np.column_stack(
        [np.ones_like(times), np.cos(omega_m * times), np.sin(omega_m * times)]
    )
    coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
    contrast = math.hypot(coef[1], coef[2]) / coef[0]
    assert contrast >= 0.99
    assert math.isclose(coef[0], 0.5, rel_tol=0.01)
    assert np.max(np.abs(design @ coef - samples)) < 0.01
    assert math.isclose(np.mean(samples), np.mean(reference_phase), rel_tol=0.01)


def test_detected_phase_tracks_detector_offset():
    # moving the detector by delta shifts the fitted time phase by gamma(delta)
    state = pipeline_packet_state(CFG, SPEC)
    omega_m = mieze_frequency(CFG)
    focus = CFG.l1 + focusing_distance(CFG)
    times = focus / CFG.velocity + np.arange(32) * (2.0 * math.pi / omega_m) / 32.0

    def fitted_phase(z):
        vals = np.array(
            [detected_intensity(state, z, t, spin_projection=0.0) for t in times]
        )
        design = np.column_stack(
            [np.ones_like(times), np.cos(omega_m * times), np.sin(omega_m * times)]
        )
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        return math.atan2(-coef[2], coef[1])

    base = fitted_phase(focus)
    for delta in (0.010, 0.035, 0.070):
        shift = math.remainder(fitted_phase(focus + delta) - base, 2.0 * math.pi)
        gamma = math.remainder(energy_phase(CFG, delta), 2.0 * math.pi)
        assert math.isclose(shift, gamma, rel_tol=0, abs_tol=1e-3)


def test_detected_intensity_unprojected_is_flat():
    state = pipeline_packet_state(CFG, SPEC)
    focus = CFG.l1 + focusing_distance(CFG)
    t0 = focus / CFG.velocity
    values = [detected_intensity(state, focus, t0 + dt) for dt in (0.0, 1e-5, 3e-5)]
    assert np.allclose(values, values[0], rtol=1e-12)


def test_gaussian_envelope_matches_closed_form():
    # |g|^2-weighted dephasing of a gaussian: contrast = exp(-sigma_k^2 s^2 / 2)
    sigma_k = CFG.k0 * CFG.bandwidth / FWHM_TO_SIGMA
    beta = coherence_length(SPEC)
    delta_beta = beta * CFG.velocity * CFG.k0 / mieze_frequency(CFG)
    deltas = [0.25 * delta_beta, 0.5 * delta_beta, delta_beta]
    for delta, contrast in contrast_envelope(CFG, SPEC, deltas):
        want = math.exp(-0.5 * (sigma_k * gradient_scale(CFG, delta)) ** 2)
        assert math.isclose(contrast, want, rel_tol=0, abs_tol=1e-5)


def test_gaussian_contrast_at_coherence_length():
    # where the branch phase gradient spans one coherence length the fringe
    # visibility collapses to exp(-(2 pi / 2.3548)^2 / 2) = 0.0284
    beta = coherence_length(SPEC)
    delta_beta = beta * CFG.velocity * CFG.k0 / mieze_frequency(CFG)
    [(_, contrast)] = contrast_envelope(CFG, SPEC, [delta_beta])
    assert math.isclose(contrast, 0.02845, rel_tol=0, abs_tol=1e-4)
    assert contrast < 0.5


def test_triangular_envelope_matches_sinc_squared():
    half_base = RESEDA.k0 * RESEDA.bandwidth / 2.0
    for delta, contrast in contrast_envelope(RESEDA, RSPEC, [0.075, 0.15, 0.30]):
        x = half_base * gradient_scale(RESEDA, delta) / 2.0
        want = (math.sin(x) / x) ** 2
        assert math.isclose(contrast, want, rel_tol=0, abs_tol=2e-3)


def test_envelope_symmetric_and_unimodal():
    deltas = [-0.3, -0.15, -0.075, 0.0, 0.075, 0.15, 0.3]
    env = dict(contrast_envelope(RESEDA, RSPEC, deltas))
    for d in (0.075, 0.15, 0.3):
        assert math.isclose(env[d], env[-d], rel_tol=0, abs_tol=1e-9)
    ordered = [env[d] for d in (0.0, 0.075, 0.15, 0.3)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert env[0.0] > 0.999


def test_envelope_width_scales_inversely_with_bandwidth():
    # 58x more bandwidth shrinks the half-contrast offset by the same factor
    narrow = replace(RESEDA, bandwidth=0.002)
    nspec = spec_from_beamline(narrow, shape="triangular", half_span=1.5)
    wide_at = dict(contrast_envelope(RESEDA, RSPEC, [0.3]))[0.3]
    narrow_at = dict(contrast_envelope(narrow, nspec, [0.3 * 0.116 / 0.002]))[
        0.3 * 0.116 / 0.002
    ]
    assert math.isclose(wide_at, narrow_at, rel_tol=0, abs_tol=2e-3)


def test_flat_envelope_over_offset_scan():
    # 0.2% bandwidth keeps the contrast above 0.99 across +-35 mm
    for _, contrast in contrast_envelope(CFG, SPEC, [-0.035, 0.0, 0.035]):
        assert contrast > 0.99


def sampled_contrast(cfg, spec, delta, n_time=32):
    """Reference envelope: linear cosine fit of one beat period of detected samples."""
    omega_m = mieze_frequency(cfg)
    state = pipeline_packet_state(cfg, spec)
    z = cfg.l1 + focusing_distance(cfg, 0.0) + delta
    times = np.arange(n_time) * (2.0 * math.pi / omega_m / n_time)
    samples = [detected_intensity(state, z, t, spin_projection=0.0) for t in times]
    design = np.column_stack(
        [np.ones_like(times), np.cos(omega_m * times), np.sin(omega_m * times)]
    )
    coef, *_ = np.linalg.lstsq(design, np.array(samples), rcond=None)
    return math.hypot(coef[1], coef[2]) / coef[0]


@pytest.mark.parametrize("name", PRESETS)
def test_envelope_matches_sampled_cosine_fit(name):
    rc = load_preset(name)
    deltas = sorted(set(rc.plan.offsets) | {0.0})
    for delta, contrast in contrast_envelope(rc.beamline, rc.packet, deltas):
        want = sampled_contrast(rc.beamline, rc.packet, delta)
        assert math.isclose(contrast, want, rel_tol=0, abs_tol=1e-12)


def test_envelope_resolution_guard_raises():
    # 1 km off focus the relative phase outruns the 1.5-half-base RESEDA grid
    state = pipeline_packet_state(RESEDA, RSPEC)
    far = RESEDA.l1 + focusing_distance(RESEDA) + 1000.0
    with pytest.raises(ResolutionError):
        detected_intensity(state, far, 0.0, spin_projection=0.0)
    with pytest.raises(ResolutionError):
        contrast_envelope(RESEDA, RSPEC, [0.3, 1000.0])


def test_resolution_guard_raises_instead_of_aliasing():
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + CFG.l2) / CFG.velocity
    with pytest.raises(ResolutionError):
        position_intensity(state, CFG.velocity * t + 1.0, t)


# ---------------------------------------------------------------------------
# k-space quadrature against the full-grid trapezoid


def full_grid_fields(state, z, t):
    """Branch fields from a full Z x K trapezoid of g e^{i(theta + p z + (k - k0)(z - v t))}."""
    zcol = np.asarray(z, dtype=float)[:, None]
    v = state.spec.velocity
    fields = []
    for w, theta, p, om in zip(state.weights.tolist(), state.theta, state.p, state.omega.tolist()):
        phase = theta + p * zcol + (state.k - state.spec.k0) * (zcol - v * t)
        amp = np.trapezoid(state.g * np.exp(1j * phase), state.k, axis=-1)
        fields.append(w * np.exp(-1j * om * t) * amp)
    return fields


def criterion_6_setup():
    cfg = load_preset("cg4b-10khz").beamline
    spec = WavePacketSpec(shape="gaussian", k0=cfg.k0, bandwidth=0.002, kappa=1.0,
                          n_samples=4096, half_span=6.0)
    stages = [initial_state(spec)]
    stages.append(apply_spin_phase_k(stages[-1], 0.94 * cfg.coil_cal))
    stages.append(apply_rf_flipper(stages[-1], cfg.omega1, 0.0))
    stages.append(apply_rf_flipper(stages[-1], cfg.omega2, cfg.l1))
    v = cfg.velocity
    focus = cfg.l1 + focusing_distance(cfg)
    times = [1e-5, cfg.l1 / v, (cfg.l1 + 0.3) / v, focus / v]
    return stages, times


def test_quadrature_matches_full_grid_trapezoid():
    stages, times = criterion_6_setup()
    for state in stages:
        for t in times:
            z_up, z_down = stationary_peak_positions(state, t)
            center = 0.5 * (z_up + z_down)
            z = np.linspace(center - 2e-7, center + 2e-7, 101)
            up, down = full_grid_fields(state, z, t)
            i_up, i_down = branch_intensities(state, z, t)
            np.testing.assert_allclose(i_up, np.abs(up) ** 2, rtol=1e-12, atol=0)
            np.testing.assert_allclose(i_down, np.abs(down) ** 2, rtol=1e-12, atol=0)
            np.testing.assert_allclose(position_intensity(state, z, t),
                                       np.abs(up) ** 2 + np.abs(down) ** 2, rtol=1e-12, atol=0)
            projected = np.abs(up + np.exp(-0.7j) * down) ** 2 / 2.0
            np.testing.assert_allclose(position_intensity(state, z, t, spin_projection=0.7),
                                       projected, rtol=1e-12, atol=0)


def test_resolution_guard_checks_the_window_ends():
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + CFG.l2) / CFG.velocity
    center = CFG.velocity * t
    z = np.array([center - 1e-7, center, center + 1.0])
    branch_intensities(state, z[:-1], t)
    with pytest.raises(ResolutionError):
        branch_intensities(state, z, t)

    state = pipeline_packet_state(RESEDA, RSPEC)
    focus = RESEDA.l1 + focusing_distance(RESEDA)
    z = np.array([focus, focus + 0.3, focus + 1000.0])
    detected_intensity(state, z[:-1], 0.0, spin_projection=0.0)
    with pytest.raises(ResolutionError):
        detected_intensity(state, z, 0.0, spin_projection=0.0)


def test_resolution_guard_rejects_a_window_whose_phase_overflows():
    # At z = 1e308 the end-plane phases overflow to inf and their k steps are NaN,
    # which a plain "step > limit" test would let through.
    rc = load_preset("reseda")
    state = pipeline_packet_state(rc.beamline, rc.packet)
    with pytest.raises(ResolutionError, match="phase overflows on the relative branch"):
        detected_intensity(state, 1e308, 0.0, spin_projection=0.0)
    with pytest.raises(ResolutionError, match="phase overflows on the up branch"):
        branch_intensities(state, [1e308, 5e307], 0.0)
    with pytest.raises(ResolutionError, match="phase overflows on the relative branch"):
        contrast_envelope(rc.beamline, rc.packet, [1e308])


@pytest.mark.parametrize("offsets, message", [
    ([math.nan], "offsets must be finite, got \\[nan\\]"),
    ([0.1, -math.inf], "offsets must be finite"),
    ([[0.1, 0.2]], "offsets must be a sequence of numbers, got \\[\\[0.1, 0.2\\]\\]"),
    (["0.1x"], "offsets must be a sequence of numbers"),
    (0.1, "offsets must be a sequence of numbers, got 0.1"),
], ids=["nan", "inf", "nested", "text", "scalar"])
def test_envelope_rejects_offsets_that_are_not_finite_numbers(offsets, message):
    with pytest.raises(ValueError, match=message):
        contrast_envelope(RESEDA, RSPEC, offsets)


def test_transport_grid_peak_memory_is_one_phasor_array():
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    z_up, z_down = stationary_peak_positions(state, t)
    center = 0.5 * (z_up + z_down)
    z = np.linspace(center - 2e-7, center + 2e-7, 1201)
    one_array = z.size * state.k.size * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        branch_intensities(state, z, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * one_array


def test_coherence_check_limits():
    chk = coherence_check(0.0, SPEC)
    assert chk.satisfied
    assert chk.n_limit == 50.0  # kappa / (10 * 0.002)
    assert math.isinf(chk.margin)

    # full -1.0 A current scan: about ten precessions, comfortably inside
    alpha_max = abs(spin_phase(CFG, -1.0))
    chk_alpha = coherence_check(alpha_max, SPEC)
    assert chk_alpha.satisfied
    assert 9.0 < chk_alpha.n_precessions < 11.0
    assert chk_alpha.margin > 4.0

    # 0.12 A span of currents is barely more than one precession
    chk_span = coherence_check(abs(spin_phase(CFG, 0.12)), SPEC)
    assert chk_span.satisfied
    assert math.isclose(chk_span.n_precessions, 1.2, rel_tol=0.02)

    # energy side: 70 mm is just under one precession
    chk_gamma = coherence_check(abs(energy_phase(CFG, 0.070)), SPEC)
    assert chk_gamma.satisfied
    assert math.isclose(chk_gamma.n_precessions, 0.97, rel_tol=0.01)


def test_coherence_check_violation():
    # the broad-band triangular beam tolerates less than one precession
    chk = coherence_check(2.0 * math.pi * 2.0, RSPEC)
    assert math.isclose(chk.n_limit, 1.0 / (10.0 * 0.116), rel_tol=1e-12)
    assert not chk.satisfied
    assert chk.margin < 1.0


def test_coherence_check_scales_with_kappa():
    loose = replace(SPEC, kappa=3.0)
    assert coherence_check(0.0, loose).n_limit == 150.0


def test_length_one_z_array_returns_an_array():
    # A scalar z gives floats; any 1-d z, length 1 included, gives arrays.
    state = pipeline_packet_state(CFG, SPEC)
    focus = CFG.l1 + focusing_distance(CFG)
    t = focus / CFG.velocity
    z = np.array([focus])
    calls = [
        lambda zz: detected_intensity(state, zz, t, spin_projection=0.0),
        lambda zz: detected_intensity(state, zz, t),
        lambda zz: position_intensity(state, zz, t, spin_projection=0.0),
        lambda zz: position_intensity(state, zz, t),
        lambda zz: branch_intensities(state, zz, t)[0],
        lambda zz: branch_intensities(state, zz, t)[1],
    ]
    for call in calls:
        scalar, array = call(focus), call(z)
        assert isinstance(scalar, float)
        assert isinstance(array, np.ndarray) and array.shape == (1,)
        assert array[0] == scalar


def test_empty_window_gives_empty_arrays():
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + focusing_distance(CFG)) / CFG.velocity
    outputs = [
        *branch_intensities(state, [], t),
        position_intensity(state, [], t),
        position_intensity(state, np.array([]), t, spin_projection=0.0),
        detected_intensity(state, [], t, spin_projection=0.0),
        detected_intensity(state, [], t),
    ]
    for out in outputs:
        assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_envelope_at_no_offsets_is_empty():
    assert contrast_envelope(CFG, SPEC, []) == []


def test_non_finite_z_or_t_is_rejected():
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + focusing_distance(CFG)) / CFG.velocity
    for z, at in (([math.nan], t), ([CFG.l1], math.inf)):
        with pytest.raises(ValueError, match="z and t must be finite"):
            branch_intensities(state, z, at)


def test_stationary_peaks_reject_a_non_finite_time():
    state = pipeline_packet_state(CFG, SPEC)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            stationary_peak_positions(state, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_packet_maps_reject_non_finite_arguments(bad):
    source = initial_state(SPEC)
    with pytest.raises(ValueError, match=f"^field integral must be finite, got {bad!r}$"):
        apply_spin_phase_k(source, bad)
    with pytest.raises(ValueError, match=f"^z_flipper must be finite, got {bad!r}$"):
        apply_rf_flipper(source, CFG.omega1, bad)
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + focusing_distance(CFG)) / CFG.velocity
    with pytest.raises(ValueError, match="^spin projection angle must be finite$"):
        detected_intensity(state, CFG.l1, t, spin_projection=bad)
    with pytest.raises(ValueError, match=f"^phase must be finite, got {bad!r}$"):
        coherence_check(bad, SPEC)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_rf_flipper_needs_a_positive_frequency(omega):
    with pytest.raises(ValueError, match=f"^omega must be positive, got {omega!r}$"):
        apply_rf_flipper(initial_state(SPEC), omega, 0.0)


def test_multi_dimensional_z_is_rejected_before_any_quadrature(monkeypatch):
    state = pipeline_packet_state(CFG, SPEC)
    focus = CFG.l1 + focusing_distance(CFG)
    t = focus / CFG.velocity

    def no_quadrature(*args):
        raise AssertionError("a k integral was computed")

    monkeypatch.setattr(wavepacket, "_k_integral", no_quadrature)
    calls = [
        lambda zz: branch_intensities(state, zz, t),
        lambda zz: position_intensity(state, zz, t),
        lambda zz: position_intensity(state, zz, t, spin_projection=0.0),
        lambda zz: detected_intensity(state, zz, t, spin_projection=0.0),
        lambda zz: detected_intensity(state, zz, t),
    ]
    for z in (np.full((2, 3), focus), np.full((1, 1), focus), np.empty((0, 2))):
        for call in calls:
            with pytest.raises(ValueError, match="z must be a scalar or a 1-d array"):
                call(z)


def test_resolution_guard_names_the_first_branch_that_fails():
    # A theta step of 1 rad per k sample exceeds the pi/4 limit at any plane.
    state = pipeline_packet_state(CFG, SPEC)
    t = (CFG.l1 + focusing_distance(CFG)) / CFG.velocity
    z = transport_window(state, t)
    rough = np.arange(state.k.size, dtype=float)
    with pytest.raises(ResolutionError, match="on the down branch"):
        branch_intensities(replace(state, theta=np.stack([state.theta[0], rough])), z, t)
    with pytest.raises(ResolutionError, match="on the up branch"):
        branch_intensities(replace(state, theta=np.stack([rough, rough])), z, t)


# ---------------------------------------------------------------------------
# the two quadrature paths: the Chebyshev series over a window with more
# planes than the series has terms, direct otherwise


@pytest.fixture
def quadrature_paths(monkeypatch):
    """The path each k-integral takes, in call order: "series" or "direct"."""
    taken = []
    series = wavepacket._chebyshev_k_sum

    def spy(*args):
        out = series(*args)
        taken.append("direct" if out is None else "series")
        return out

    monkeypatch.setattr(wavepacket, "_chebyshev_k_sum", spy)
    return taken


def direct_only(monkeypatch):
    monkeypatch.setattr(wavepacket, "_chebyshev_k_sum", lambda *args: None)


def transport_window(state, t, planes=1201):
    z_up, z_down = stationary_peak_positions(state, t)
    center = 0.5 * (z_up + z_down)
    return np.linspace(center - 2e-7, center + 2e-7, planes)


def test_series_quadrature_matches_direct_on_transport_grids(quadrature_paths, monkeypatch):
    stages, times = criterion_6_setup()
    windows = [(state, t, transport_window(state, t)) for state in stages for t in times]
    series = [wavepacket._branch_fields(state, z, t) for state, t, z in windows]
    assert quadrature_paths == ["series"] * len(windows)
    # The direct sum at one plane does not depend on the others, so every 8th
    # plane is checked: the 151 samples run from end plane to end plane, so
    # they test the Chebyshev series across the whole window.
    direct_only(monkeypatch)
    for (state, t, z), fields in zip(windows, series):
        for field, want in zip(fields, wavepacket._branch_fields(state, z[::8], t)):
            assert np.max(np.abs(field[::8] - want)) <= 1e-13 * np.max(np.abs(field))


def test_nudged_non_uniform_and_unsorted_windows_take_the_series(quadrature_paths, monkeypatch):
    # The series holds at any plane inside the window, so a window need be
    # neither uniform nor sorted, and 42 planes suffice where the series has
    # 41 terms (a transport window's reach is about 11.6 rad, degree 40).
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    rng = np.random.default_rng(13)
    uniform = transport_window(state, t, 201)
    nudged = uniform.copy()
    nudged[100] += 1e-12
    windows = [
        nudged,
        np.r_[uniform[0], np.sort(rng.uniform(uniform[0], uniform[-1], 199)), uniform[-1]],
        rng.uniform(uniform[0], uniform[-1], 201),
        rng.permutation(uniform),
        transport_window(state, t, 42),
        transport_window(state, t, 63),
    ]
    series = [wavepacket._branch_fields(state, z, t) for z in windows]
    assert quadrature_paths == ["series"] * len(windows)
    direct_only(monkeypatch)
    for z, fields in zip(windows, series):
        for field, want in zip(fields, wavepacket._branch_fields(state, z, t)):
            assert np.max(np.abs(field - want)) <= 1e-13 * np.max(np.abs(field))


def test_window_whose_spacing_overflows_takes_the_direct_path(quadrature_paths):
    # Without rotation (no flipper) the relative phase is flat in z, so the
    # guard passes however far apart the planes are.
    state = initial_state(SPEC)
    z = np.r_[-1e308, np.linspace(-1e307, 1e307, 98), 1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        got = detected_intensity(state, z, 0.0, spin_projection=0.0)
    assert quadrature_paths == ["direct"]
    np.testing.assert_allclose(got, 1.0, rtol=1e-12)


def test_window_whose_spacing_overflows_warns_nothing(quadrature_paths):
    state = initial_state(SPEC)
    z = np.r_[-1e308, np.linspace(-1e307, 1e307, 98), 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = detected_intensity(state, z, 0.0, spin_projection=0.0)
    assert quadrature_paths == ["direct"]
    np.testing.assert_allclose(got, 1.0, rtol=1e-12)


def test_short_window_takes_the_direct_path(quadrature_paths, monkeypatch):
    # Each preset's plan envelope and 15-offset default envelope: 9 or 15
    # offsets whose series need 23 to 73 terms.
    windows = []
    for name in sorted(PRESETS):
        rc = load_preset(name)
        for deltas in (sorted(set(rc.plan.offsets) | {0.0}),
                       [(-35.0 + 5.0 * i) * 1e-3 for i in range(15)]):
            windows.append((rc, deltas))
    envelopes = [contrast_envelope(rc.beamline, rc.packet, deltas) for rc, deltas in windows]
    assert quadrature_paths == ["direct"] * len(windows)
    direct_only(monkeypatch)
    for (rc, deltas), envelope in zip(windows, envelopes):
        assert envelope == contrast_envelope(rc.beamline, rc.packet, deltas)


def test_detected_intensity_on_a_uniform_window_matches_the_direct_path(quadrature_paths):
    state = pipeline_packet_state(CFG, SPEC)
    focus = CFG.l1 + focusing_distance(CFG)
    t = focus / CFG.velocity
    z = np.linspace(focus - 0.07, focus + 0.07, 201)
    got = detected_intensity(state, z, t, spin_projection=0.3)
    assert quadrature_paths == ["series"]
    want = [detected_intensity(state, plane, t, spin_projection=0.3) for plane in z]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_transport_grid_peak_memory_is_far_below_one_phasor_array():
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    z = transport_window(state, t)
    tracemalloc.start()
    try:
        branch_intensities(state, z, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def centred_window(state, t, half_width, planes):
    center = np.mean(stationary_peak_positions(state, t))
    return np.linspace(center - half_width, center + half_width, planes)


def chebyshev_degree(reach):
    # The documented rule: the least N with (A/2)^(N+1) / (N+1)! < 1e-18.
    n = 1
    while (reach / 2.0) ** (n + 1) / math.factorial(n + 1) >= 1e-18:
        n += 1
    return n


def direct_sum(weights, offset, slope, u):
    return np.einsum("zk,k->z", wavepacket._phasors(u, slope, offset), weights)


def test_wide_window_matches_the_direct_path(quadrature_paths, monkeypatch):
    # A +-0.8 um window reaches max|slope| * h ~ 47 rad, four times a
    # transport window, and needs a series of degree 95.
    stages, times = criterion_6_setup()
    windows = [(stages[-1], t, centred_window(stages[-1], t, 8e-7, 401)) for t in times]
    series = [wavepacket._branch_fields(state, z, t) for state, t, z in windows]
    assert quadrature_paths == ["series"] * len(windows)
    direct_only(monkeypatch)
    for (state, t, z), fields in zip(windows, series):
        for field, want in zip(fields, wavepacket._branch_fields(state, z[::4], t)):
            assert np.max(np.abs(field[::4] - want)) <= 1e-13 * np.max(np.abs(field))


def test_window_needing_a_point_per_plane_takes_the_direct_path(quadrature_paths, monkeypatch):
    # Reach ~58 rad needs more than 64 points, so 64 planes are summed directly;
    # 401 planes over the same span take the series path.
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    branch_intensities(state, centred_window(state, t, 1e-6, 401), t)
    assert quadrature_paths == ["series"]
    quadrature_paths.clear()
    z = centred_window(state, t, 1e-6, 64)
    got = branch_intensities(state, z, t)
    assert quadrature_paths == ["direct"]
    direct_only(monkeypatch)
    for values, want in zip(got, branch_intensities(state, z, t)):
        assert np.array_equal(values, want)


def test_window_of_identical_planes_takes_the_direct_path(quadrature_paths, monkeypatch):
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    z = np.full(64, np.mean(stationary_peak_positions(state, t)))
    got = branch_intensities(state, z, t)
    assert quadrature_paths == ["direct"]
    direct_only(monkeypatch)
    for values, want in zip(got, branch_intensities(state, z, t)):
        assert np.all(np.isfinite(values)) and np.array_equal(values, want)


def test_planes_at_the_centre_and_ends_of_the_window_take_the_series(phasor_rows):
    # Planes at exact multiples of 2^-30 m: the centre plane is the window's
    # mid-point, x = 0, and the end planes x = +-1, where the series is summed
    # as at any other plane.
    rng = np.random.default_rng(11)
    u = np.arange(-200, 201) * 2.0**-30
    reach = 12.5
    assert chebyshev_degree(reach) % 2 == 0
    slope = np.linspace(-reach, reach, 512) / u[-1]
    weights = rng.normal(size=512) + 1j * rng.normal(size=512)
    offset = rng.uniform(-np.pi, np.pi, 512)
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert np.all(np.isfinite(got))
    assert sum(phasor_rows) == 0
    want = direct_sum(weights, offset, slope, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(weights))


def test_reversed_window_gives_the_reversed_result(quadrature_paths):
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]
    z = transport_window(state, t)
    forward = wavepacket._branch_fields(state, z, t)
    backward = wavepacket._branch_fields(state, z[::-1], t)
    assert quadrature_paths == ["series"] * 2
    for field, reversed_field in zip(forward, backward):
        assert np.array_equal(reversed_field, field[::-1])


# ---------------------------------------------------------------------------
# the Jacobi-Anger series summed at every plane, with no phasor row, whether or
# not a plane maps to x = -1, 0 or +1 exactly


@pytest.fixture
def phasor_rows(monkeypatch):
    """The number of planes of every phasor block built, in call order."""
    rows = []
    phasors = wavepacket._phasors

    def spy(u, slope, offset):
        rows.append(u.size)
        return phasors(u, slope, offset)

    monkeypatch.setattr(wavepacket, "_phasors", spy)
    return rows


def random_sum(seed, reach, half, offset_scale=math.pi, k=512):
    """Weights, offsets and slopes of a k-sum whose reach over half-width ``half`` is ``reach``."""
    rng = np.random.default_rng(seed)
    slope = np.r_[-reach, reach, rng.uniform(-reach, reach, k - 2)] / half
    weights = rng.normal(size=k) + 1j * rng.normal(size=k)
    offset = rng.uniform(-offset_scale, offset_scale, k)
    return weights, offset, slope


@pytest.mark.parametrize("reach, degree", [(12.0, 41), (12.5, 42), (89.5, 155), (90.0, 156)])
def test_dyadic_window_matches_the_direct_sum_up_to_the_largest_degree(phasor_rows, reach,
                                                                       degree):
    # Planes at exact multiples of 2^-30 m map to x = -1, 0 and +1 exactly.
    # Next to +-1 the recurrence for T_n can amplify rounding by up to about
    # n^2, so both degree parities are checked up to the largest reach, 90.
    u = np.arange(-200, 201) * 2.0**-30
    assert chebyshev_degree(reach) == degree
    weights, offset, slope = random_sum(21, reach, u[-1])
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert sum(phasor_rows) == 0
    want = direct_sum(weights, offset, slope, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(weights))


@pytest.mark.parametrize("reach", [12.0, 12.5, 47.0, 48.0])
@pytest.mark.parametrize("centre", [-7.0, 3.0, 40.0])
def test_off_centre_window_with_large_offsets_matches_the_direct_sum(reach, centre):
    # mid = centre * half, so slope * mid reaches centre * reach rad, on top
    # of offsets up to 1e3 rad; both degree parities are covered.
    half = 2e-7
    u = (centre + np.linspace(-1.0, 1.0, 301)) * half
    weights, offset, slope = random_sum(int(reach * 10 + centre), reach, half, 1e3)
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert got is not None
    want = direct_sum(weights, offset, slope, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(weights))


def test_window_with_no_plane_on_a_point_builds_no_phasor_row(phasor_rows):
    # Over [0.1, 0.2] the window's centre and half-width are inexact, so its
    # end planes map just off +-1 and an even plane count has no centre plane.
    u = np.linspace(0.1, 0.2, 300)
    weights, offset, slope = random_sum(29, 12.5, 0.05)
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert sum(phasor_rows) == 0
    want = direct_sum(weights, offset, slope, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(weights))


def test_stacked_rows_of_different_reach_match_their_direct_sums(phasor_rows):
    # The degree comes from the larger reach (12.5, even); both rows are
    # summed from the series at every plane, the ends and the centre too.
    u = np.arange(-200, 201) * 2.0**-30
    rows = [random_sum(31, 12.5, u[-1]), random_sum(37, 3.0, u[-1])]
    weights, offset, slope = (np.stack(parts) for parts in zip(*rows))
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert got.shape == (2, u.size)
    assert phasor_rows == []
    for values, (row_weights, row_offset, row_slope) in zip(got, rows):
        want = direct_sum(row_weights, row_offset, row_slope, u)
        assert np.max(np.abs(values - want)) <= 1e-13 * np.sum(np.abs(row_weights))


@pytest.mark.parametrize("planes", [1201, 1200])
def test_transport_window_builds_no_phasor_row(phasor_rows, planes):
    # Packet-frame planes are differences of z values near 1 m, so their ends
    # and centre are exact: the end planes map to x = +-1 and, for an odd
    # plane count, the centre plane to 0; none of them is summed directly.
    stages, times = criterion_6_setup()
    for state in stages[::3]:
        for t in times:
            phasor_rows.clear()
            branch_intensities(state, transport_window(state, t, planes), t)
            assert phasor_rows == []


def test_position_intensity_checks_the_projection_before_the_transport(monkeypatch):
    stages, times = criterion_6_setup()
    state, t = stages[-1], times[-1]

    def no_transport(*args):
        raise AssertionError("the branch fields were computed")

    monkeypatch.setattr(wavepacket, "_branch_fields", no_transport)
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="spin projection"):
            position_intensity(state, transport_window(state, t), t, spin_projection=angle)


# ---------------------------------------------------------------------------
# the Bessel orders behind the Chebyshev coefficients, and the series
# sum against the direct one over drawn windows


def bessel_integral(a, degree, points=512):
    """J_0 ... J_degree at each a from (1/pi) int_0^pi cos(n tau - a sin tau), trapezoid rule."""
    tau = np.linspace(0.0, math.pi, points)
    weights = np.full(points, math.pi / (points - 1))
    weights[[0, -1]] /= 2.0
    phase = np.arange(degree + 1)[:, None, None] * tau - np.multiply.outer(a, np.sin(tau))
    return np.cos(phase) @ weights / math.pi


@pytest.mark.parametrize("reach", [0.5, 1.0, 2.0, 5.0, 12.0, 30.0, 47.0, 80.0])
def test_bessel_orders_match_the_bessel_integral(reach):
    # 0 and 1e-12 take the small-argument values, and 1e-6 grows by about
    # 2n / 1e-6 an order, which overflows unless the recurrence rescales.
    degree = chebyshev_degree(reach)
    a = np.r_[0.0, 1e-12, 1e-6, np.linspace(0.5, reach, 9)]
    a = np.r_[a, -a]
    got = wavepacket._bessel_orders(a, degree)
    assert got.shape == (degree + 1, a.size)
    assert np.max(np.abs(got - bessel_integral(a, degree))) <= 1e-14
    sign = (-1.0) ** np.arange(degree + 1)[:, None]
    half = a.size // 2
    assert np.max(np.abs(got[:, half:] - sign * got[:, :half])) <= 1e-15


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    reach=st.floats(0.1, 90.0),
    centre=st.floats(-10.0, 10.0),
    extra_planes=st.integers(2, 200),
    low=st.floats(-1.0, -0.05),
    high=st.floats(0.05, 1.0),
    rows=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chebyshev_k_sum_matches_the_direct_sum(reach, centre, extra_planes, low, high, rows,
                                                seed):
    # Slopes run from low to high through 0, as a packet's do across its k
    # grid, scaled so that the larger end reaches ``reach`` over the window.
    # ``rows`` None is one (K,) sum; otherwise a (rows, K) stack, whose later
    # rows reach a drawn 5-100% of ``reach``.
    half = 2e-7
    planes = chebyshev_degree(reach) + 1 + extra_planes
    u = (centre + np.linspace(-1.0, 1.0, planes)) * half
    rng = np.random.default_rng(seed)
    stack = rows or 1
    scale = np.r_[1.0, rng.uniform(0.05, 1.0, stack - 1)][:, None]
    slope = scale * np.linspace(low, high, 256) * reach / (max(-low, high) * half)
    weights = rng.normal(size=(stack, 256)) + 1j * rng.normal(size=(stack, 256))
    offset = rng.uniform(-math.pi, math.pi, (stack, 256))
    if rows is None:
        weights, offset, slope = weights[0], offset[0], slope[0]
    got = wavepacket._chebyshev_k_sum(weights, offset, slope, u)
    assert got is not None and got.shape == np.shape(slope)[:-1] + u.shape
    for values, row_weights, row_offset, row_slope in zip(
            np.atleast_2d(got), np.atleast_2d(weights), np.atleast_2d(offset),
            np.atleast_2d(slope)):
        want = direct_sum(row_weights, row_offset, row_slope, u)
        assert np.max(np.abs(values - want)) <= 1e-13 * np.sum(np.abs(row_weights))
