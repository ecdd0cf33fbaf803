"""Beamline phase maps, focusing condition, and the idealized signal."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miezesim import (
    PRESETS,
    BeamlineConfig,
    ConfigError,
    PhysicsError,
    ScanPlan,
    bell_state,
    chsh_value,
    current_for_spin_phase,
    energy_phase,
    energy_phase_detuning,
    evolve_pipeline,
    expectation_from_counts,
    focusing_distance,
    ideal_intensity,
    load_preset,
    mieze_frequency,
    offset_for_energy_phase,
    optimal_settings,
    spin_phase,
)
from miezesim.beamline import _scan_phases, channel_phase

# Independent oracle constants (CODATA-2018 literals, not imported from the package)
NEUTRON_MASS = 1.67492749804e-27
PLANCK = 6.62607015e-34
GYROMAGNETIC = 1.83247171e8

CFG = BeamlineConfig(
    wavelength=0.55e-9,
    bandwidth=0.002,
    f1=45e3,
    f2=50e3,
    l1=0.085,
    l2=0.765,
    coil_cal=250e-6,  # 250 mT*mm per A
    guide_bl=0.0,
    contrast=0.85,
)

VELOCITY = PLANCK / (NEUTRON_MASS * 0.55e-9)  # = 719.2789... m/s


def test_velocity_oracle():
    assert math.isclose(VELOCITY, 719.2789, rel_tol=0, abs_tol=5e-4)
    assert math.isclose(CFG.velocity, VELOCITY, rel_tol=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        replace(CFG, wavelength=-1.0)
    with pytest.raises(ConfigError):
        replace(CFG, bandwidth=1.5)
    with pytest.raises(ConfigError):
        replace(CFG, contrast=1.2)
    with pytest.raises(ConfigError):
        replace(CFG, l1=0.0)
    with pytest.raises(PhysicsError):
        replace(CFG, f1=50e3, f2=45e3)
    with pytest.raises(PhysicsError):
        replace(CFG, f2=45e3)  # equal frequencies have no beat


def test_mieze_frequency_values():
    assert math.isclose(mieze_frequency(CFG), 2.0 * math.pi * 10e3, rel_tol=1e-12)
    fast = replace(CFG, f1=150e3, f2=200e3, l2=0.255)
    assert math.isclose(mieze_frequency(fast), 2.0 * math.pi * 100e3, rel_tol=1e-12)


def test_spin_phase_oracle():
    # alpha = gamma_n * BL / v for BL = coil_cal * I
    current = -0.94
    want = GYROMAGNETIC * (250e-6 * current) / VELOCITY
    assert math.isclose(spin_phase(CFG, current), want, rel_tol=1e-12)
    assert spin_phase(CFG, 0.0) == 0.0


def test_current_per_turn():
    # a 2 pi phase takes about 0.1 A at this calibration
    i_turn = current_for_spin_phase(CFG, 2.0 * math.pi)
    want = 2.0 * math.pi * VELOCITY / (GYROMAGNETIC * 250e-6)
    assert math.isclose(i_turn, want, rel_tol=1e-12)
    assert abs(i_turn - 0.0987) <= 0.0005
    assert math.isclose(i_turn, 0.09865, rel_tol=0, abs_tol=5e-5)


def test_guide_field_quarter_turn():
    # 25 mT*mm of residual integral is about one full turn
    with_guide = replace(CFG, guide_bl=25e-6)
    turns = spin_phase(with_guide, 0.0) / (2.0 * math.pi)
    assert 0.95 < turns < 1.07


@given(
    i1=st.floats(min_value=-5.0, max_value=5.0),
    i2=st.floats(min_value=-5.0, max_value=5.0),
    scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_spin_phase_linear(i1, i2, scale):
    lhs = spin_phase(CFG, i1 + i2)
    rhs = spin_phase(CFG, i1) + spin_phase(CFG, i2)
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(
        spin_phase(CFG, scale * i1), scale * spin_phase(CFG, i1), rel_tol=0, abs_tol=1e-9
    )


def test_spin_phase_inverse_round_trip():
    for alpha in np.linspace(-8.0, 8.0, 17):
        current = current_for_spin_phase(CFG, alpha)
        assert math.isclose(spin_phase(CFG, current), alpha, rel_tol=0, abs_tol=1e-12)


def test_energy_phase_oracle():
    # gamma = -omega_m * delta / v; 70 mm at the 10 kHz beat is just under a turn
    gamma = energy_phase(CFG, 0.070)
    want = -2.0 * math.pi * 10e3 * 0.070 / VELOCITY
    assert math.isclose(gamma, want, rel_tol=1e-12)
    assert math.isclose(abs(gamma), 6.1148, rel_tol=0, abs_tol=1e-3)
    assert energy_phase(CFG, 0.0) == 0.0


def test_offset_per_turn():
    delta = abs(offset_for_energy_phase(CFG, 2.0 * math.pi))
    assert math.isclose(delta, VELOCITY / 10e3, rel_tol=1e-12)
    assert abs(delta * 1e3 - 71.9) <= 0.5


def test_energy_phase_high_frequency():
    fast = replace(CFG, f1=150e3, f2=200e3, l2=0.255)
    turns = abs(energy_phase(fast, 0.010)) / (2.0 * math.pi)
    assert math.isclose(turns, 1.39, rel_tol=0, abs_tol=0.01)
    assert turns >= 1.0  # a 10 mm scan covers at least a full turn


@given(
    d1=st.floats(min_value=-0.5, max_value=0.5),
    d2=st.floats(min_value=-0.5, max_value=0.5),
)
def test_energy_phase_additive(d1, d2):
    lhs = energy_phase(CFG, d1 + d2)
    rhs = energy_phase(CFG, d1) + energy_phase(CFG, d2)
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-9)


def test_energy_phase_detuning():
    assert energy_phase_detuning(0.0, 0.37) == 0.0
    assert math.isclose(
        energy_phase_detuning(2.0 * math.pi * 100.0, 1.25e-3),
        -math.pi / 2.0,
        rel_tol=1e-12,
    )
    # linear in both arguments
    assert math.isclose(
        energy_phase_detuning(3.0, 5.0), -30.0, rel_tol=1e-15
    )


def test_energy_phase_detuning_on_arrays_equals_scalar_calls_bit_for_bit():
    detunings = np.r_[np.linspace(-800.0, 800.0, 9), -0.0, 1e-300][:, None]
    times = np.linspace(0.0, 1.25e-3, 7)
    got = energy_phase_detuning(detunings, times)
    want = np.array([[energy_phase_detuning(float(d), float(t)) for t in times]
                     for d in detunings[:, 0]])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_energy_phase_detuning_rejects_one_non_finite_element(bad):
    with pytest.raises(ValueError, match="must be finite"):
        energy_phase_detuning(np.array([-300.0, bad, 800.0]), 1e-4)
    with pytest.raises(ValueError, match="must be finite"):
        energy_phase_detuning(500.0, np.array([0.0, bad]))


PHASE_LAWS = {"spin_phase": spin_phase, "energy_phase": energy_phase}


@pytest.mark.parametrize("law", sorted(PHASE_LAWS))
def test_phase_laws_on_arrays_equal_scalar_calls_bit_for_bit(law):
    fn = PHASE_LAWS[law]
    values = np.r_[np.linspace(-1.0, 1.0, 23), -0.94, 0.035, -0.0, 1e-300]
    want = np.array([fn(CFG, float(v)) for v in values])
    for shape in ((values.size,), (3, 9), (27, 1)):
        got = fn(CFG, values.reshape(shape))
        assert got.shape == shape
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("law", sorted(PHASE_LAWS))
def test_phase_laws_return_a_float_for_a_scalar(law):
    assert type(PHASE_LAWS[law](CFG, -0.94)) is float
    assert type(PHASE_LAWS[law](CFG, 0)) is float


@pytest.mark.parametrize("law", sorted(PHASE_LAWS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_laws_reject_one_non_finite_element(law, bad):
    with pytest.raises(ValueError, match="must be finite"):
        PHASE_LAWS[law](CFG, np.array([-0.94, bad, 0.005]))
    with pytest.raises(ValueError, match="must be finite"):
        PHASE_LAWS[law](CFG, bad)


@pytest.mark.parametrize("kind, coords", [
    ("offset", (-0.035, 0.0, 0.005)),
    ("detuning", (-300.0, 0.0, 800.0)),
])
def test_channel_phase_grid_equals_per_coordinate_rows(kind, coords):
    n = 17
    grid = channel_phase(CFG, kind, np.array(coords)[:, None], np.arange(n), n)
    assert grid.shape == (len(coords), n)
    for coord, row in zip(coords, grid):
        assert np.array_equal(row, channel_phase(CFG, kind, coord, np.arange(n), n))
        assert row[5] == channel_phase(CFG, kind, coord, 5, n)


DETUNING_PLAN = ScanPlan(
    currents=tuple(np.linspace(-1.0, -0.88, 13)),
    detunings=tuple(np.linspace(-400.0, 400.0, 9)),
)


@pytest.mark.parametrize("name", [*sorted(PRESETS), "detuning"])
def test_scan_phases_equal_the_phase_laws(name):
    cfg, plan = (CFG, DETUNING_PLAN) if name == "detuning" else (
        load_preset(name).beamline, load_preset(name).plan)
    currents, coords = np.array(plan.currents), np.array(plan.coords)
    n = plan.time_channels_per_period
    alphas, phases = _scan_phases(cfg, plan.scan_kind, currents, coords, n)
    assert np.array_equal(alphas, spin_phase(cfg, currents))
    assert np.array_equal(
        phases, channel_phase(cfg, plan.scan_kind, coords[:, None], np.arange(n), n))
    assert phases.shape == (len(coords), n)


@pytest.mark.parametrize("kind", ["offset", "detuning"])
def test_scan_phases_without_channels_give_an_empty_table(kind):
    alphas, phases = _scan_phases(CFG, kind, [-0.94, -0.9], [0.0, 0.005, 0.01], 0)
    assert np.array_equal(alphas, spin_phase(CFG, np.array([-0.94, -0.9])))
    assert phases.shape == (3, 0)


@pytest.mark.parametrize("kind, currents, coords, message", [
    ("offset", [-0.94, 1e305, -1e305], [0.0], "current 1e+305 A gives a non-finite spin phase"),
    ("offset", [-0.94], [0.0, -1e305, 1e305], "offset -1e+305 m gives a non-finite energy phase"),
    ("detuning", [-0.94], [0.0, 1e308], "detuning 1e+308 rad/s gives a non-finite energy phase"),
    ("offset", [-0.94, 1e300], [0.0], "current 1e+300 A gives a phase of 6.37e+301 rad, "
                                      "over 2**32 rad"),
    ("offset", [-0.94], [0.0, -1e300], "offset -1e+300 m gives a phase of 8.74e+301 rad, "
                                       "over 2**32 rad"),
    ("detuning", [-0.94], [0.0, 1e300], "detuning 1e+300 rad/s gives a phase of 1.88e+296 rad, "
                                        "over 2**32 rad"),
    # The current is checked before the coordinates.
    ("offset", [1e300], [1e305], "current 1e+300 A gives a phase of"),
])
def test_scan_phases_reject_the_first_phase_that_overflows_or_has_no_digits(
        kind, currents, coords, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(message)):
            _scan_phases(CFG, kind, currents, coords, 16)


def test_scan_phases_accept_phases_up_to_2_to_the_32():
    # 2**32 rad itself still resolves to about 1e-6 rad; the next double up does not.
    current = float(np.nextafter(2.0**32, 0.0)) / float(spin_phase(CFG, 1.0))
    alphas, _ = _scan_phases(CFG, "offset", [current], [0.0], 16)
    assert abs(alphas[0]) <= 2.0**32
    with pytest.raises(ConfigError, match="over 2"):
        _scan_phases(CFG, "offset", [2.0 * current], [0.0], 16)


def test_focusing_distance_reference_geometry():
    assert math.isclose(focusing_distance(CFG), 0.765, rel_tol=0, abs_tol=1e-12)


def test_focusing_distance_wavelength_independent():
    base = focusing_distance(CFG)
    for lam in np.linspace(0.2e-9, 1.0e-9, 9):
        assert focusing_distance(replace(CFG, wavelength=lam)) == base


def test_focusing_distance_beat_form():
    # L2 = 2 omega1 L1 / omega_m
    want = 2.0 * CFG.omega1 * CFG.l1 / mieze_frequency(CFG)
    assert math.isclose(focusing_distance(CFG), want, rel_tol=1e-15)


def test_focusing_field_integral_shift():
    # closed form: dL2 = -gamma_n * BL / (2 (omega2 - omega1))
    bl = 25e-6
    shift = focusing_distance(CFG, bl) - focusing_distance(CFG)
    want = -GYROMAGNETIC * bl / (2.0 * (CFG.omega2 - CFG.omega1))
    assert math.isclose(shift, want, rel_tol=1e-9)
    assert math.isclose(shift * 1e3, -72.91, rel_tol=0, abs_tol=0.01)


def test_focusing_infeasible_geometry():
    with pytest.raises(PhysicsError):
        focusing_distance(CFG, 3e-4)  # pushes the detector behind the flipper


def test_pipeline_norms():
    states = evolve_pipeline(CFG, alpha=0.7, t=1e-5)
    norms = [s.norm_squared() for s in states]
    assert np.allclose(norms[:4], 1.0, atol=1e-12)
    assert math.isclose(norms[4], 0.5, rel_tol=0, abs_tol=1e-12)


def test_pipeline_intermediate_phases():
    alpha, t = 0.7, 3.7e-5
    psi0, psi1, psi_bell, psi2, psi3 = evolve_pipeline(CFG, alpha, t)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(psi0.amplitudes, [r, 0.0, r, 0.0], atol=1e-12)
    assert np.allclose(
        psi1.amplitudes, [r, 0.0, r * np.exp(1j * alpha), 0.0], atol=1e-12
    )
    assert psi_bell.equals_up_to_phase(bell_state(2.0 * CFG.omega1 * t - alpha))
    assert psi2.equals_up_to_phase(bell_state(alpha + mieze_frequency(CFG) * t))
    phase2 = np.exp(1j * (alpha + mieze_frequency(CFG) * t))
    assert np.allclose(psi3.amplitudes, [0.5, 0.5 * phase2, 0.0, 0.0], atol=1e-12)


def test_pipeline_bell_stage_maximal():
    psi2 = evolve_pipeline(CFG, alpha=0.0, t=0.0)[3]
    assert math.isclose(
        chsh_value(psi2, optimal_settings()), 2.0 * math.sqrt(2.0), rel_tol=0, abs_tol=1e-9
    )


def reduced_purity(amps, subsystem):
    psi = np.asarray(amps).reshape(2, 2)  # spin x energy
    if subsystem == "spin":
        rho = psi @ psi.conj().T
    else:
        rho = psi.T @ psi.conj()
    return float(np.trace(rho @ rho).real)


def test_pipeline_entanglement_bookkeeping():
    states = evolve_pipeline(CFG, alpha=1.1, t=2e-5)
    psi2, psi3 = states[3], states[4]
    # before the analyzer: maximally entangled (reduced purity 1/2)
    assert math.isclose(reduced_purity(psi2.amplitudes, "spin"), 0.5, abs_tol=1e-12)
    # after the analyzer: product state (purity 1) and zero witness
    survivor = psi3.normalized()
    assert math.isclose(reduced_purity(survivor.amplitudes, "spin"), 1.0, abs_tol=1e-12)
    assert abs(chsh_value(survivor, optimal_settings())) < 1e-9


def test_pipeline_validation():
    with pytest.raises(ValueError):
        evolve_pipeline(CFG, alpha=math.nan, t=0.0)
    with pytest.raises(ValueError):
        evolve_pipeline(CFG, alpha=0.0, t=-1.0)


def test_ideal_intensity_extremes():
    full = replace(CFG, contrast=1.0, mean_level=0.5)
    assert math.isclose(ideal_intensity(full, 0.0, 0.0, 0.0), 1.0, abs_tol=1e-12)
    assert math.isclose(ideal_intensity(full, math.pi, 0.0, 0.0), 0.0, abs_tol=1e-12)
    # contrast bounds the swing around the mean
    values = [
        ideal_intensity(CFG, a, 0.3, 1e-5) for a in np.linspace(0.0, 2.0 * math.pi, 64)
    ]
    assert min(values) >= CFG.mean_level * (1.0 - CFG.contrast) - 1e-12
    assert max(values) <= CFG.mean_level * (1.0 + CFG.contrast) + 1e-12


def test_ideal_intensity_time_average():
    period = 2.0 * math.pi / mieze_frequency(CFG)
    times = np.arange(32) * period / 32.0
    for alpha, gamma in ((0.0, 0.0), (1.0, -0.4), (2.5, 2.5)):
        mean = np.mean([ideal_intensity(CFG, alpha, gamma, t) for t in times])
        assert math.isclose(mean, CFG.mean_level, rel_tol=0, abs_tol=1e-12)


def test_ideal_intensity_depends_on_phase_sum_only():
    for shift in (-1.0, 0.3, 2.2):
        a = ideal_intensity(CFG, 0.8 + shift, 0.5 - shift, 1e-5)
        b = ideal_intensity(CFG, 0.8, 0.5, 1e-5)
        assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def test_ideal_intensity_to_correlation():
    # sampling the four analyzer settings and forming the count ratio
    # recovers the contrast-scaled cosine
    omega_m = mieze_frequency(CFG)
    for alpha, gamma, t in ((0.2, -0.5, 0.0), (1.0, 0.3, 1e-5), (-2.0, 0.4, 3e-5)):
        counts = {
            (k, l): ideal_intensity(CFG, alpha + k * math.pi, gamma + l * math.pi, t)
            for k in (0, 1)
            for l in (0, 1)
        }
        want = CFG.contrast * math.cos(alpha + gamma + omega_m * t)
        assert abs(expectation_from_counts(counts) - want) < 1e-9
