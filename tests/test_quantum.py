"""Two-qubit algebra: observables, projectors, correlations, witness bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miezesim import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    DegenerateDataError,
    ObservableAngle,
    SpinEnergyState,
    Subsystem,
    WitnessSettings,
    bell_state,
    chsh_value,
    classify,
    expectation_from_counts,
    joint_expectation,
    observable,
    optimal_settings,
    product_state,
    projector,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

THETAS = np.linspace(-7.0, 7.0, 23)


def reference_observable(theta):
    # independent construction from the literal Pauli matrices
    return math.cos(theta) * SX + math.sin(theta) * SY


def reference_expectation(amps, alpha, gamma):
    op = np.kron(reference_observable(alpha), reference_observable(gamma))
    return complex(np.vdot(amps, op @ amps)).real


def test_observable_axes():
    assert np.allclose(observable(0.0), SX, atol=1e-12)
    assert np.allclose(observable(math.pi / 2), SY, atol=1e-12)


def test_observable_diagonal_direction_eigenvalues():
    eig = np.linalg.eigvalsh(observable(math.pi / 4))
    assert np.allclose(eig, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("theta", THETAS)
def test_observable_algebra(theta):
    m = observable(theta)
    assert np.allclose(m, reference_observable(theta), atol=1e-12)
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.trace(m)) < 1e-12
    assert np.allclose(m @ m, ID2, atol=1e-12)


def test_projector_axes():
    assert np.allclose(projector(0.0), 0.5 * np.ones((2, 2)), atol=1e-12)
    assert np.allclose(projector(math.pi), 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)


@pytest.mark.parametrize("theta", THETAS)
def test_projector_algebra(theta):
    p = projector(theta)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert abs(np.trace(p) - 1.0) < 1e-12
    assert np.allclose(p + projector(theta + math.pi), ID2, atol=1e-12)
    assert np.allclose(p, 0.5 * (ID2 + observable(theta)), atol=1e-12)


def test_observable_rejects_nonfinite():
    with pytest.raises(ValueError):
        observable(math.nan)
    with pytest.raises(ValueError):
        projector(math.inf)


def test_bell_state_amplitudes():
    amps = bell_state().amplitudes
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(amps, [r, 0.0, 0.0, r], atol=1e-12)
    assert abs(bell_state(1.3).norm() - 1.0) < 1e-12


def test_joint_expectation_matches_matrix_oracle():
    state = bell_state(0.4)
    for alpha in (-1.0, 0.0, 0.7):
        for gamma in (-0.3, 0.0, 2.1):
            want = reference_expectation(state.amplitudes, alpha, gamma)
            assert abs(joint_expectation(state, alpha, gamma) - want) < 1e-12


def test_joint_expectation_aligned_bell():
    assert abs(joint_expectation(bell_state(), 0.0, 0.0) - 1.0) < 1e-12


@pytest.mark.parametrize("phi", np.linspace(0.0, 2.0 * math.pi, 9))
def test_bell_correlation_law(phi):
    # E(alpha, gamma) = cos(alpha + gamma - phi) for the phased Bell state
    state = bell_state(phi)
    for alpha in np.linspace(-math.pi, math.pi, 7):
        for gamma in np.linspace(-math.pi, math.pi, 7):
            want = math.cos(alpha + gamma - phi)
            assert abs(joint_expectation(state, alpha, gamma) - want) < 1e-9


def test_product_state_uncorrelated():
    state = product_state([1, 0], [1, 0])
    for alpha in (0.0, 0.5, 2.0):
        for gamma in (0.0, -0.4, 1.1):
            assert abs(joint_expectation(state, alpha, gamma)) < 1e-12
    assert abs(chsh_value(state, optimal_settings())) < 1e-12


def test_joint_expectation_requires_normalization():
    faint = SpinEnergyState([0.5, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        joint_expectation(faint, 0.0, 0.0)


def test_optimal_settings_values():
    s = optimal_settings()
    assert s.alpha1 == 0.0
    assert abs(s.alpha2 - math.pi / 2) < 1e-15
    assert abs(s.gamma1 + math.pi / 4) < 1e-15
    assert abs(s.gamma2 - math.pi / 4) < 1e-15
    # the defining relations hold for any gauge choice of alpha1
    for a1 in (-0.3, 0.0, 1.2):
        g = optimal_settings(a1)
        assert abs(g.alpha1 + g.gamma1 + math.pi / 4) < 1e-12
        assert abs(g.alpha2 - g.alpha1 - math.pi / 2) < 1e-12
        assert abs(g.gamma2 - g.gamma1 - math.pi / 2) < 1e-12


def test_chsh_tsirelson():
    assert abs(chsh_value(bell_state(), optimal_settings()) - TSIRELSON_BOUND) < 1e-9


def test_chsh_plain_settings():
    # cos 0 + cos(pi/2) + cos(pi/2) - cos(pi) = 2
    s = WitnessSettings(alpha1=0.0, alpha2=math.pi / 2, gamma1=0.0, gamma2=math.pi / 2)
    assert abs(chsh_value(bell_state(), s) - 2.0) < 1e-12


def test_chsh_common_offset_detunes():
    d = math.pi / 8
    shifted = WitnessSettings(
        alpha1=d, alpha2=math.pi / 2 + d, gamma1=-math.pi / 4 + d, gamma2=math.pi / 4 + d
    )
    value = chsh_value(bell_state(), shifted)
    assert value < TSIRELSON_BOUND - 0.5
    assert abs(value - 2.0) < 1e-12  # cos(0) + 2 cos(pi/2) - cos(pi)


def test_optimal_settings_track_bell_phase():
    # the gauge freedom alpha1 rebalances the spin angles, not the Bell phase
    assert abs(chsh_value(bell_state(), optimal_settings(0.6)) - TSIRELSON_BOUND) < 1e-9


def test_chsh_bounded_over_random_states():
    rng = np.random.default_rng(20240604)
    settings = [
        optimal_settings(),
        optimal_settings(0.8),
        WitnessSettings(alpha1=0.3, alpha2=-1.2, gamma1=2.0, gamma2=0.1),
    ]
    for trial in range(10_000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = SpinEnergyState(raw / np.linalg.norm(raw))
        s = chsh_value(state, settings[trial % len(settings)])
        assert abs(s) <= TSIRELSON_BOUND + 1e-9


def test_chsh_value_matches_matrix_oracle_over_random_states():
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = SpinEnergyState(raw / np.linalg.norm(raw))
        a1, a2, g1, g2 = rng.uniform(-20.0, 20.0, 4)
        settings = WitnessSettings(alpha1=a1, alpha2=a2, gamma1=g1, gamma2=g2)
        e11, e12, e21, e22 = (
            min(1.0, max(-1.0, reference_expectation(state.amplitudes, alpha, gamma)))
            for alpha, gamma in ((a1, g1), (a1, g2), (a2, g1), (a2, g2))
        )
        assert abs(chsh_value(state, settings) - (e11 + e12 + e21 - e22)) < 1e-12


def test_chsh_value_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        chsh_value(SpinEnergyState([0.5, 0.0, 0.0, 0.5]), optimal_settings())


def test_analyzer_removes_correlations():
    # projecting the spin qubit halves the flux and destroys entanglement:
    # every correlation of the renormalized state factorizes
    analyzed = bell_state().project(ObservableAngle(0.0, Subsystem.SPIN))
    assert abs(analyzed.norm_squared() - 0.5) < 1e-12
    survivor = analyzed.normalized()
    for alpha in (0.0, 0.4, 2.0):
        for gamma in (-0.7, 0.0, 1.3):
            joint = joint_expectation(survivor, alpha, gamma)
            # marginals of the transmitted (|up>+|down>)(|E+>+|E->)/2 state
            assert abs(joint - math.cos(alpha) * math.cos(gamma)) < 1e-9
    assert abs(chsh_value(survivor, optimal_settings())) <= 2.0 + 1e-9
    # downstream the transmitted spin is relabeled "up"; measured equatorial
    # spin components then vanish and the witness collapses to zero
    for phi in (0.0, 0.8, 2.5):
        relabeled = product_state([1.0, 0.0], [0.5**0.5, 0.5**0.5 * np.exp(1j * phi)])
        assert abs(chsh_value(relabeled, optimal_settings())) < 1e-9


def test_projection_never_gains_norm():
    state = bell_state(0.9)
    for theta in np.linspace(0.0, 2.0 * math.pi, 9):
        for sub in (Subsystem.SPIN, Subsystem.ENERGY):
            assert state.project(ObservableAngle(theta, sub)).norm() <= state.norm() + 1e-12


def test_equals_up_to_phase():
    a = bell_state(0.3)
    b = SpinEnergyState(a.amplitudes * np.exp(1j * 1.9))
    assert a.equals_up_to_phase(b)
    assert not a.equals_up_to_phase(bell_state(0.9))


def test_classify_thresholds_exact():
    assert classify(2.0) == "classical"
    assert classify(-2.0) == "classical"
    assert classify(2.0000001) == "quantum"
    assert classify(-2.5) == "quantum"
    assert classify(TSIRELSON_BOUND) == "quantum"
    assert classify(2.83) == "unphysical"
    assert classify(0.0) == "classical"
    with pytest.raises(ValueError):
        classify(math.nan)


def test_classical_bound_value():
    assert CLASSICAL_BOUND == 2.0
    assert abs(TSIRELSON_BOUND - 2.0 * math.sqrt(2.0)) < 1e-15


def test_expectation_from_counts_basics():
    assert expectation_from_counts({(0, 0): 1, (1, 1): 1, (0, 1): 0, (1, 0): 0}) == 1.0
    assert expectation_from_counts({(0, 0): 5, (1, 1): 5, (0, 1): 5, (1, 0): 5}) == 0.0


def test_expectation_from_counts_cosine_counts():
    # counts proportional to 1 + cos(alpha + gamma + (k+l) pi) recover cos(alpha+gamma)
    for alpha, gamma in ((0.2, 0.5), (-1.0, 0.3), (2.0, 2.0)):
        counts = {
            (k, l): 1.0 + math.cos(alpha + gamma + (k + l) * math.pi)
            for k in (0, 1)
            for l in (0, 1)
        }
        want = math.cos(alpha + gamma)
        assert abs(expectation_from_counts(counts) - want) < 1e-12


def test_expectation_from_counts_validation():
    with pytest.raises(DegenerateDataError):
        expectation_from_counts({(0, 0): 0, (1, 1): 0, (0, 1): 0, (1, 0): 0})
    with pytest.raises(ValueError):
        expectation_from_counts({(0, 0): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        expectation_from_counts({(0, 0): -1, (1, 1): 1, (0, 1): 1, (1, 0): 1})


@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    n00=st.integers(min_value=0, max_value=10_000),
    n01=st.integers(min_value=0, max_value=10_000),
    n10=st.integers(min_value=0, max_value=10_000),
    n11=st.integers(min_value=1, max_value=10_000),
)
def test_expectation_from_counts_scale_invariant(scale, n00, n01, n10, n11):
    counts = {(0, 0): n00, (0, 1): n01, (1, 0): n10, (1, 1): n11}
    scaled = {k: v * scale for k, v in counts.items()}
    assert math.isclose(
        expectation_from_counts(counts),
        expectation_from_counts(scaled),
        rel_tol=0.0,
        abs_tol=1e-9,
    )


@given(phi=st.floats(min_value=-10.0, max_value=10.0))
def test_bell_witness_magnitude_vs_phase(phi):
    # rotating the Bell phase rotates which settings are optimal, never the bound
    s = chsh_value(bell_state(phi), optimal_settings())
    assert abs(s) <= TSIRELSON_BOUND + 1e-9


def test_state_validation():
    with pytest.raises(ValueError):
        SpinEnergyState([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpinEnergyState([2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        product_state([0, 0], [1, 0])


@pytest.mark.parametrize("amplitudes", [[math.nan, 0.0, 0.0, 0.0],
                                        [0.0, 0.0, complex(0.0, math.inf), 0.0]])
def test_state_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        SpinEnergyState(amplitudes)


def test_zero_state_does_not_normalize():
    with pytest.raises(ValueError, match="^cannot normalize the zero state$"):
        SpinEnergyState(np.zeros(4)).normalized()


def test_equals_up_to_phase_compares_norms_first():
    zero, tiny = SpinEnergyState(np.zeros(4)), SpinEnergyState([1e-12, 0.0, 0.0, 0.0])
    half = SpinEnergyState(0.5 * bell_state(0.3).amplitudes)
    # Norms further apart than tol: not equal, whatever the overlap.
    assert not bell_state(0.3).equals_up_to_phase(half)
    assert not tiny.equals_up_to_phase(zero, tol=1e-13)
    # Both norms below tol: equal, although the overlap is 0.
    assert tiny.equals_up_to_phase(zero)
    assert zero.equals_up_to_phase(SpinEnergyState([0.0, 0.0, 0.0, 1e-12]))


@pytest.mark.parametrize("spin, energy", [([1, 0, 0], [1, 0]), ([1, 0], [[1, 0]]), (1, [1, 0])])
def test_product_state_rejects_parts_that_are_not_2_vectors(spin, energy):
    with pytest.raises(ValueError, match="^spin and energy parts must each have 2 amplitudes$"):
        product_state(spin, energy)


def test_density_matrix_is_projector_for_pure_state():
    rho = bell_state(0.2).density_matrix()
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.allclose(rho @ rho, rho, atol=1e-12)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
