"""Synthetic counting experiment: scan plans, sampling, normalization, CSV."""

import csv
import hashlib
import io
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from miezesim import synth
from miezesim import (
    PRESETS,
    BeamlineConfig,
    ConfigError,
    CountsRecord,
    ScanPlan,
    contrast_envelope,
    energy_phase,
    expected_channel_means,
    fit_time_series,
    ideal_intensity,
    load_preset,
    mieze_frequency,
    normalize,
    read_counts_csv,
    simulate_scan,
    single_channel_points,
    spec_from_beamline,
    spin_phase,
    write_counts_csv,
)
from miezesim.analysis import _RESAMPLE_KEY
from miezesim.cli import main
from miezesim.synth import _point_rng, _poisson_rows

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

# The shipped 10 kHz operating point: -1.0 A to -0.88 A in 0.01 A steps,
# detector offsets out to +-35 mm, N0 = 8600 counts per point.
PLAN = ScanPlan(
    currents=tuple(np.linspace(-1.0, -0.88, 13)),
    offsets=(-0.035, -0.02, -0.01, -0.005, 0.005, 0.01, 0.02, 0.035),
    counts_scale=8600.0,
    rng_seed=20240601,
)

SMALL = ScanPlan(currents=(-0.94,), offsets=(0.005,), counts_scale=8600.0)


def model_means(cfg, plan, current, coord):
    """Independent restatement of the channel-mean law for offset scans."""
    omega_m = mieze_frequency(cfg)
    period = 2.0 * math.pi / omega_m
    n = plan.time_channels_per_period
    times = np.arange(n) * period / n
    phase = (
        spin_phase(cfg, current)
        + energy_phase(cfg, coord)
        + omega_m * times
        + plan.phase_offset
    )
    return plan.background_rate + 0.5 * plan.counts_scale * (
        1.0 + cfg.contrast * np.cos(phase)
    )


# ---------------------------------------------------------------------------
# plan and record validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"currents": ()},
        {"currents": (math.nan,)},
        {"currents": (-0.94,), "offsets": ()},
        {"currents": (-0.94,), "offsets": (math.inf,)},
        {"currents": (-0.94,), "detunings": ()},
        {"currents": (-0.94,), "time_channels_per_period": 3},
        {"currents": (-0.94,), "time_channels_per_period": 8.5},
        {"currents": (-0.94,), "counts_scale": 0.0},
        {"currents": (-0.94,), "counts_scale": math.inf},
        {"currents": (-0.94,), "background_rate": -1.0},
        # The largest channel mean, background_rate + counts_scale, is over 2**52.
        {"currents": (-0.94,), "counts_scale": 1e19},
        {"currents": (-0.94,), "counts_scale": 1e18},
        {"currents": (-0.94,), "counts_scale": 2.0**52, "background_rate": 1.0},
        {"currents": (-0.94,), "counts_scale": np.nextafter(2.0**52, math.inf)},
        {"currents": (-0.94,), "counts_scale": 1.0, "background_rate": 2.0**52},
        {"currents": (-0.94,), "phase_offset": math.nan},
        {"currents": (-0.94,), "rng_seed": -1},
        {"currents": (-0.94,), "rng_seed": 2**64},
        {"currents": (-0.94,), "rng_seed": 1.5},
    ],
)
def test_plan_validation(kwargs):
    with pytest.raises(ConfigError):
        ScanPlan(**kwargs)


@pytest.mark.parametrize("axis", ["currents", "offsets", "detunings"])
def test_plan_names_an_axis_that_is_no_sequence_of_numbers(axis):
    with pytest.raises(ConfigError, match=f"^{axis} must be a sequence of numbers$"):
        ScanPlan(**{"currents": (-0.94,), axis: ["a"]})
    with pytest.raises(ConfigError, match=f"^{axis} must be a sequence of numbers$"):
        ScanPlan(**{"currents": (-0.94,), axis: 1.0})


def test_plan_at_a_largest_mean_of_2_to_the_52_round_trips(tmp_path):
    plan = ScanPlan(currents=(-0.94,), time_channels_per_period=4, counts_scale=2.0**52)
    records = simulate_scan(CFG, plan)
    assert len(records) == 1 and max(records[0].counts) < 2**53
    path = tmp_path / "huge.csv"
    write_counts_csv(path, records, plan)
    assert list(read_counts_csv(path).records) == records


def test_plan_scan_kind_and_coords():
    offset_plan = ScanPlan(currents=(-0.94, -0.9), offsets=(0.0, 0.005))
    assert offset_plan.scan_kind == "offset"
    assert offset_plan.coords == (0.0, 0.005)
    assert offset_plan.n_points == 4

    detuning_plan = ScanPlan(currents=(-0.94,), detunings=(0.0, 500.0))
    assert detuning_plan.scan_kind == "detuning"
    assert detuning_plan.coords == (0.0, 500.0)
    assert detuning_plan.n_points == 2


def test_record_rejects_negative_counts():
    with pytest.raises(ConfigError):
        CountsRecord(current=-0.94, coord=0.0, counts=(4, -1, 2, 3))


BOUND = "counts must be at most 2**53, where floats stop holding integers exactly, got "


@pytest.mark.parametrize("count, message", [
    (math.nan, "counts must be numbers, got nan"),
    (np.float64(math.nan), "counts must be numbers, got np.float64(nan)"),
    (math.inf, BOUND + "inf"),
    (2**53 + 1, BOUND + "9007199254740993"),
    (np.uint64(2**64 - 1), BOUND + "np.uint64(18446744073709551615)"),
    (-math.inf, "counts must be non-negative, got -inf"),
    (np.int64(-3), "counts must be non-negative, got np.int64(-3)"),
    (1.5, "counts must be integers, got 1.5"),
    (True, "counts must be integers, got True"),
    ("5", "counts must be integers, got '5'"),
], ids=["nan", "np-nan", "inf", "2**53+1", "np-uint64-max", "-inf", "np-negative", "fraction",
        "bool", "string"])
def test_record_names_a_count_that_is_no_integer_in_0_to_2_to_the_53(count, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        CountsRecord(current=-0.94, coord=0.0, counts=(4, count, 2, 3))


@pytest.mark.parametrize("count", [2.0, np.int64(2), np.uint8(2), np.float32(2.0)],
                         ids=["float", "np-int64", "np-uint8", "np-float32"])
def test_record_stores_an_integral_count_as_an_int_that_round_trips(tmp_path, count):
    plan = ScanPlan(currents=(-0.94,), offsets=(0.0,), time_channels_per_period=4)
    rec = CountsRecord(current=-0.94, coord=0.0, counts=[4, count, 2**53, 0])
    assert rec.counts == (4, 2, 2**53, 0) and all(type(c) is int for c in rec.counts)
    path = tmp_path / "counts.csv"
    write_counts_csv(path, [rec], plan)
    assert path.read_text().splitlines()[1:] == [
        "-0.93999999999999995,0,0,4", "-0.93999999999999995,0,1,2",
        "-0.93999999999999995,0,2,9007199254740992", "-0.93999999999999995,0,3,0"]
    assert read_counts_csv(path).records == (rec,)


def test_record_total():
    rec = CountsRecord(current=-0.94, coord=0.0, counts=(4, 1, 2, 3))
    assert rec.total == 10


# ---------------------------------------------------------------------------
# channel means


@pytest.mark.parametrize("current", [-1.0, -0.94, -0.88])
@pytest.mark.parametrize("coord", [-0.035, 0.0, 0.005])
def test_expected_means_match_model(current, coord):
    plan = replace(PLAN, offsets=(-0.035, 0.0, 0.005), background_rate=12.0,
                   phase_offset=0.3)
    means = expected_channel_means(CFG, plan, current, coord)
    assert np.allclose(means, model_means(CFG, plan, current, coord), rtol=1e-12)


def test_expected_means_match_ideal_intensity():
    means = expected_channel_means(CFG, SMALL, -0.94, 0.005)
    period = 2.0 * math.pi / mieze_frequency(CFG)
    alpha = spin_phase(CFG, -0.94)
    gamma = energy_phase(CFG, 0.005)
    for i, mu in enumerate(means):
        t = i * period / SMALL.time_channels_per_period
        expected = SMALL.counts_scale * ideal_intensity(CFG, alpha, gamma, t)
        assert math.isclose(mu, expected, rel_tol=1e-12)


def test_expected_means_detuning_law():
    plan = ScanPlan(currents=(-0.94,), detunings=(0.0, 800.0), counts_scale=5000.0)
    omega_m = mieze_frequency(CFG)
    period = 2.0 * math.pi / omega_m
    times = np.arange(plan.time_channels_per_period) * period / plan.time_channels_per_period
    for detuning in plan.detunings:
        phase = spin_phase(CFG, -0.94) + (omega_m - 2.0 * detuning) * times
        expected = 0.5 * plan.counts_scale * (1.0 + CFG.contrast * np.cos(phase))
        means = expected_channel_means(CFG, plan, -0.94, detuning)
        assert np.allclose(means, expected, rtol=1e-12)


@pytest.mark.parametrize("plan", [
    ScanPlan(currents=(-0.94, -0.9), offsets=(-0.02, 0.005), counts_scale=5000.0,
             background_rate=4.0, phase_offset=0.8),
    ScanPlan(currents=(-0.94, -0.9), detunings=(-300.0, 800.0), counts_scale=5000.0,
             background_rate=4.0, phase_offset=-1.3),
], ids=["offset", "detuning"])
def test_analysis_phases_reproduce_simulated_means(plan):
    records = simulate_scan(CFG, plan)
    for channel in (0, 5):
        points = single_channel_points(CFG, records, channel=channel, scan_kind=plan.scan_kind)
        for rec, (phase, _, _) in zip(records, points):
            mean = plan.background_rate + 0.5 * plan.counts_scale * (
                1.0 + CFG.contrast * math.cos(phase + plan.phase_offset))
            want = expected_channel_means(CFG, plan, rec.current, rec.coord)[channel]
            assert math.isclose(mean, want, rel_tol=1e-9)


def test_expected_means_rejects_unknown_coordinate():
    with pytest.raises(ConfigError):
        expected_channel_means(CFG, SMALL, -0.94, 0.004)


def test_mean_extremes_hit_contrast_bounds():
    lo = (1.0 - CFG.contrast) / 2.0
    hi = (1.0 + CFG.contrast) / 2.0
    global_min = math.inf
    global_max = -math.inf
    for current in PLAN.currents:
        for coord in PLAN.offsets:
            rel = expected_channel_means(CFG, PLAN, current, coord) / PLAN.counts_scale
            assert rel.min() >= lo - 1e-12
            assert rel.max() <= hi + 1e-12
            global_min = min(global_min, rel.min())
            global_max = max(global_max, rel.max())
    # Somewhere on the grid a channel lands essentially on the trough/crest.
    assert global_min == pytest.approx(lo, abs=2e-3)
    assert global_max == pytest.approx(hi, abs=2e-3)


def test_mean_max_plus_min_is_n0():
    # Even channel counts sample the cosine in antipodal pairs, so the
    # sampled extrema cancel exactly and max + min = N0 + 2 bg.
    plan = replace(SMALL, background_rate=40.0)
    for current in (-1.0, -0.94):
        means = expected_channel_means(CFG, plan, current, 0.005)
        total = means.max() + means.min()
        assert math.isclose(total, plan.counts_scale + 2 * plan.background_rate,
                            rel_tol=1e-12)


def test_channel_sum_independent_of_phases():
    # The mean total over one period depends only on N0 and background.
    expected_total = 16 * (0.5 * PLAN.counts_scale)
    for current in (-1.0, -0.92):
        for coord in (-0.035, 0.005):
            means = expected_channel_means(CFG, PLAN, current, coord)
            assert math.isclose(means.sum(), expected_total, rel_tol=1e-12)
    shifted = replace(PLAN, phase_offset=1.234)
    means = expected_channel_means(CFG, shifted, -0.94, 0.005)
    assert math.isclose(means.sum(), expected_total, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_simulation_is_deterministic():
    recs1 = simulate_scan(CFG, PLAN)
    recs2 = simulate_scan(CFG, PLAN)
    assert recs1 == recs2


def test_different_seed_changes_counts():
    rec1 = simulate_scan(CFG, SMALL)[0]
    rec2 = simulate_scan(CFG, replace(SMALL, rng_seed=1))[0]
    assert rec1.counts != rec2.counts


def test_point_streams_do_not_overlap():
    # Reordering other points must not change the draws of a fixed point.
    plan = ScanPlan(currents=(-1.0, -0.94), offsets=(0.0, 0.005), rng_seed=5)
    recs = simulate_scan(CFG, plan)
    by_point = {(r.current, r.coord): r.counts for r in recs}
    assert len(by_point) == plan.n_points
    assert len({counts for counts in by_point.values()}) == plan.n_points


WIDE = replace(CFG, bandwidth=0.116)


@pytest.mark.parametrize("cfg, plan, model", [
    (CFG, ScanPlan(currents=(-1.0, -0.94, -0.9), offsets=(-0.02, 0.0, 0.005),
                   time_channels_per_period=5, phase_offset=0.3, rng_seed=11), "ideal"),
    (CFG, ScanPlan(currents=(-0.94, -0.9), offsets=(0.005, -0.035), time_channels_per_period=17,
                   background_rate=4.0, phase_offset=-1.3, rng_seed=2**64 - 1), "ideal"),
    (CFG, ScanPlan(currents=(-0.94, -0.9), detunings=(-300.0, 0.0, 800.0),
                   time_channels_per_period=17, background_rate=4.0, phase_offset=0.3,
                   rng_seed=7), "ideal"),
    (WIDE, ScanPlan(currents=(-0.94, -0.9), offsets=(0.15, 0.0, -0.05),
                    time_channels_per_period=5, background_rate=4.0, phase_offset=0.3,
                    rng_seed=3), "wavepacket"),
], ids=["n5", "n17-background", "detuning", "wavepacket"])
def test_scan_rows_are_point_stream_draws_around_point_means(cfg, plan, model):
    spec = spec_from_beamline(cfg) if model == "wavepacket" else None
    records = simulate_scan(cfg, plan, model, spec)
    assert [(r.current, r.coord) for r in records] == [
        (current, coord) for current in plan.currents for coord in plan.coords]
    for index, rec in enumerate(records):
        means = expected_channel_means(cfg, plan, rec.current, rec.coord, model, spec)
        assert rec.counts == tuple(_point_rng(plan.rng_seed, index).poisson(means).tolist())


# zero, small (a variable number of uniforms per draw) and large (PTRS) means
MIXED_MEANS = np.array([np.roll([0.0, 0.3, 2.5, 9.9, 10.0, 47.0, 4300.0], i) for i in range(7)]
                       + [[0.0] * 7, [0.7] * 7, [8600.0] * 7])


@pytest.mark.parametrize("key", [0, 2**64 - 1, _RESAMPLE_KEY | 0, _RESAMPLE_KEY | (2**64 - 1)])
def test_poisson_rows_draw_row_i_from_point_stream_i(key):
    rows = _poisson_rows(key, MIXED_MEANS)
    assert rows.dtype == np.int64 and rows.shape == MIXED_MEANS.shape
    for index, means in enumerate(MIXED_MEANS):
        np.testing.assert_array_equal(rows[index], _point_rng(key, index).poisson(means))


def test_scan_builds_one_bit_generator(monkeypatch):
    plan = load_preset("cg4b-10khz").plan
    assert plan.n_points == 104
    built, philox = [], np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    simulate_scan(CFG, plan)
    assert len(built) == 1


def test_sampled_means_converge_to_model():
    means = expected_channel_means(CFG, SMALL, -0.94, 0.005)
    n_seeds = 200
    acc = np.zeros_like(means)
    for seed in range(n_seeds):
        rec = simulate_scan(CFG, replace(SMALL, rng_seed=seed))[0]
        acc += np.asarray(rec.counts, dtype=float)
    pulls = (acc / n_seeds - means) / (np.sqrt(means) / math.sqrt(n_seeds))
    assert np.all(np.abs(pulls) < 3.0)


def test_sampled_totals_and_extremes_near_model():
    n0 = PLAN.counts_scale
    total_mean = 16 * n0 / 2.0
    for rec in simulate_scan(CFG, PLAN):
        assert abs(rec.total - total_mean) < 4.0 * math.sqrt(total_mean)
        assert abs(max(rec.counts) + min(rec.counts) - n0) < 4.0 * math.sqrt(n0)


def test_relative_intensities_span_contrast_band():
    values = np.concatenate(
        [normalize(rec, PLAN.counts_scale) for rec in simulate_scan(CFG, PLAN)]
    )
    assert values.min() >= 0.0
    assert values.max() <= 1.05
    # With C = 0.85 the folded signal sweeps roughly 0.075..0.925.
    assert values.min() < 0.08
    assert values.max() > 0.92


def test_zero_contrast_counts_are_flat():
    flat_cfg = replace(CFG, contrast=0.0)
    rec = simulate_scan(flat_cfg, replace(SMALL, rng_seed=11))[0]
    fit = fit_time_series(rec, mieze_frequency(flat_cfg))
    assert fit.amplitude < 3.0 * fit.parameter_sigmas[1]


# ---------------------------------------------------------------------------
# normalization


def test_normalize_values():
    rec = CountsRecord(current=-0.94, coord=0.0, counts=(0, 430, 8600, 4300))
    assert np.allclose(normalize(rec, 8600.0), [0.0, 0.05, 1.0, 0.5])


def test_normalize_is_linear_in_scale():
    rec = simulate_scan(CFG, SMALL)[0]
    assert np.allclose(normalize(rec, 2 * 8600.0) * 2.0, normalize(rec, 8600.0))


@pytest.mark.parametrize("n0", [0.0, -1.0, math.nan, math.inf])
def test_normalize_rejects_bad_scale(n0):
    rec = CountsRecord(current=-0.94, coord=0.0, counts=(1, 2, 3, 4))
    with pytest.raises(ValueError):
        normalize(rec, n0)


def test_scaling_counts_preserves_fitted_phase():
    rec = simulate_scan(CFG, SMALL)[0]
    doubled = CountsRecord(current=rec.current, coord=rec.coord,
                           counts=tuple(2 * c for c in rec.counts))
    omega_m = mieze_frequency(CFG)
    phi1 = fit_time_series(rec, omega_m).phase
    phi2 = fit_time_series(doubled, omega_m).phase
    assert math.isclose(phi1, phi2, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# wavepacket intensity model


def test_wavepacket_model_requires_packet_spec():
    with pytest.raises(ConfigError):
        simulate_scan(CFG, SMALL, intensity_model="wavepacket")


def test_unknown_intensity_model_rejected():
    with pytest.raises(ConfigError):
        simulate_scan(CFG, SMALL, intensity_model="exact")


def test_wavepacket_model_matches_ideal_at_focus():
    # At zero detector offset the packet envelope is 1, so both intensity
    # models agree channel by channel.
    spec = spec_from_beamline(CFG)
    plan = ScanPlan(currents=(-0.94,), offsets=(0.0,), counts_scale=8600.0)
    ideal = expected_channel_means(CFG, plan, -0.94, 0.0)
    packet = expected_channel_means(CFG, plan, -0.94, 0.0,
                                    intensity_model="wavepacket", packet_spec=spec)
    assert np.allclose(packet, ideal, rtol=1e-9)


def test_wavepacket_model_damps_contrast_off_focus():
    # A narrow 0.2% beam keeps its contrast over lab-scale offsets; use the
    # broad 11.6% beam where 150 mm visibly damps the modulation.
    wide = replace(CFG, bandwidth=0.116)
    spec = spec_from_beamline(wide)
    plan = ScanPlan(currents=(-0.94,), offsets=(0.15,), counts_scale=8600.0)
    ideal = expected_channel_means(wide, plan, -0.94, 0.15)
    packet = expected_channel_means(wide, plan, -0.94, 0.15,
                                    intensity_model="wavepacket", packet_spec=spec)
    n0_half = plan.counts_scale / 2.0
    ratio = (packet - n0_half) / (ideal - n0_half)
    assert np.allclose(ratio, ratio[0], rtol=1e-9)
    assert 0.5 < ratio[0] < 0.95
    envelope = dict(contrast_envelope(wide, spec, [0.15]))[0.15]
    assert math.isclose(ratio[0], envelope, rel_tol=1e-9)


def test_wavepacket_detuning_scan_uses_the_focus_envelope():
    # The detector stays at the focus in a detuning scan, so every point sees the
    # envelope at offset 0: the ideal means at contrast C * envelope(0).
    spec = spec_from_beamline(WIDE)
    plan = ScanPlan(currents=(-0.94, -0.9), detunings=(-300.0, 0.0, 800.0),
                    time_channels_per_period=5, background_rate=4.0, rng_seed=5)
    focus = replace(WIDE, contrast=WIDE.contrast * contrast_envelope(WIDE, spec, [0.0])[0][1])
    for current in plan.currents:
        for coord in plan.coords:
            assert np.array_equal(
                expected_channel_means(WIDE, plan, current, coord, "wavepacket", spec),
                expected_channel_means(focus, plan, current, coord))
    assert simulate_scan(WIDE, plan, "wavepacket", spec) == simulate_scan(focus, plan)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_single_offset_envelope_equals_the_plan_envelope(name):
    rc = load_preset(name)
    offsets = list(dict.fromkeys(rc.plan.offsets))
    plan_envelope = contrast_envelope(rc.beamline, rc.packet, offsets)
    assert plan_envelope == [contrast_envelope(rc.beamline, rc.packet, [offset])[0]
                             for offset in offsets]


def test_point_means_compute_one_envelope_offset(monkeypatch):
    rc = load_preset("reseda")
    calls = []

    def recording_envelope(cfg, spec, deltas):
        calls.append(list(deltas))
        return contrast_envelope(cfg, spec, deltas)

    monkeypatch.setattr(synth, "contrast_envelope", recording_envelope)
    coord = rc.plan.offsets[-1]
    means = expected_channel_means(rc.beamline, rc.plan, rc.plan.currents[0], coord,
                                   "wavepacket", rc.packet)
    assert calls == [[coord]]
    contrast = rc.beamline.contrast * contrast_envelope(rc.beamline, rc.packet, [coord])[0][1]
    assert np.array_equal(
        means, synth._point_means(rc.beamline, rc.plan, rc.plan.currents[0], coord, contrast))


@pytest.mark.parametrize("plan, message", [
    (replace(PLAN, offsets=(*PLAN.offsets, 1e305)),
     "offset 1e+305 m gives a non-finite energy phase"),
    (replace(PLAN, offsets=(-1e305, *PLAN.offsets)),
     "offset -1e+305 m gives a non-finite energy phase"),
    (replace(PLAN, currents=(*PLAN.currents, -1e305)),
     "current -1e+305 A gives a non-finite spin phase"),
    (replace(PLAN, detunings=(0.0, -1e308)),
     "detuning -1e+308 rad/s gives a non-finite energy phase"),
    (replace(PLAN, currents=(*PLAN.currents, 1e300)),
     "current 1e+300 A gives a phase of 6.37e+301 rad, over 2**32 rad"),
    (replace(PLAN, offsets=(1e300,)), "offset 1e+300 m gives a phase of 8.74e+301 rad"),
    (replace(PLAN, detunings=(1e300,)), "detuning 1e+300 rad/s gives a phase of 1.88e+296 rad"),
], ids=["offset", "negative-offset", "current", "detuning",
        "current-no-digits", "offset-no-digits", "detuning-no-digits"])
def test_simulate_scan_rejects_a_plan_whose_phase_overflows_or_has_no_digits(plan, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(message)):
            simulate_scan(CFG, plan)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_csv_round_trip_offset_scan(tmp_path):
    plan = ScanPlan(currents=(-0.94, -0.9), offsets=(0.0, 0.005),
                    counts_scale=500.0, rng_seed=3)
    records = simulate_scan(CFG, plan)
    path = tmp_path / "counts.csv"
    sidecar = write_counts_csv(path, records, plan, metadata={"note": "x"})
    assert sidecar == tmp_path / "counts.meta.json"

    lines = path.read_text().splitlines()
    assert lines[0] == "current_A,delta_mm,channel,counts"
    assert len(lines) == 1 + len(records) * plan.time_channels_per_period

    table = read_counts_csv(path)
    assert table.scan_kind == "offset"
    assert list(table.records) == records
    assert table.metadata["note"] == "x"
    assert table.metadata["format_version"] == 1


def test_csv_round_trip_detuning_scan(tmp_path):
    plan = ScanPlan(currents=(-0.94,), detunings=(0.0, 500.0), counts_scale=500.0)
    records = simulate_scan(CFG, plan)
    path = tmp_path / "detuning.csv"
    write_counts_csv(path, records, plan)
    assert read_counts_csv(path).scan_kind == "detuning"
    header = path.read_text().splitlines()[0]
    assert header == "current_A,detuning_rad_per_s,channel,counts"
    assert list(read_counts_csv(path).records) == records


def test_sidecar_plan_echo_reconstructs_plan(tmp_path):
    import json

    plan = replace(PLAN, background_rate=7.0, phase_offset=0.25)
    records = simulate_scan(CFG, plan)
    path = tmp_path / "counts.csv"
    sidecar = write_counts_csv(path, records, plan)
    meta = json.loads(sidecar.read_text())
    assert meta["scan_kind"] == "offset"
    assert ScanPlan(**meta["plan"]) == plan


COUNTS = (5, 6, 7, 8)
# Two offsets whose mm text is the same: each is written as 5.0000000000000231.
SAME_TEXT = (0.005000000000000023, math.nextafter(0.005000000000000023, 1.0))


@pytest.mark.parametrize("offsets, records, message", [
    ((0.0,), [], ": no data rows"),
    ((0.0,), [CountsRecord(-0.9, 0.0, ())], ": no data rows"),
    ((0.0, 0.005), [CountsRecord(-0.9, 0.0, COUNTS), CountsRecord(-0.9, 0.005, COUNTS[:3])],
     ": inconsistent channel counts across points: [3, 4]"),
    ((0.0,), [CountsRecord(-0.9, 0.0, COUNTS)] * 2, ": point (-0.9, 0.0) is recorded 2 times"),
    ((0.0,), [CountsRecord(0.0, 0.0, COUNTS), CountsRecord(-0.0, 0.0, COUNTS)],
     ": point (0.0, 0.0) is recorded 2 times"),
    (SAME_TEXT, [CountsRecord(-0.9, coord, COUNTS) for coord in SAME_TEXT],
     f": point (-0.9, {SAME_TEXT[1]!r}) is recorded 2 times"),
    ((0.0,), [CountsRecord(math.nan, 0.0, COUNTS)], ":2: current_A must be finite, got nan"),
    ((0.0,), [CountsRecord(-0.9, 0.0, COUNTS), CountsRecord(-0.9, math.inf, COUNTS)],
     ":6: delta_mm must be finite, got inf"),
], ids=["no-records", "no-counts", "mixed-widths", "listed-twice", "signed-zero-current",
        "same-mm-text", "nan-current", "inf-offset"])
def test_writer_refuses_with_the_readers_message_before_writing(tmp_path, offsets, records,
                                                                message):
    # Each list, written row for row without a check, makes a file the reader refuses
    # with ``message``; the writer refuses the list with it and writes no file.
    plan = ScanPlan(currents=(-0.9,), offsets=offsets)
    unchecked = tmp_path / "unchecked.csv"
    unchecked.write_text("current_A,delta_mm,channel,counts\n" + "".join(
        f"{rec.current:.17g},{rec.coord * 1e3:.17g},{channel},{count}\n"
        for rec in records for channel, count in enumerate(rec.counts)))
    unchecked.with_suffix(".meta.json").write_text(json.dumps({"plan": {"offsets": offsets}}))
    with pytest.raises(ConfigError) as read:
        read_counts_csv(unchecked)
    assert str(read.value) == f"{unchecked}{message}"
    path = tmp_path / "counts.csv"
    with pytest.raises(ConfigError) as wrote:
        write_counts_csv(path, records, plan)
    assert str(wrote.value) == f"{path}{message}"
    assert sorted(tmp_path.iterdir()) == [unchecked, unchecked.with_suffix(".meta.json")]


@pytest.mark.parametrize("offsets, records, line, text, back", [
    ((0.0,), [CountsRecord(-0.9, 0.0, COUNTS), CountsRecord(-0.9, 0.004635, COUNTS)],
     6, "4.6349999999999998", 0.004634999999999999),
    (SAME_TEXT, [CountsRecord(-0.9, SAME_TEXT[0], COUNTS)],
     2, "5.0000000000000231", SAME_TEXT[1]),
], ids=["off-plan", "first-of-same-mm-text"])
def test_writer_refuses_a_record_that_reads_back_at_another_coordinate(tmp_path, offsets,
                                                                       records, line, text, back):
    # Written unchecked, the table reads back, but the record at ``line`` comes back at
    # ``back``; the writer refuses it, naming the line, and writes no file.
    plan = ScanPlan(currents=(-0.9,), offsets=offsets)
    moved = records[-1]
    unchecked = tmp_path / "unchecked.csv"
    unchecked.write_text("current_A,delta_mm,channel,counts\n" + "".join(
        f"{rec.current:.17g},{rec.coord * 1e3:.17g},{channel},{count}\n"
        for rec in records for channel, count in enumerate(rec.counts)))
    unchecked.with_suffix(".meta.json").write_text(json.dumps({"plan": {"offsets": offsets}}))
    assert read_counts_csv(unchecked).records[-1] == replace(moved, coord=back) != moved
    path = tmp_path / "counts.csv"
    with pytest.raises(ConfigError) as wrote:
        write_counts_csv(path, records, plan)
    assert str(wrote.value) == (f"{path}:{line}: coordinate {moved.coord!r}, written as "
                                f"delta_mm {text}, would read back as {back!r}")
    assert sorted(tmp_path.iterdir()) == [unchecked, unchecked.with_suffix(".meta.json")]


@pytest.mark.parametrize("coord", [0.0, 0.005], ids=["same-point", "own-point"])
def test_writer_refuses_a_record_with_no_counts_among_others(tmp_path, coord):
    # Such a record writes no rows, so the table would read back without it.
    plan = ScanPlan(currents=(-0.9,), offsets=(0.0, 0.005))
    records = [CountsRecord(-0.9, 0.0, COUNTS), CountsRecord(-0.9, coord, ())]
    path = tmp_path / "counts.csv"
    with pytest.raises(ConfigError) as wrote:
        write_counts_csv(path, records, plan)
    assert str(wrote.value) == f"{path}: a record with no counts writes no rows"
    assert not any(tmp_path.iterdir())


def test_csv_reads_without_sidecar(tmp_path):
    plan = ScanPlan(currents=(-0.94,), offsets=(0.005,), counts_scale=500.0)
    records = simulate_scan(CFG, plan)
    path = tmp_path / "counts.csv"
    sidecar = write_counts_csv(path, records, plan)
    sidecar.unlink()
    table = read_counts_csv(path)
    assert list(table.records) == records
    assert table.metadata is None


def test_csv_offsets_round_trip_exactly_through_the_sidecar_plan(tmp_path):
    # 0.004635 m is written as 4.6349999999999998 mm, which reads back 1 ulp low.
    assert float(f"{0.004635 * 1e3:.17g}") / 1e3 != 0.004635
    plan = ScanPlan(currents=(-0.94,), offsets=(0.004635, -0.0123), counts_scale=500.0)
    path = tmp_path / "counts.csv"
    write_counts_csv(path, simulate_scan(CFG, plan), plan)
    table = read_counts_csv(path)
    assert [rec.coord for rec in table.records] == [0.004635, -0.0123]
    for rec in table.records:
        expected_channel_means(CFG, plan, rec.current, rec.coord)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("a,b,c,d\n1,2,3,4\n", "header"),
        (
            "current_A,delta_mm,channel,counts\n-0.94,0,0,5\n-0.94,0,2,5\n",
            "non-consecutive",
        ),
        (
            "current_A,delta_mm,channel,counts\n"
            + "".join(f"-0.94,0,{i},5\n" for i in range(4))
            + "".join(f"-0.9,0,{i},5\n" for i in range(5)),
            "inconsistent",
        ),
        ("current_A,delta_mm,channel,counts\n-0.94,zz,0,5\n", "bad.csv:2"),
        (
            "current_A,delta_mm,channel,counts\n"
            + "".join(f"-0.94,0,{i},5\n" for i in range(4))
            + "".join(f"-0.9,0,{i},5\n" for i in range(4))
            + "".join(f"-0.94,0,{i},5\n" for i in range(4)),
            r"point \(-0.94, 0.0\) is recorded 2 times",
        ),
        ("current_A,delta_mm,channel,counts\n-0.94,0,0,-5\n", "non-negative"),
    ],
)
def test_csv_reader_rejects_malformed_input(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ConfigError, match=fragment):
        read_counts_csv(path)


def test_csv_reader_merges_split_points_in_file_order(tmp_path):
    # Point A is split around point B, and its zero offset is spelled four ways: the
    # rows merge in file order under the first key seen, +0.0.
    path = tmp_path / "split.csv"
    path.write_text("current_A,delta_mm,channel,counts\n"
                    "-0.94,0,0,5\n-0.94,0.0,1,6\n"
                    + "".join(f"-0.9,0.5,{i},{i + 1}\n" for i in range(4))
                    + "-0.94,-0,2,7\n-0.94,0e0,3,8\n")
    a, b = read_counts_csv(path).records
    assert (a.current, a.coord, a.counts) == (-0.94, 0.0, (5, 6, 7, 8))
    assert math.copysign(1.0, a.coord) == 1.0
    assert (b.current, b.coord, b.counts) == (-0.9, 0.5 / 1e3, (1, 2, 3, 4))
    path.write_text("current_A,delta_mm,channel,counts\n"
                    + "".join(f"-0.94,0,{i},5\n" for i in (0, 2, 1, 3)))
    with pytest.raises(ConfigError, match="non-consecutive"):
        read_counts_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("header, row, column", [
    ("current_A,delta_mm", "{bad},0", "current_A"),
    ("current_A,delta_mm", "-0.94,{bad}", "delta_mm"),
    ("current_A,detuning_rad_per_s", "-0.94,{bad}", "detuning_rad_per_s"),
], ids=["current", "offset", "detuning"])
def test_csv_reader_rejects_non_finite_coordinates(tmp_path, header, row, column, bad):
    path = tmp_path / "bad.csv"
    lines = [f"{header},channel,counts"] + [f"-0.9,0,{i},5" for i in range(4)]
    lines += [f"{row.format(bad=bad)},{i},5" for i in range(4)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"bad.csv:6: {column} must be finite"):
        read_counts_csv(path)


def table_with_defects(tmp_path, defects, rows=12):
    """A counts CSV of three 4-channel points; ``defects`` maps a line number to its new text."""
    lines = ["current_A,delta_mm,channel,counts"]
    lines += [f"{-0.9 - 0.01 * (i // 4)},0,{i % 4},5" for i in range(rows)]
    for lineno, text in defects.items():
        lines[lineno - 1] = text
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# Line 1 is the header; a defect names the line it sits on, the first one in the file wins.
@pytest.mark.parametrize("defects, message", [
    ({4: "inf,0,2,5", 7: "-0.91,0,1,many"}, "bad.csv:4: current_A must be finite, got inf"),
    ({3: "-0.9,zz,1,5", 9: "-0.91,0,3"}, "bad.csv:3: could not convert string to float: 'zz'"),
    ({5: "-0.9,0,3,5,5", 8: "-0.91,0,2,x", 10: "nan,0,0,5"},
     "bad.csv:5: expected 4 columns, got 5"),
    ({2: "", 6: "-0.91,0,0"}, "bad.csv:6: expected 4 columns, got 3"),
    ({6: "-0.91,nan,0,-", 11: "-0.92,0,2,5,"},
     "bad.csv:6: invalid literal for int() with base 10: '-'"),
    ({9: "nan,1e999,1.5,5"}, "bad.csv:9: invalid literal for int() with base 10: '1.5'"),
    ({9: f"nan,1e999,0,{2**53 + 1}"}, "bad.csv:9: counts must be at most 2**53, where floats "
                                     "stop holding integers exactly, got 9007199254740993"),
    ({9: "-inf,1e999,0,5"}, "bad.csv:9: current_A must be finite, got -inf"),
    ({9: "-0.92,1e999,0,5"}, "bad.csv:9: delta_mm must be finite, got inf"),
    ({5: "-0.9,0,3,-5", 8: "-0.91,0,2,x"}, "bad.csv:5: counts must be non-negative, got -5"),
    ({9: "nan,0,0,-5"}, "bad.csv:9: counts must be non-negative, got -5"),
    ({7: f"-0.91,0,1,{'9' * 5000}", 11: "inf,0,1,5"}, "bad.csv:7: Exceeds the limit (4300 digits)"),
    ({5: ",,,", 8: "-0.91,0,2,x"}, "bad.csv:5: could not convert string to float: ''"),
    ({13: "-0.92,0,3,x"}, "bad.csv:13: invalid literal for int() with base 10: 'x'"),
    ({9: "-0.92,0,x,y"}, "bad.csv:9: invalid literal for int() with base 10: 'x'"),
], ids=["finite-before-count", "coordinate-before-short", "long-before-count",
        "short-after-blank", "count-on-a-line-with-nan", "channel-before-finite",
        "count-bound-before-finite", "current-before-coordinate", "coordinate",
        "negative-count-before-bad-count", "sign-before-finite", "count-too-long-to-parse",
        "all-empty-row", "last-line", "channel-before-count"])
def test_csv_reader_reports_the_first_defective_line(tmp_path, defects, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        read_counts_csv(table_with_defects(tmp_path, defects))


@pytest.mark.parametrize("count, shown", [(2**53 + 1, "9007199254740993"),
                                          (10**400, "an integer of 1329 bits")],
                         ids=["2**53+1", "10**400"])
def test_csv_reader_rejects_a_count_over_2_to_the_53(tmp_path, count, shown):
    path = table_with_defects(tmp_path, {7: f"-0.91,0,1,{count}"})
    with pytest.raises(ConfigError, match=re.escape(
            f"bad.csv:7: counts must be at most 2**53, where floats stop holding integers "
            f"exactly, got {shown}")):
        read_counts_csv(path)


def test_csv_reader_accepts_a_count_of_2_to_the_53(tmp_path):
    table = read_counts_csv(table_with_defects(tmp_path, {7: f"-0.91,0,1,{2**53}"}))
    assert [rec.counts for rec in table.records] == [(5,) * 4, (5, 2**53, 5, 5), (5,) * 4]


# SHA-256 of the ideal-model counts.csv of each shipped preset at its own
# seed.  Any change to the sampling streams or the CSV format moves these.
GOLDEN_COUNTS_SHA256 = {
    "cg4b-10khz": "ab8e1acbd993efdf78aea3438847a96a73a04a044cda7a1c8e971e445b76b070",
    "cg4b-100khz": "451e5a191666584b841e32588de7ca6c5ab2e7e0c456a048f8485f4304e7d712",
    "reseda": "84a8ff225d1588c39b80ecae7de1f3602d786c972c38f66ceb2dd10c4de1c1fc",
}


def test_golden_hashes_cover_every_preset():
    assert set(GOLDEN_COUNTS_SHA256) == set(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS_SHA256))
def test_preset_counts_bytes_are_pinned(tmp_path, name):
    rc = load_preset(name)
    path = tmp_path / "counts.csv"
    write_counts_csv(path, simulate_scan(rc.beamline, rc.plan), rc.plan)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_COUNTS_SHA256[name]


# SHA-256 of each shipped preset's wave-packet outputs: the counts.csv of
# `simulate --model wavepacket` and the envelope.csv of `envelope --format
# csv`.  Any change to the k quadrature that moves a last bit moves these.
GOLDEN_WAVEPACKET_SHA256 = {
    "cg4b-10khz": (
        "0f4fa4d9cde8e9ef1f2324fc20edf6599da6651457619bc2ec88040d49b271b2",
        "24b08bb13cef0b978eadd3e1eebe1b242a242a1e8bc458dca98831e331efc0dd",
    ),
    "cg4b-100khz": (
        "b3a867f1ef64b9763be57d5ef27f6de5ce0959c2ae55663f1f367cad3170acb9",
        "6641df3f350425f445865fbfeb29db97f1d9750afd1e2beb2c00060bd21b275f",
    ),
    "reseda": (
        "c2d7ce2da57a5c514e532ff2b3619a9482b3da68b09cb93365940581273c8922",
        "1db900ab0cf7a5045007b168f442244576c75cf9f9cd04914c6be95ae8360b8a",
    ),
}


def test_golden_wavepacket_hashes_cover_every_preset():
    assert set(GOLDEN_WAVEPACKET_SHA256) == set(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN_WAVEPACKET_SHA256))
def test_preset_wavepacket_bytes_are_pinned(tmp_path, capsys, name):
    counts_sha, envelope_sha = GOLDEN_WAVEPACKET_SHA256[name]
    rc = load_preset(name)
    path = tmp_path / "counts.csv"
    records = simulate_scan(rc.beamline, rc.plan, intensity_model="wavepacket",
                            packet_spec=rc.packet)
    write_counts_csv(path, records, rc.plan)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == counts_sha
    assert main(["envelope", "--preset", name, "--out", str(tmp_path), "--format", "csv"]) == 0
    envelope = (tmp_path / "envelope.csv").read_bytes()
    assert hashlib.sha256(envelope).hexdigest() == envelope_sha


# Every CSV the package writes is compared, byte for byte, with what csv.writer makes
# of the same fields: numbers as format(x, ".17g"), ints as they are, \r\n line ends.
def csv_writer_bytes(header, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def g17(x) -> str:
    return format(float(x), ".17g")


def counts_reference(records, plan) -> bytes:
    kind = plan.scan_kind
    column, scale = {"offset": ("delta_mm", 1e3), "detuning": ("detuning_rad_per_s", 1.0)}[kind]
    return csv_writer_bytes(["current_A", column, "channel", "counts"],
                            ([g17(rec.current), g17(rec.coord * scale), channel, count]
                             for rec in records for channel, count in enumerate(rec.counts)))


@pytest.mark.parametrize("model", ["ideal", "wavepacket", "detuning"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_counts_tables_have_the_bytes_of_csv_writer(tmp_path, name, model):
    rc = load_preset(name)
    plan = rc.plan
    if model == "detuning":
        plan = replace(plan, detunings=(-3000.0, -1500.0, 0.0, 1500.0, 3000.0))
    records = simulate_scan(rc.beamline, plan,
                            intensity_model="ideal" if model == "detuning" else model,
                            packet_spec=rc.packet)
    path = tmp_path / "counts.csv"
    write_counts_csv(path, records, plan)
    assert path.read_bytes() == counts_reference(records, plan)


@pytest.mark.parametrize("kind", ["offsets", "detunings"])
def test_edge_values_have_the_bytes_of_csv_writer_and_read_back(tmp_path, kind):
    coords = (-1.2345678901234567e-300, 5e-324, 9.8765432109876543e299, -1e300)
    plan = ScanPlan(currents=(-0.0, 1e-300, -1e300), **{kind: coords})
    counts = [(0, 2**53, 1, 7), (2**53, 2**53 - 1, 0, 3)]
    records = [CountsRecord(current, coord, counts[i % 2])
               for i, (current, coord) in enumerate(
                   (current, coord) for current in plan.currents for coord in plan.coords)]
    path = tmp_path / "edge.csv"
    write_counts_csv(path, records, plan)
    text = path.read_bytes()
    assert text == counts_reference(records, plan)
    assert text.startswith(b"current_A,") and b"\r\n-0," in text and b",9007199254740992\r\n" in text
    table = read_counts_csv(path)
    assert [(r.current, r.coord, r.counts) for r in table.records] == [
        (r.current, r.coord, r.counts) for r in records]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cli_tables_have_the_bytes_of_csv_writer(tmp_path, name):
    from miezesim import analyze_records

    sim, wit, env = tmp_path / "sim", tmp_path / "wit", tmp_path / "env"
    assert main(["simulate", "--preset", name, "--out", str(sim)]) == 0
    assert main(["witness", "--counts", str(sim / "counts.csv"), "--out", str(wit)]) == 0
    assert main(["envelope", "--preset", name, "--out", str(env)]) == 0
    rc = load_preset(name)
    table = read_counts_csv(sim / "counts.csv")
    report = analyze_records(rc.beamline, table.records, rc.settings, scan_kind=table.scan_kind)
    assert (wit / "fit_points.csv").read_bytes() == csv_writer_bytes(
        ["phase_rad", "intensity", "intensity_err", "model"],
        ([g17(p.phase), g17(p.intensity), g17(p.sigma), g17(p.model)] for p in report.points))
    deltas = sorted(set(rc.plan.offsets) | {0.0})
    assert (env / "envelope.csv").read_bytes() == csv_writer_bytes(
        ["delta_mm", "contrast"],
        ([g17(delta / 1e-3), g17(contrast)]
         for delta, contrast in contrast_envelope(rc.beamline, rc.packet, deltas)))
