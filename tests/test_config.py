"""Run-config parsing: units, ranges, validation messages, canonical echo."""

import functools
import json
import math

import numpy as np
import pytest

from miezesim import config
from miezesim import (
    ConfigError,
    PRESETS,
    ScanPlan,
    WavePacketSpec,
    analyze_records,
    bootstrap_uncertainty,
    config_echo,
    focusing_distance,
    load_preset,
    load_run_config,
    optimal_settings,
    parse_run_config,
    preset_text,
    simulate_scan,
    single_channel_points,
)


def base_config(**beamline_extra):
    beamline = {
        "wavelength_nm": 0.55,
        "bandwidth_fraction": 0.002,
        "f1_khz": 45,
        "f2_khz": 50,
        "l1_mm": 85,
        "coil_calibration_mt_mm_per_a": 250,
    }
    beamline.update(beamline_extra)
    return {"beamline": beamline}


# ---------------------------------------------------------------------------
# units and defaults


def test_unit_suffixed_keys_convert_to_si():
    rc = parse_run_config(base_config(l2_mm=765, guide_field_integral_mt_mm=25))
    cfg = rc.beamline
    assert cfg.wavelength == pytest.approx(0.55e-9, rel=1e-15)
    assert cfg.bandwidth == 0.002
    assert cfg.f1 == 45e3
    assert cfg.f2 == 50e3
    assert cfg.l1 == 0.085
    assert cfg.l2 == 0.765
    assert cfg.coil_cal == 250e-6
    assert cfg.guide_bl == pytest.approx(25e-6, rel=1e-15)


def test_beamline_defaults():
    cfg = parse_run_config(base_config()).beamline
    assert cfg.polarizer_eff == 0.96
    assert cfg.contrast == 1.0
    assert cfg.mean_level == 0.5
    assert cfg.guide_bl == 0.0


def test_omitted_detector_distance_uses_focusing_condition():
    rc = parse_run_config(base_config())
    assert math.isclose(rc.beamline.l2, focusing_distance(rc.beamline), rel_tol=1e-12)
    assert math.isclose(rc.beamline.l2, 0.765, rel_tol=1e-12)


def test_explicit_detector_distance_is_kept():
    rc = parse_run_config(base_config(l2_mm=700))
    assert rc.beamline.l2 == pytest.approx(0.700, rel=1e-15)


def test_default_sections():
    rc = parse_run_config(base_config())
    assert rc.packet is None
    assert rc.plan is None
    assert rc.settings == optimal_settings()
    assert rc.output_dir == "."


# ---------------------------------------------------------------------------
# validation messages


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update({"beamlines": {}}), "config.beamlines: unknown field"),
        (lambda d: d["beamline"].update({"f3_khz": 1}), "beamline.f3_khz: unknown field"),
        (lambda d: d["beamline"].pop("wavelength_nm"),
         "beamline.wavelength_nm: missing required field"),
        (lambda d: d.pop("beamline"), "beamline: missing required section"),
        (lambda d: d.update({"beamline": 3}), "beamline: expected an object"),
        (lambda d: d["beamline"].update({"f1_khz": "fast"}), "beamline.f1_khz: expected a number"),
        (lambda d: d["beamline"].update({"f1_khz": True}), "beamline.f1_khz: expected a number"),
        (lambda d: d["beamline"].update({"f1_khz": math.inf}), "beamline.f1_khz: must be finite"),
        (lambda d: d.update({"output_dir": 3}), "output_dir: expected a string"),
    ],
)
def test_rejects_malformed_beamline(mutate, fragment):
    data = base_config()
    mutate(data)
    with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
        parse_run_config(data)


@pytest.mark.parametrize(
    "plan, fragment",
    [
        ({"currents": [-1.0]}, "plan.currents: unknown field"),
        ({}, "plan.currents_a: missing required field"),
        ({"currents_a": []}, "plan.currents_a: expected a non-empty list"),
        ({"currents_a": [-1.0, "x"]}, r"plan.currents_a\[1\]: expected a finite number"),
        ({"currents_a": [-1.0], "time_channels_per_period": 8.5},
         "plan.time_channels_per_period: expected an integer"),
        ({"currents_a": [-1.0], "rng_seed": -1}, "rng_seed"),
    ],
)
def test_rejects_malformed_plan(plan, fragment):
    data = base_config()
    data["plan"] = plan
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(data)


def test_rejects_malformed_packet():
    data = base_config()
    data["packet"] = {"shape": "boxcar"}
    with pytest.raises(ConfigError, match="packet.shape: must be one of"):
        parse_run_config(data)
    data["packet"] = {"form": "gaussian"}
    with pytest.raises(ConfigError, match="packet.form: unknown field"):
        parse_run_config(data)


# ---------------------------------------------------------------------------
# value lists and ranges


def test_current_range_expansion():
    data = base_config()
    data["plan"] = {"currents_a": {"start": -1.0, "stop": -0.88, "step": 0.01}}
    plan = parse_run_config(data).plan
    assert len(plan.currents) == 13
    assert plan.currents[0] == -1.0
    assert math.isclose(plan.currents[-1], -0.88, rel_tol=1e-12)
    steps = {round(b - a, 12) for a, b in zip(plan.currents, plan.currents[1:])}
    assert steps == {0.01}


def test_descending_range_expansion():
    data = base_config()
    data["plan"] = {"currents_a": {"start": -0.88, "stop": -1.0, "step": -0.01}}
    assert len(parse_run_config(data).plan.currents) == 13


@pytest.mark.parametrize(
    "rng, fragment",
    [
        ({"start": -1.0, "stop": -0.88, "step": 0.007}, "evenly divide"),
        ({"start": -1.0, "stop": -0.88, "step": 0.0}, "nonzero"),
        ({"start": -1.0, "stop": -0.88, "step": -0.01}, "direction"),
        ({"start": -1.0, "stop": -0.88}, "step: missing required field"),
        ({"start": -1.0, "stop": -0.88, "step": 0.01, "count": 13}, "unknown field"),
    ],
)
def test_rejects_malformed_ranges(rng, fragment):
    data = base_config()
    data["plan"] = {"currents_a": rng}
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(data)


def test_offsets_scale_to_meters():
    data = base_config()
    data["plan"] = {"currents_a": [-1.0], "offsets_mm": [-35, 0, 35]}
    plan = parse_run_config(data).plan
    assert plan.offsets == (-0.035, 0.0, 0.035)
    assert plan.scan_kind == "offset"


def test_detunings_make_a_detuning_plan():
    data = base_config()
    data["plan"] = {"currents_a": [-1.0], "detunings_rad_per_s": [0.0, 500.0]}
    plan = parse_run_config(data).plan
    assert plan.scan_kind == "detuning"
    assert plan.detunings == (0.0, 500.0)


# ---------------------------------------------------------------------------
# witness settings


def test_optimal_settings_flag():
    data = base_config()
    data["settings"] = {"optimal": True}
    assert parse_run_config(data).settings == optimal_settings()
    data["settings"] = {"optimal": True, "alpha1_rad": 0.3}
    assert parse_run_config(data).settings == optimal_settings(0.3)


def test_optimal_flag_rejects_explicit_angles():
    data = base_config()
    data["settings"] = {"optimal": True, "gamma1_rad": 0.0}
    with pytest.raises(ConfigError, match="only alpha1_rad"):
        parse_run_config(data)
    data["settings"] = {"optimal": 1}
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_run_config(data)


def test_explicit_settings():
    data = base_config()
    data["settings"] = {
        "alpha1_rad": 0.1, "alpha2_rad": 1.2, "gamma1_rad": -0.4, "gamma2_rad": 0.9,
    }
    s = parse_run_config(data).settings
    assert (s.alpha1, s.alpha2, s.gamma1, s.gamma2) == (0.1, 1.2, -0.4, 0.9)
    del data["settings"]["gamma2_rad"]
    with pytest.raises(ConfigError, match="settings.gamma2_rad: missing required field"):
        parse_run_config(data)


# ---------------------------------------------------------------------------
# canonical echo


def full_config():
    data = base_config(l2_mm=700, contrast=0.9)
    data["packet"] = {"shape": "triangular", "kappa": 2.0, "half_span": 1.5}
    data["plan"] = {
        "currents_a": {"start": -1.0, "stop": -0.88, "step": 0.01},
        "offsets_mm": [-35, -5, 5, 35],
        "counts_scale": 2000,
        "rng_seed": 7,
    }
    data["settings"] = {"optimal": True, "alpha1_rad": 0.25}
    data["output_dir"] = "out"
    return data


def test_echo_round_trip_is_exact():
    rc = parse_run_config(full_config())
    echo = config_echo(rc)
    assert parse_run_config(json.loads(json.dumps(echo))) == rc


def test_echo_expands_ranges_and_settings():
    echo = config_echo(parse_run_config(full_config()))
    assert len(echo["plan"]["currents_a"]) == 13
    assert set(echo["settings"]) == {
        "alpha1_rad", "alpha2_rad", "gamma1_rad", "gamma2_rad",
    }
    assert echo["beamline"]["l2_mm"] == 700.0
    assert echo["packet"]["shape"] == "triangular"


def test_echo_round_trip_with_detunings():
    data = base_config()
    data["plan"] = {"currents_a": [-1.0], "detunings_rad_per_s": [0.0, 500.0]}
    rc = parse_run_config(data)
    assert parse_run_config(config_echo(rc)) == rc


# ---------------------------------------------------------------------------
# files and presets


def test_load_run_config_reads_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(full_config()))
    assert load_run_config(path) == parse_run_config(full_config())


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="run.json"):
        load_run_config(tmp_path / "run.json")


def test_load_run_config_anchors_json_errors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{\n  "beamline": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"run\.json:2:16"):
        load_run_config(path)


def test_load_run_config_anchors_field_errors(tmp_path):
    path = tmp_path / "run.json"
    data = base_config()
    data["beamline"]["f3_khz"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=r"run\.json: beamline\.f3_khz"):
        load_run_config(path)


def test_presets_parse_and_focus():
    assert PRESETS == ("cg4b-10khz", "cg4b-100khz", "reseda")
    for name in PRESETS:
        rc = load_preset(name)
        assert rc.plan is not None
        assert rc.packet is not None
        assert len(rc.plan.currents) == 13
        echo = config_echo(rc)
        assert parse_run_config(json.loads(json.dumps(echo))) == rc


def test_preset_parameters():
    low = load_preset("cg4b-10khz")
    assert low.beamline.f1 == 45e3 and low.beamline.f2 == 50e3
    assert math.isclose(low.beamline.l2, 0.765, rel_tol=1e-12)
    assert low.beamline.contrast == 0.85
    assert low.plan.offsets[0] == -0.035

    high = load_preset("cg4b-100khz")
    assert high.beamline.f1 == 150e3 and high.beamline.f2 == 200e3
    assert math.isclose(high.beamline.l2, 0.255, rel_tol=1e-12)
    assert high.beamline.contrast == 0.82

    reseda = load_preset("reseda")
    assert reseda.beamline.wavelength == 0.6e-9
    assert reseda.beamline.bandwidth == 0.116
    assert reseda.packet.shape.value == "triangular"


def test_load_preset_names_the_preset_in_its_errors(monkeypatch):
    monkeypatch.setattr(config, "preset_text", lambda name: json.dumps({"beamline": {}}))
    with pytest.raises(ConfigError, match=r"^preset reseda: beamline\.wavelength_nm: "
                                          r"missing required field$"):
        load_preset("reseda")


def test_preset_text_round_trips():
    text = preset_text("cg4b-10khz")
    assert load_preset("cg4b-10khz") == parse_run_config(json.loads(text))
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_text("cg4b")


# ---------------------------------------------------------------------------
# echo layout and the package surface


ECHO_KEYS = {
    "beamline": [
        "wavelength_nm", "bandwidth_fraction", "f1_khz", "f2_khz", "l1_mm", "l2_mm",
        "coil_calibration_mt_mm_per_a", "guide_field_integral_mt_mm",
        "polarizer_efficiency", "contrast", "mean_level",
    ],
    "packet": ["shape", "kappa", "n_samples", "half_span"],
    "plan": [
        "currents_a", "offsets_mm", "time_channels_per_period", "counts_scale",
        "background_rate", "phase_offset_rad", "rng_seed",
    ],
    "settings": ["alpha1_rad", "alpha2_rad", "gamma1_rad", "gamma2_rad"],
}


@pytest.mark.parametrize("name", PRESETS)
def test_echo_key_order_is_pinned(name):
    # witness.json is written without sort_keys, so the echo's order is its layout.
    echo = config_echo(load_preset(name))
    assert list(echo) == ["beamline", "packet", "plan", "settings", "output_dir"]
    for section, keys in ECHO_KEYS.items():
        assert list(echo[section]) == keys, section
    assert isinstance(echo["packet"]["n_samples"], int)
    assert isinstance(echo["plan"]["time_channels_per_period"], int)
    assert isinstance(echo["plan"]["rng_seed"], int)


def test_echo_puts_detunings_last():
    data = base_config()
    data["plan"] = {"currents_a": [-1.0], "detunings_rad_per_s": [0.0, 500.0]}
    plan = config_echo(parse_run_config(data))["plan"]
    assert list(plan) == ECHO_KEYS["plan"] + ["detunings_rad_per_s"]


def test_omitted_keys_take_the_dataclass_defaults():
    from miezesim import RunConfig, ScanPlan, WavePacketSpec

    data = base_config(l2_mm=765)
    data["packet"] = {}
    data["plan"] = {"currents_a": [-1.0]}
    rc = parse_run_config(data)
    assert rc == RunConfig(
        beamline=rc.beamline,
        packet=WavePacketSpec(k0=rc.beamline.k0, bandwidth=rc.beamline.bandwidth),
        plan=ScanPlan(currents=(-1.0,)),
    )


def test_beamline_has_no_constants_option():
    from dataclasses import fields

    from miezesim import BeamlineConfig

    assert "constants" not in {f.name for f in fields(BeamlineConfig)}


def test_package_exports_every_layer_name():
    import importlib

    import miezesim

    layers = ("constants", "errors", "quantum", "beamline", "wavepacket", "synth",
              "analysis", "config")
    for layer in layers:
        module = importlib.import_module(f"miezesim.{layer}")
        for name in module.__all__:
            assert name in miezesim.__all__, f"{layer}.{name}"
            assert getattr(miezesim, name) is getattr(module, name)
    assert len(set(miezesim.__all__)) == len(miezesim.__all__)


@pytest.mark.parametrize("f1_khz, f2_khz, l1_mm", [(44, 200, 85), (48, 50, 100), (49, 60, 85)])
def test_echo_round_trip_is_exact_for_focusing_distance(f1_khz, f2_khz, l1_mm):
    # With l2_mm omitted, l2 is computed in SI; its mm echo must still re-parse to it.
    rc = parse_run_config(base_config(f1_khz=f1_khz, f2_khz=f2_khz, l1_mm=l1_mm))
    assert parse_run_config(json.loads(json.dumps(config_echo(rc)))) == rc
    assert math.isclose(rc.beamline.l2, focusing_distance(rc.beamline), rel_tol=1e-15)


# ---------------------------------------------------------------------------
# library input too large to print: the message is bounded, the error typed


@pytest.mark.parametrize("build", [
    lambda: ScanPlan(currents=(-0.9,), rng_seed=10**5000),
    lambda: ScanPlan(currents=(-0.9,), time_channels_per_period=10**5000),
    lambda: WavePacketSpec(k0=1e10, bandwidth=0.01, n_samples=10**5000),
    lambda: bootstrap_uncertainty(parse_run_config(base_config()).beamline, [],
                                  optimal_settings(), seed=10**5000),
    lambda: parse_run_config({**base_config(), "plan": {"currents_a": [10**5000]}}),
    lambda: ScanPlan(currents=(-0.9,), rng_seed=math.inf),
    lambda: ScanPlan(currents=(-0.9,), rng_seed=math.nan),
], ids=["rng_seed", "time_channels_per_period", "n_samples", "bootstrap-seed",
        "config-list-item", "rng_seed-inf", "rng_seed-nan"])
def test_unprintable_or_non_integer_input_is_a_config_error(build):
    with pytest.raises(ConfigError) as err:
        build()
    assert len(str(err.value)) < 200


@functools.cache
def scan():
    rc = load_preset("cg4b-10khz")
    return rc, simulate_scan(rc.beamline, rc.plan)


def bootstrap(**kwargs):
    rc, records = scan()
    return bootstrap_uncertainty(rc.beamline, records, rc.settings, **{"resamples": 100, **kwargs})


# Each library input that takes an integer: a valid value, and what the input gives for a value.
INTEGER_INPUTS = {
    "time_channels_per_period": (16, lambda v: ScanPlan(
        currents=(-0.9,), time_channels_per_period=v).time_channels_per_period),
    "rng_seed": (5, lambda v: ScanPlan(currents=(-0.9,), rng_seed=v).rng_seed),
    "n_samples": (64, lambda v: WavePacketSpec(k0=1e10, bandwidth=0.01, n_samples=v).n_samples),
    "bootstrap-resamples": (100, lambda v: bootstrap(resamples=v)),
    "bootstrap-seed": (5, lambda v: bootstrap(seed=v)),
    "bootstrap-channel": (3, lambda v: bootstrap(channel=v)),
    "analyze_records-channel": (3, lambda v: json.dumps(analyze_records(
        scan()[0].beamline, scan()[1], scan()[0].settings, channel=v).diagnostics)),
    "single_channel_points-channel": (3, lambda v: single_channel_points(
        scan()[0].beamline, scan()[1], channel=v)),
}


@pytest.mark.parametrize("site", INTEGER_INPUTS)
@pytest.mark.parametrize("bad", ["3", None, True, 2.5],
                         ids=["str", "None", "bool", "non-integral"])
def test_a_non_integer_input_is_a_config_error(site, bad):
    with pytest.raises(ConfigError):
        INTEGER_INPUTS[site][1](bad)


@pytest.mark.parametrize("site", INTEGER_INPUTS)
@pytest.mark.parametrize("integral", [float, np.int64, np.uint64])
def test_a_number_equal_to_an_integer_is_taken_as_that_integer(site, integral):
    value, read = INTEGER_INPUTS[site]
    got, want = read(integral(value)), read(value)
    assert got == want and type(got) is type(want)


def test_range_with_too_many_points_is_a_config_error():
    # A few bytes of range must not expand into an unbounded tuple; the
    # second span overflows to inf.
    for start, stop in ((0, 2**16), (-1e308, 1e308)):
        data = {**base_config(), "plan": {"currents_a": {"start": start, "stop": stop,
                                                         "step": 1}}}
        with pytest.raises(ConfigError, match=r"range has more than 2\*\*16 points"):
            parse_run_config(data)
    data = {**base_config(), "plan": {"currents_a": {"start": 1, "stop": 2**16, "step": 1}}}
    assert len(parse_run_config(data).plan.currents) == 2**16
