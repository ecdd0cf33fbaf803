"""End-to-end CLI behavior: artifacts, stdout, report contents, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import miezesim

from miezesim import __version__, load_preset, optimal_settings, parse_run_config
from miezesim.config import preset_text
from miezesim.cli import main

SMALL_CONFIG = {
    "beamline": {
        "wavelength_nm": 0.55,
        "bandwidth_fraction": 0.002,
        "f1_khz": 45,
        "f2_khz": 50,
        "l1_mm": 85,
        "coil_calibration_mt_mm_per_a": 250,
        "contrast": 0.85,
    },
    "packet": {"shape": "gaussian"},
    "plan": {
        "currents_a": {"start": -1.0, "stop": -0.88, "step": 0.01},
        "offsets_mm": [-35, -5, 5, 35],
        "counts_scale": 8600,
        "rng_seed": 99,
    },
    "settings": {"optimal": True},
}


def write_config(tmp_path, data=None, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data if data is not None else SMALL_CONFIG))
    return path


def run_simulate(tmp_path, out="sim", extra=()):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / out
    code = main(["simulate", "--config", str(cfg), "--out", str(out_dir), *extra])
    assert code == 0
    return out_dir / "counts.csv"


# ---------------------------------------------------------------------------
# top-level parser


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == f"miezesim {__version__}"


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; nothing may pull scipy in.
    env = dict(os.environ)
    package_root = str(Path(miezesim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, miezesim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["focus", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_config_names_the_field(tmp_path, capsys):
    data = json.loads(json.dumps(SMALL_CONFIG))
    del data["beamline"]["wavelength_nm"]
    cfg = write_config(tmp_path, data)
    code = main(["focus", "--config", str(cfg)])
    assert code == 2
    assert "beamline.wavelength_nm: missing required field" in capsys.readouterr().err


def test_infeasible_frequencies_exit_3(tmp_path, capsys):
    data = json.loads(json.dumps(SMALL_CONFIG))
    data["beamline"]["f2_khz"] = 45
    cfg = write_config(tmp_path, data)
    code = main(["focus", "--config", str(cfg)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_counts_and_sidecar(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 52 scan points x 16 channels" in out
    assert counts.exists()
    sidecar = counts.with_name("counts.meta.json")
    assert sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["model"] == "ideal"
    assert meta["tool_version"] == __version__
    rc = parse_run_config(meta["config_echo"])
    assert rc.plan.rng_seed == 99
    assert rc.settings == optimal_settings()


def test_simulate_is_reproducible(tmp_path):
    first = run_simulate(tmp_path, out="a").read_bytes()
    second = run_simulate(tmp_path, out="b").read_bytes()
    assert first == second


def test_simulate_seed_override(tmp_path):
    base = run_simulate(tmp_path, out="a")
    other = run_simulate(tmp_path, out="b", extra=["--seed", "7"])
    assert base.read_bytes() != other.read_bytes()
    meta = json.loads(other.with_name("counts.meta.json").read_text())
    assert meta["plan"]["rng_seed"] == 7
    assert meta["config_echo"]["plan"]["rng_seed"] == 7


def test_simulate_uses_config_output_dir(tmp_path, monkeypatch):
    data = json.loads(json.dumps(SMALL_CONFIG))
    data["output_dir"] = str(tmp_path / "from-config")
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "from-config" / "counts.csv").exists()


def test_simulate_requires_plan(tmp_path, capsys):
    data = {"beamline": SMALL_CONFIG["beamline"]}
    cfg = write_config(tmp_path, data)
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2
    assert "plan" in capsys.readouterr().err


def test_simulate_wavepacket_model(tmp_path, capsys):
    counts = run_simulate(tmp_path, out="wp", extra=["--model", "wavepacket"])
    meta = json.loads(counts.with_name("counts.meta.json").read_text())
    assert meta["model"] == "wavepacket"

    data = json.loads(json.dumps(SMALL_CONFIG))
    del data["packet"]
    cfg = write_config(tmp_path, data, name="nopacket.json")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--model", "wavepacket"])
    assert code == 2
    assert "packet" in capsys.readouterr().err


def test_simulate_from_preset(tmp_path, capsys):
    code = main(["simulate", "--preset", "cg4b-10khz", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "counts.csv").exists()
    assert "104 scan points" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# witness


def test_witness_from_sidecar_echo(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    out_dir = tmp_path / "wit"
    code = main(["witness", "--counts", str(counts), "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "S = " in out and "(quantum)" in out
    assert "count-ratio route" in out and "per-point fit route" in out

    report = json.loads((out_dir / "witness.json").read_text())
    assert report["classification"] == "quantum"
    assert abs(report["s"] - 2.404) < 3.0 * report["sigma_s"] + 0.01
    assert abs(report["contrast"] - 0.85) < 4.0 * report["contrast_sigma"]
    assert report["scan_kind"] == "offset"
    assert report["seed"] == 99
    assert report["count_route"]["classification"] == "quantum"
    assert report["channel_route"]["classification"] == "quantum"
    assert report["bootstrap"] is None
    # The embedded echo re-parses to the exact configuration that was run.
    assert parse_run_config(report["config_echo"]).plan.rng_seed == 99

    lines = (out_dir / "fit_points.csv").read_text().splitlines()
    assert lines[0] == "phase_rad,intensity,intensity_err,model"
    assert len(lines) == 1 + 52


def test_witness_report_matches_library_analysis(tmp_path):
    from miezesim import analyze_records, read_counts_csv

    counts = run_simulate(tmp_path)
    out_dir = tmp_path / "wit"
    assert main(["witness", "--counts", str(counts), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "witness.json").read_text())

    rc = parse_run_config(report["config_echo"])
    table = read_counts_csv(counts)
    direct = analyze_records(rc.beamline, table.records, rc.settings)
    assert math.isclose(report["s"], direct.witness.s, rel_tol=1e-12)
    assert math.isclose(report["sigma_s"], direct.witness.sigma_s, rel_tol=1e-12)
    assert report["fit"]["dof"] == direct.fit.dof


def test_witness_with_bootstrap(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    out_dir = tmp_path / "wit"
    code = main(["witness", "--counts", str(counts), "--out", str(out_dir),
                 "--bootstrap", "100", "--seed", "1"])
    assert code == 0
    assert "bootstrap sigma_S" in capsys.readouterr().out
    report = json.loads((out_dir / "witness.json").read_text())
    boot = report["bootstrap"]
    assert boot["resamples"] == 100
    assert 0.5 < boot["sigma_s"] / report["sigma_s"] < 1.5

    code = main(["witness", "--counts", str(counts), "--out", str(out_dir),
                 "--bootstrap", "5"])
    assert code == 2
    assert "resamples" in capsys.readouterr().err


def test_witness_without_echo_requires_config(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    counts.with_name("counts.meta.json").unlink()
    code = main(["witness", "--counts", str(counts)])
    assert code == 2
    assert "config echo" in capsys.readouterr().err

    cfg = write_config(tmp_path)
    out_dir = tmp_path / "wit"
    code = main(["witness", "--counts", str(counts), "--config", str(cfg),
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "witness.json").exists()


def test_witness_on_empty_csv_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["witness", "--counts", str(empty)])
    assert code == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar, fragment", [
    ('{"format_version": 1, "plan": {', "counts.meta.json:1:"),
    ("[1, 2]", "counts.meta.json: expected an object, got list"),
], ids=["truncated", "not-an-object"])
def test_witness_on_corrupt_sidecar_exits_2(tmp_path, capsys, sidecar, fragment):
    counts = run_simulate(tmp_path)
    counts.with_suffix(".meta.json").write_text(sidecar)
    capsys.readouterr()
    code = main(["witness", "--counts", str(counts)])
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_witness_on_non_utf8_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    code = main(["witness", "--counts", str(path), "--config", str(write_config(tmp_path))])
    assert code == 2
    assert "counts.csv" in capsys.readouterr().err


def test_witness_on_zero_counts_exits_4(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    rows = ["current_A,delta_mm,channel,counts"]
    for current in (-1.0, -0.95, -0.9, -0.85):
        for ch in range(8):
            rows.append(f"{current},0,{ch},0")
    path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path)
    code = main(["witness", "--counts", str(path), "--config", str(cfg)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("column", [0, 1], ids=["current_A", "delta_mm"])
def test_witness_on_non_finite_coordinate_exits_2(tmp_path, capsys, column):
    # Every channel row of the first scan point, so that the point stays whole.
    counts = run_simulate(tmp_path)
    rows = [line.split(",") for line in counts.read_text().splitlines()]
    first = rows[1][:2]
    for row in rows[1:]:
        if row[:2] == first:
            row[column] = "inf"
    counts.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    code = main(["witness", "--counts", str(counts)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {counts}:2: ") and "must be finite" in err
    assert "Traceback" not in err


def test_witness_on_a_current_whose_spin_phase_overflows_exits_2(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    rows = [line.split(",") for line in counts.read_text().splitlines()]
    first = rows[1][:2]
    for row in rows[1:]:
        if row[:2] == first:
            row[0] = "1e305"
    counts.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["witness", "--counts", str(counts)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: current 1e+305 A gives a non-finite spin phase")
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_witness_on_an_offset_whose_energy_phase_overflows_exits_2(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    rows = [line.split(",") for line in counts.read_text().splitlines()]
    first = rows[1][:2]
    for row in rows[1:]:
        if row[:2] == first:
            row[1] = "1e308"
    counts.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["witness", "--counts", str(counts)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: offset 1e+305 m gives a non-finite energy phase")
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_witness_on_a_current_whose_spin_phase_has_no_digits_exits_2(tmp_path, capsys):
    # 1e300 A is finite, but its spin phase (about 6e301 rad) keeps no digit that
    # sets a cosine.
    counts = run_simulate(tmp_path)
    rows = [line.split(",") for line in counts.read_text().splitlines()]
    first = rows[1][:2]
    for row in rows[1:]:
        if row[:2] == first:
            row[0] = "1e300"
    counts.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    code = main(["witness", "--counts", str(counts)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: current 1e+300 A gives a phase of 6.37e+301 rad, over 2**32 rad")
    assert "Traceback" not in err


def preset_config_with_plan(tmp_path, **plan):
    data = json.loads(preset_text("cg4b-10khz"))
    data["plan"].update(plan)
    return write_config(tmp_path, data)


OFFSETS_MM = json.loads(preset_text("cg4b-10khz"))["plan"]["offsets_mm"]


@pytest.mark.parametrize("command", [
    ["simulate"], ["simulate", "--model", "wavepacket"], ["envelope"],
], ids=["simulate", "simulate-wavepacket", "envelope"])
@pytest.mark.parametrize("plan, message", [
    ({"offsets_mm": [*OFFSETS_MM, 1e308]}, "offset 1e+305 m gives a non-finite energy phase"),
    ({"currents_a": [-1.0, -1e305]}, "current -1e+305 A gives a non-finite spin phase"),
    ({"currents_a": [-1.0, 1e300]}, "current 1e+300 A gives a phase of 6.37e+301 rad"),
], ids=["offset-overflow", "current-overflow", "current-no-digits"])
def test_plan_whose_phase_overflows_or_has_no_digits_exits_2(tmp_path, capsys, command,
                                                              plan, message):
    config = preset_config_with_plan(tmp_path, **plan)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if command == ["simulate"] or "offsets_mm" not in plan:
        assert err.startswith(f"error: {message}")
    else:  # the far offset meets the k-grid resolution guard of the envelope first
        assert "refine the k grid" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_witness_on_a_ragged_table_exits_0(tmp_path, capsys):
    # The preset's point (-0.96 A, +5 mm) is missing, one its count route reads.
    out = tmp_path / "sim"
    assert main(["simulate", "--preset", "cg4b-10khz", "--out", str(out)]) == 0
    counts = out / "counts.csv"
    header, *rows = counts.read_text().splitlines(keepends=True)
    kept = [row for row in rows if [float(v) for v in row.split(",")[:2]] != [-0.96, 5.0]]
    assert len(kept) == len(rows) - 16
    counts.write_text(header + "".join(kept))
    capsys.readouterr()
    assert main(["witness", "--counts", str(counts), "--out", str(tmp_path / "wit")]) == 0
    captured = capsys.readouterr()
    assert "count-ratio route: S = " in captured.out
    assert captured.err == ""


def test_witness_bad_channel_exits_2(tmp_path, capsys):
    counts = run_simulate(tmp_path)
    code = main(["witness", "--counts", str(counts), "--channel", "16"])
    assert code == 2
    assert "channel" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# envelope


def test_envelope_csv_contains_focus_row(tmp_path, capsys):
    out_dir = tmp_path / "env"
    code = main(["envelope", "--preset", "reseda", "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "envelope.csv").read_text().splitlines()
    assert lines[0] == "delta_mm,contrast"
    table = {float(row.split(",")[0]): float(row.split(",")[1]) for row in lines[1:]}
    # The preset's offsets plus the focus point itself.
    assert set(table) == {-300.0, -225.0, -150.0, -75.0, 0.0, 75.0, 150.0, 225.0, 300.0}
    assert table[0.0] == max(table.values())
    assert table[0.0] > 0.999
    assert table[300.0] < table[75.0] < table[0.0]
    out = capsys.readouterr().out
    assert "peak contrast" in out
    # The broad 11.6% beam violates the narrow-packet phase budget.
    assert "VIOLATED" in out


def test_envelope_narrow_beam_is_coherent(tmp_path, capsys):
    out_dir = tmp_path / "env"
    code = main(["envelope", "--preset", "cg4b-10khz", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out
    assert out.count("satisfied") == 2
    lines = (out_dir / "envelope.csv").read_text().splitlines()
    contrasts = [float(row.split(",")[1]) for row in lines[1:]]
    # 0.2% bandwidth keeps essentially full contrast over +-35 mm.
    assert min(contrasts) > 0.99


def test_envelope_json_format(tmp_path):
    out_dir = tmp_path / "env"
    code = main(["envelope", "--preset", "reseda", "--out", str(out_dir),
                 "--format", "json"])
    assert code == 0
    payload = json.loads((out_dir / "envelope.json").read_text())
    assert payload["tool_version"] == __version__
    assert len(payload["delta_mm"]) == len(payload["contrast"]) == 9
    assert any("VIOLATED" in line for line in payload["coherence"])


def test_envelope_requires_packet(tmp_path, capsys):
    data = json.loads(json.dumps(SMALL_CONFIG))
    del data["packet"]
    cfg = write_config(tmp_path, data)
    code = main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "packet" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# focus


def test_focus_text_report(capsys):
    code = main(["focus", "--preset", "cg4b-10khz"])
    assert code == 0
    out = capsys.readouterr().out
    assert "focusing distance L2 = 765.0000 mm" in out
    assert "detector at L1 + L2 = 850.0000 mm" in out
    assert "modulation frequency = 10.0000 kHz" in out
    assert "dL2/dBL" in out


def test_focus_json_values(capsys):
    code = main(["focus", "--preset", "cg4b-10khz", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isclose(report["l2_mm"], 765.0, rel_tol=1e-12)
    assert math.isclose(report["mieze_frequency_khz"], 10.0, rel_tol=1e-12)
    assert math.isclose(report["dl2_dl1_mm_per_mm"], 9.0, rel_tol=1e-12)
    assert math.isclose(report["dl2_dbl_mm_per_mt_mm"], -2.916469, rel_tol=1e-6)
    # Raising f2 pushes the focus towards the second flipper.
    assert report["dl2_df2_mm_per_khz"] < 0 < report["dl2_df1_mm_per_khz"]


def test_focus_with_field_integral(capsys):
    code = main(["focus", "--preset", "cg4b-10khz",
                 "--field-integral-mt-mm", "25", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isclose(report["field_shift_mm"], -72.91, abs_tol=0.01)
    assert math.isclose(
        report["l2_mm"], report["l2_zero_field_mm"] + report["field_shift_mm"],
        rel_tol=1e-12,
    )
    main(["focus", "--preset", "cg4b-10khz", "--field-integral-mt-mm", "25"])
    assert "shift -72.9" in capsys.readouterr().out


def test_focus_shift_matches_sensitivity_slope(capsys):
    # For the linear-in-BL condition the sensitivity is exact, so
    # shift(BL) = dL2/dBL * BL to rounding.
    code = main(["focus", "--preset", "cg4b-10khz",
                 "--field-integral-mt-mm", "25", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isclose(
        report["field_shift_mm"],
        report["dl2_dbl_mm_per_mt_mm"] * 25.0,
        rel_tol=1e-9,
    )


# ---------------------------------------------------------------------------
# config files that cannot be read as JSON numbers and text


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(SMALL_CONFIG).encode("utf-16-le"))
    code = main(["focus", "--config", str(path)])
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float", "beyond-int-parse"])
def test_huge_integer_in_config_exits_2(tmp_path, capsys, digits):
    # 400 digits parse as a Python int but overflow a float; 5000 digits
    # exceed the interpreter's integer-string limit inside json.loads.
    text = json.dumps(SMALL_CONFIG).replace('"f1_khz": 45', '"f1_khz": 4' + "5" * (digits - 1))
    path = tmp_path / "run.json"
    path.write_text(text)
    code = main(["focus", "--config", str(path)])
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key",
    [("simulate", "plan", "time_channels_per_period"), ("envelope", "packet", "n_samples")],
)
def test_oversized_grid_in_config_exits_2(tmp_path, capsys, command, section, key):
    # A grid size far beyond memory must fail validation, not inside numpy.
    data = json.loads(json.dumps(SMALL_CONFIG))
    data[section][key] = 10**400
    path = write_config(tmp_path, data)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{key} must be an integer in" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# degenerate data: each reaches its typed fit error and exits 4, with or
# without the bootstrap


def single_hot_channel_counts(tmp_path):
    path = tmp_path / "hot.csv"
    rows = ["current_A,delta_mm,channel,counts"]
    for i in range(13):
        for offset in (-35, -5, 5, 35):
            rows += [f"{-1.0 + 0.01 * i},{offset},{ch},{100 if ch == 0 else 0}"
                     for ch in range(16)]
    path.write_text("\n".join(rows) + "\n")
    return ["--counts", str(path), "--config", str(write_config(tmp_path))]


def simulated_counts(tmp_path, **plan):
    data = json.loads(json.dumps(SMALL_CONFIG))
    data["plan"].update(plan)
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(write_config(tmp_path, data)),
                 "--out", str(out_dir)]) == 0
    return ["--counts", str(out_dir / "counts.csv")]


@pytest.mark.parametrize("bootstrap", [[], ["--bootstrap", "200"]], ids=["fit", "bootstrap"])
@pytest.mark.parametrize("counts, message", [
    (single_hot_channel_counts, "all four counts are zero"),
    (lambda tmp_path: simulated_counts(tmp_path, counts_scale=1e-12), "exactly zero"),
    (lambda tmp_path: simulated_counts(tmp_path, currents_a=[-1.0, -0.99], offsets_mm=[-1, 1]),
     "insufficient phase coverage"),
], ids=["single-hot-channel", "counts-scale-near-zero", "phase-span-below-pi"])
def test_degenerate_counts_exit_4(tmp_path, capsys, counts, message, bootstrap):
    args = counts(tmp_path)
    capsys.readouterr()
    code = main(["witness", *args, "--out", str(tmp_path / "wit"), *bootstrap])
    assert code == 4
    assert message in capsys.readouterr().err
