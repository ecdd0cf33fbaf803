"""Every output of one miezesim tree on a fixed input set, as one JSON object on stdout.

    PYTHONPATH=<tree>/src python3 parity/digest.py <tree>

``run.py`` starts this script once per BLAS setting; it is not meant to be run
by hand.  The object is an ordered map from field names, such as
``cg4b-10khz/offset/seed=3/primary/s``, to values: floats, ints, strings,
None or nested lists of them.  Floats are kept whole (JSON keeps every bit of a
float through its shortest repr), so two trees are equal when their objects
are, and ``compare.py`` can say by how much they differ where they are not.

The input set:

* counts tables: each preset x (20 seeds + its own) x (its offset plan, a
  +-3000/+-1500 rad/s detuning plan), written and read back through the CSV.
  Per table: the CSV and sidecar bytes, every route's witness, the primary
  ``FitResult`` and its diagnostics and points, ``expectation_grid``,
  ``fit_global`` on the report's points, ``channel_fits_witness``'s pooled
  fit and a 200-resample bootstrap;
* drawn ``chsh_value`` and ``witness_from_contrast`` inputs;
* per preset: ``config_echo`` as JSON text, ``contrast_envelope``, and the
  branch, position and detected intensities on a window that takes the
  Chebyshev series and one that takes the direct sum;
* per preset: the files and stdout of ``simulate`` (ideal and wavepacket),
  ``witness --bootstrap 200``, ``envelope --format json`` and ``focus --format
  json``, run in process through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import miezesim
from miezesim import (
    PRESETS,
    analyze_records,
    bell_state,
    bootstrap_uncertainty,
    branch_intensities,
    channel_fits_witness,
    chsh_value,
    config_echo,
    contrast_envelope,
    detected_intensity,
    expectation_grid,
    fit_global,
    focusing_distance,
    load_preset,
    pipeline_packet_state,
    position_intensity,
    product_state,
    read_counts_csv,
    simulate_scan,
    stationary_peak_positions,
    witness_from_contrast,
    write_counts_csv,
)
from miezesim.cli import main as cli_main
from miezesim.quantum import WitnessSettings

SEEDS = tuple(range(1, 21))
DETUNINGS = (-3000.0, -1500.0, 1500.0, 3000.0)
RESAMPLES = 200


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def plain(value):
    """``value`` as JSON-ready floats, ints, strings, None and lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def put_witness(out: dict, key: str, result) -> None:
    if result is None:
        out[key] = None
        return
    for name in ("s", "sigma_s", "classification", "e_matrix", "e_sigma"):
        out[f"{key}/{name}"] = plain(getattr(result, name))


def put_fit(out: dict, key: str, fit) -> None:
    for name in ("mean_level", "amplitude", "phase", "covariance", "chi_square", "dof"):
        out[f"{key}/{name}"] = plain(getattr(fit, name))


def put_table(out: dict, key: str, rc, plan, workdir: Path) -> None:
    cfg, settings = rc.beamline, rc.settings
    path = workdir / "table.csv"
    sidecar = write_counts_csv(path, simulate_scan(cfg, plan), plan)
    out[f"{key}/csv_sha256"] = sha256(path.read_bytes())
    out[f"{key}/sidecar_sha256"] = sha256(sidecar.read_bytes())
    table = read_counts_csv(path)
    records, kind = table.records, table.scan_kind
    report = analyze_records(cfg, records, settings, scan_kind=kind)
    put_fit(out, f"{key}/primary/fit", report.fit)  # first, so that a fit's change is named first
    put_witness(out, f"{key}/primary", report.witness)
    out[f"{key}/primary/diagnostics"] = plain(report.diagnostics)
    out[f"{key}/primary/points"] = plain(report.points)
    put_witness(out, f"{key}/channel_route", report.channel_witness)
    put_witness(out, f"{key}/count_route", report.count_witness)
    e, sigma = expectation_grid(report.fit, settings)
    out[f"{key}/expectation_grid"] = plain([e, sigma])
    put_fit(out, f"{key}/fit_global", fit_global(report.points))
    put_fit(out, f"{key}/channel_fits_witness/pooled",
            channel_fits_witness(cfg, records, settings, scan_kind=kind)[1])
    boot = bootstrap_uncertainty(cfg, records, settings, resamples=RESAMPLES,
                                 seed=plan.rng_seed, scan_kind=kind)
    for name in ("sigma_s", "resamples", "failures", "s_values"):
        out[f"{key}/bootstrap/{name}"] = plain(getattr(boot, name))


def put_quantum(out: dict) -> None:
    rng = np.random.default_rng(20261021)
    values = []
    for _ in range(500):
        settings = WitnessSettings(*rng.uniform(-math.pi, math.pi, 4).tolist())
        spin, energy = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        values.append(chsh_value(bell_state(float(rng.uniform(-math.pi, math.pi))), settings))
        values.append(chsh_value(product_state(spin, energy), settings))
    out["quantum/chsh_value"] = values
    out["quantum/witness_from_contrast"] = [witness_from_contrast(c)
                                            for c in np.linspace(0.0, 1.0, 1001).tolist()]


def put_packet(out: dict, key: str, rc) -> None:
    cfg, spec = rc.beamline, rc.packet
    state = pipeline_packet_state(cfg, spec, 0.94 * cfg.coil_cal)
    focus = cfg.l1 + focusing_distance(cfg)
    for label, t in (("l1", cfg.l1 / spec.velocity), ("focus", focus / spec.velocity)):
        centre = 0.5 * sum(stationary_peak_positions(state, t))
        for path, planes in (("series", 201), ("direct", 5)):
            z = np.linspace(centre - 2e-7, centre + 2e-7, planes)
            where = f"{key}/packet/{label}/{path}"
            out[f"{where}/branch_intensities"] = plain(branch_intensities(state, z, t))
            out[f"{where}/position_intensity"] = plain(position_intensity(state, z, t))
            out[f"{where}/position_intensity/projected"] = plain(
                position_intensity(state, z, t, spin_projection=0.3))
            out[f"{where}/detected_intensity"] = plain(
                detected_intensity(state, z, t, spin_projection=0.3))
    deltas = sorted(set(rc.plan.offsets) | {0.0}) + [k * 1e-3 for k in range(-35, 40, 5)]
    out[f"{key}/contrast_envelope"] = plain(contrast_envelope(cfg, spec, deltas))


def put_cli(out: dict, preset: str, workdir: Path) -> None:
    """Files and stdout of each subcommand, run in an empty directory with relative paths."""
    commands = {
        "simulate": ["simulate", "--preset", preset, "--out", "ideal"],
        "simulate_wavepacket": ["simulate", "--preset", preset, "--model", "wavepacket",
                                "--out", "wavepacket"],
        "witness": ["witness", "--counts", "ideal/counts.csv", "--bootstrap", str(RESAMPLES),
                    "--out", "ideal"],
        "envelope": ["envelope", "--preset", preset, "--format", "json", "--out", "envelope"],
        "focus": ["focus", "--preset", preset, "--format", "json"],
    }
    rundir = workdir / f"cli-{preset}"
    rundir.mkdir()
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        for name, argv in commands.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(argv)
            out[f"{preset}/cli/{name}/exit"] = code
            out[f"{preset}/cli/{name}/stdout"] = stdout.getvalue()
    finally:
        os.chdir(cwd)
    for path in sorted(rundir.rglob("*")):
        if path.is_file():
            out[f"{preset}/cli/files/{path.relative_to(rundir).as_posix()}"] = sha256(
                path.read_bytes())


def digest(tree: Path) -> dict:
    source = Path(miezesim.__file__).resolve()
    if (tree / "src").resolve() not in source.parents:
        raise SystemExit(f"miezesim was imported from {source}, not from {tree}/src")
    out: dict = {}
    put_quantum(out)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for preset in PRESETS:
            rc = load_preset(preset)
            out[f"{preset}/config_echo"] = json.dumps(config_echo(rc), indent=2)
            plans = {"offset": rc.plan, "detuning": replace(rc.plan, offsets=(0.0,),
                                                            detunings=DETUNINGS)}
            for kind, plan in plans.items():
                for seed in (*SEEDS, rc.plan.rng_seed):
                    put_table(out, f"{preset}/{kind}/seed={seed}", rc,
                              replace(plan, rng_seed=seed), workdir)
            put_packet(out, preset, rc)
            put_cli(out, preset, workdir)
    return out


if __name__ == "__main__":
    json.dump(digest(Path(sys.argv[1])), sys.stdout)
