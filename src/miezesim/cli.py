"""Command-line entry points tying the simulation and analysis together.

Subcommands:

* ``simulate`` — run a scan plan and write the counts CSV plus metadata.
* ``witness``  — reduce a counts CSV to the CHSH witness report.
* ``envelope`` — tabulate packet contrast versus detector offset.
* ``focus``    — report the focusing distance and its sensitivities.

Exit codes: 0 success, 2 malformed input, configuration or k-grid resolution
refusal, 3 infeasible physics, 4 fit failure, degenerate data or diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import AnalysisReport, WitnessResult, analyze_records, bootstrap_uncertainty
from .beamline import _scan_phases, energy_phase, focusing_distance, mieze_frequency
from .config import (
    _KHZ,
    _MM,
    _MT_MM,
    PRESETS,
    RunConfig,
    config_echo,
    load_preset,
    load_run_config,
    parse_run_config,
)
from .constants import CODATA2018
from .errors import (
    ConfigError,
    DiagnosticError,
    FitError,
    PhysicsError,
    ResolutionError,
)
from .synth import _fmt, read_counts_csv, simulate_scan, write_counts_csv
from .wavepacket import coherence_check, contrast_envelope

__all__ = ["main", "build_parser"]


def _add_config_args(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--config", metavar="PATH", help="JSON run configuration file")
    group.add_argument(
        "--preset", choices=PRESETS, help="name of a configuration shipped with the package"
    )


def _load_config(args) -> RunConfig | None:
    if getattr(args, "config", None):
        return load_run_config(args.config)
    if getattr(args, "preset", None):
        return load_preset(args.preset)
    return None


def _out_dir(args, rc: RunConfig | None) -> Path:
    out = args.out if args.out else (rc.output_dir if rc is not None else ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    rc = _load_config(args)
    if rc.plan is None:
        raise ConfigError("plan: missing required section (nothing to simulate)")
    plan = rc.plan
    if args.seed is not None:
        plan = replace(plan, rng_seed=args.seed)
        rc = replace(rc, plan=plan)
    packet = rc.packet
    if args.model == "wavepacket" and packet is None:
        raise ConfigError("packet: missing required section for the wavepacket model")
    records = simulate_scan(rc.beamline, plan, intensity_model=args.model,
                            packet_spec=packet if args.model == "wavepacket" else None)
    out = _out_dir(args, rc)
    csv_path = out / "counts.csv"
    sidecar = write_counts_csv(
        csv_path,
        records,
        plan,
        metadata={
            "model": args.model,
            "tool_version": __version__,
            "config_echo": config_echo(rc),
        },
    )
    n_channels = plan.time_channels_per_period
    print(f"wrote {len(records)} scan points x {n_channels} channels to {csv_path}")
    print(f"metadata sidecar: {sidecar}")
    return 0


def _witness_dict(result: WitnessResult | None) -> dict | None:
    if result is None:
        return None
    return {
        "s": result.s,
        "sigma_s": result.sigma_s,
        "classification": result.classification,
        "e_matrix": result.e_matrix.tolist(),
        "e_sigma": result.e_sigma.tolist(),
    }


def _report_json(rc: RunConfig, report: AnalysisReport, scan_kind: str,
                 seed, bootstrap) -> dict:
    fit = report.fit
    echo = config_echo(rc)
    return {
        "tool_version": __version__,
        **_witness_dict(report.witness),
        "contrast": fit.contrast,
        "contrast_sigma": fit.contrast_sigma,
        "fit": {
            "mean_level": fit.mean_level,
            "amplitude": fit.amplitude,
            "phase": fit.phase,
            "chi_square": fit.chi_square,
            "dof": fit.dof,
            "covariance": fit.covariance.tolist(),
        },
        "fit_diagnostics": report.diagnostics,
        "count_route": _witness_dict(report.count_witness),
        "channel_route": _witness_dict(report.channel_witness),
        "bootstrap": None if bootstrap is None else {
            "sigma_s": bootstrap.sigma_s,
            "resamples": bootstrap.resamples,
            "failures": bootstrap.failures,
        },
        "settings": echo["settings"],
        "scan_kind": scan_kind,
        "seed": seed,
        "config_echo": echo,
    }


def cmd_witness(args) -> int:
    table = read_counts_csv(args.counts)
    rc = _load_config(args)
    if rc is None:
        echo = (table.metadata or {}).get("config_echo")
        if echo is None:
            raise ConfigError(
                f"{args.counts}: no metadata sidecar with a config echo; pass --config/--preset"
            )
        rc = parse_run_config(echo)
    report = analyze_records(
        rc.beamline, table.records, rc.settings,
        channel=args.channel, scan_kind=table.scan_kind,
    )
    boot = None
    if args.bootstrap:
        boot = bootstrap_uncertainty(
            rc.beamline, table.records, rc.settings,
            resamples=args.bootstrap, seed=args.seed or 0,
            channel=args.channel, scan_kind=table.scan_kind,
        )
    seed = None
    if table.metadata and isinstance(table.metadata.get("plan"), dict):
        seed = table.metadata["plan"].get("rng_seed")

    out = _out_dir(args, rc)
    report_path = out / "witness.json"
    with report_path.open("w") as fh:
        json.dump(_report_json(rc, report, table.scan_kind, seed, boot), fh, indent=2)
        fh.write("\n")
    points_path = out / "fit_points.csv"
    with points_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase_rad", "intensity", "intensity_err", "model"])
        for p in report.points:
            writer.writerow([_fmt(p.phase), _fmt(p.intensity), _fmt(p.sigma), _fmt(p.model)])

    w = report.witness
    print(f"S = {w.s:.4f} +/- {w.sigma_s:.4f} ({w.classification})")
    print(
        f"contrast C = {report.fit.contrast:.4f} +/- {report.fit.contrast_sigma:.4f}, "
        f"fitted phase offset = {report.fit.phase:.4f} rad"
    )
    for label, route in (("count-ratio", report.count_witness),
                         ("per-point fit", report.channel_witness)):
        if route is not None:
            print(
                f"{label} route: S = {route.s:.4f} +/- {route.sigma_s:.4f} "
                f"({route.classification})"
            )
    if boot is not None:
        print(f"bootstrap sigma_S = {boot.sigma_s:.4f} ({boot.resamples} resamples)")
    print(f"report: {report_path}")
    print(f"fitted points: {points_path}")
    return 0


def _coherence_lines(rc: RunConfig) -> list[str]:
    lines = []
    if rc.plan is None or rc.packet is None:
        return lines
    cfg, plan = rc.beamline, rc.plan
    alphas, _ = _scan_phases(cfg, plan.scan_kind, plan.currents, plan.coords,
                             plan.time_channels_per_period)
    checks = [("spin-phase", np.abs(alphas).max())]
    if plan.detunings is None:
        checks.append(("energy-phase", np.abs(energy_phase(cfg, np.array(plan.offsets))).max()))
    for label, phase in checks:
        chk = coherence_check(phase, rc.packet)
        verdict = "satisfied" if chk.satisfied else "VIOLATED"
        lines.append(
            f"coherence: {label} N = {chk.n_precessions:.2f} precessions "
            f"(limit {chk.n_limit:.1f}) -- {verdict}"
        )
    return lines


def cmd_envelope(args) -> int:
    rc = _load_config(args)
    if rc.packet is None:
        raise ConfigError("packet: missing required section for the envelope command")
    if rc.plan is not None and rc.plan.detunings is None:
        deltas = sorted(set(rc.plan.offsets) | {0.0})
    else:
        deltas = [(-35.0 + 5.0 * i) * _MM for i in range(15)]
    env = contrast_envelope(rc.beamline, rc.packet, deltas)
    coherence = _coherence_lines(rc)
    out = _out_dir(args, rc)
    if args.format == "json":
        path = out / "envelope.json"
        payload = {
            "delta_mm": [d / _MM for d, _ in env],
            "contrast": [c for _, c in env],
            "coherence": coherence,
            "tool_version": __version__,
        }
        with path.open("w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        path = out / "envelope.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta_mm", "contrast"])
            for delta, contrast in env:
                writer.writerow([_fmt(delta / _MM), _fmt(contrast)])
    peak_delta, peak = max(env, key=lambda dc: dc[1])
    print(f"wrote contrast at {len(env)} offsets to {path}")
    print(f"peak contrast {peak:.4f} at delta = {peak_delta / _MM:.4f} mm")
    for line in coherence:
        print(line)
    return 0


def cmd_focus(args) -> int:
    rc = _load_config(args)
    cfg = rc.beamline
    field_integral = args.field_integral_mt_mm * _MT_MM
    l2 = focusing_distance(cfg, coil_field_integral=field_integral)
    l2_free = focusing_distance(cfg)
    delta_omega = cfg.omega2 - cfg.omega1
    gamma_n = CODATA2018.gyromagnetic_ratio
    # Closed-form derivatives of (w1 L1 - gamma_n BL / 2) / (w2 - w1).
    dl2_dl1 = cfg.omega1 / delta_omega
    dl2_df1 = 2.0 * math.pi * (cfg.l1 * cfg.omega2 - gamma_n * field_integral / 2.0) / delta_omega**2
    dl2_df2 = -2.0 * math.pi * l2 / delta_omega
    dl2_dbl = -gamma_n / (2.0 * delta_omega)
    report = {
        "l2_mm": l2 / _MM,
        "l2_zero_field_mm": l2_free / _MM,
        "field_integral_mt_mm": args.field_integral_mt_mm,
        "field_shift_mm": (l2 - l2_free) / _MM,
        "detector_distance_mm": (cfg.l1 + l2) / _MM,
        "mieze_frequency_khz": mieze_frequency(cfg) / (2.0 * math.pi * _KHZ),
        "dl2_dl1_mm_per_mm": dl2_dl1,
        "dl2_df1_mm_per_khz": dl2_df1 * _KHZ / _MM,
        "dl2_df2_mm_per_khz": dl2_df2 * _KHZ / _MM,
        "dl2_dbl_mm_per_mt_mm": dl2_dbl * _MT_MM / _MM,
        "tool_version": __version__,
    }
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0
    print(f"focusing distance L2 = {report['l2_mm']:.4f} mm "
          f"(detector at L1 + L2 = {report['detector_distance_mm']:.4f} mm)")
    if field_integral != 0.0:
        print(f"  includes field integral {args.field_integral_mt_mm:g} mT*mm: "
              f"shift {report['field_shift_mm']:+.4f} mm from {report['l2_zero_field_mm']:.4f} mm")
    print(f"modulation frequency = {report['mieze_frequency_khz']:.4f} kHz")
    print("sensitivities:")
    print(f"  dL2/dL1 = {report['dl2_dl1_mm_per_mm']:.4f} mm/mm")
    print(f"  dL2/df1 = {report['dl2_df1_mm_per_khz']:+.4f} mm/kHz")
    print(f"  dL2/df2 = {report['dl2_df2_mm_per_khz']:+.4f} mm/kHz")
    print(f"  dL2/dBL = {report['dl2_dbl_mm_per_mt_mm']:+.6f} mm/(mT*mm)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miezesim",
        description="Spin-energy entanglement beamline simulator and witness analysis.",
    )
    parser.add_argument("--version", action="version", version=f"miezesim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate synthetic scan counts")
    _add_config_args(sim, required=True)
    sim.add_argument("--seed", type=int, default=None, help="override the plan's RNG seed")
    sim.add_argument("--out", metavar="DIR", default=None, help="output directory")
    sim.add_argument("--model", choices=["ideal", "wavepacket"], default="ideal",
                     help="intensity model (default: ideal)")
    sim.set_defaults(func=cmd_simulate)

    wit = subs.add_parser("witness", help="fit counts and compute the CHSH witness")
    wit.add_argument("--counts", metavar="PATH", required=True, help="counts CSV to analyze")
    _add_config_args(wit, required=False)
    wit.add_argument("--channel", type=int, default=0, help="time channel for the global fit")
    wit.add_argument("--bootstrap", type=int, default=0, metavar="N",
                     help="also estimate sigma_S from N >= 100 Poisson resamples")
    wit.add_argument("--seed", type=int, default=None, help="bootstrap RNG seed")
    wit.add_argument("--out", metavar="DIR", default=None, help="output directory")
    wit.set_defaults(func=cmd_witness)

    env = subs.add_parser("envelope", help="contrast vs detector offset for the packet model")
    _add_config_args(env, required=True)
    env.add_argument("--out", metavar="DIR", default=None, help="output directory")
    env.add_argument("--format", choices=["csv", "json"], default="csv")
    env.set_defaults(func=cmd_envelope)

    foc = subs.add_parser("focus", help="focusing distance and sensitivities")
    _add_config_args(foc, required=True)
    foc.add_argument("--field-integral-mt-mm", type=float, default=0.0,
                     help="static field integral in mT*mm to fold into the condition")
    foc.add_argument("--format", choices=["text", "json"], default="text")
    foc.set_defaults(func=cmd_focus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FitError, DiagnosticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
