"""Run configuration files: parsing, validation, and canonical echo.

Configs are JSON with unit-suffixed key names (``wavelength_nm``, ``l1_mm``,
``coil_calibration_mt_mm_per_a``) so a value can never be misread in the
wrong unit; parsing converts everything to SI immediately.  ``config_echo``
emits the canonical explicit form (ranges expanded, settings spelled out) and
``parse_run_config(config_echo(rc))`` reproduces a parsed ``rc`` exactly,
which is what lets every report embed a re-runnable copy of its
configuration.

Each section's keys, units and dataclass fields are described once, by one
layout table, which drives the key check, the parsing and the echo; only the
``settings.optimal`` form and the ``l2_mm`` default stay outside the tables.
An omitted optional key takes the dataclass default.  Unknown keys are
rejected so typos fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .beamline import BeamlineConfig, focusing_distance
from .errors import ConfigError, bounded_repr
from .quantum import WitnessSettings, optimal_settings
from .synth import ScanPlan, _read_json
from .wavepacket import PacketShape, WavePacketSpec, spec_from_beamline

__all__ = [
    "RunConfig",
    "PRESETS",
    "load_run_config",
    "parse_run_config",
    "config_echo",
    "load_preset",
    "preset_text",
]

# Unit factors: config value * factor = SI value.
_NM = 1e-9
_MM = 1e-3
_KHZ = 1e3
_MT_MM = 1e-6  # mT*mm -> T*m

PRESETS = ("cg4b-10khz", "cg4b-100khz", "reseda")
_MAX_RANGE_POINTS = 2**16


@dataclass(frozen=True)
class RunConfig:
    """Validated top-level configuration for the CLI subcommands."""

    beamline: BeamlineConfig
    packet: WavePacketSpec | None = None
    plan: ScanPlan | None = None
    settings: WitnessSettings = field(default_factory=optimal_settings)
    output_dir: str = "."


def _section(data: dict, key: str, required: bool) -> dict | None:
    if key not in data:
        if required:
            raise ConfigError(f"{key}: missing required section")
        return None
    value = data[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(section: dict, path: str, allowed) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {bounded_repr(value)}")
    try:
        value = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{where}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {bounded_repr(value)}")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {bounded_repr(value)}")
    return value


# A section layout is a tuple of rows (config key, dataclass field, reader,
# unit factor, required).  Config value * factor = SI value; a factor of None
# leaves the value as read, so integers stay integers.
_RANGE = (
    ("start", "start", _number, None, True),
    ("stop", "stop", _number, None, True),
    ("step", "step", _number, None, True),
)


def _value_list(value, where: str) -> tuple[float, ...]:
    """A list of numbers, or a {start, stop, step} range (inclusive ends)."""
    if isinstance(value, dict):
        start, stop, step = _read(value, where, _RANGE).values()  # all required, in order
        if step == 0.0:
            raise ConfigError(f"{where}.step: must be nonzero")
        count = (stop - start) / step
        if count < 0:
            raise ConfigError(f"{where}: step direction does not reach stop from start")
        if count > _MAX_RANGE_POINTS - 1:  # an overflowing span reads as inf here
            raise ConfigError(f"{where}: range has more than 2**16 points")
        n = round(count) + 1
        if not math.isclose(start + (n - 1) * step, stop, rel_tol=0, abs_tol=abs(step) * 1e-6):
            raise ConfigError(f"{where}: step does not evenly divide the range")
        return tuple(start + i * step for i in range(n))
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list or a start/stop/step object")
    out = []
    for i, item in enumerate(value):
        try:
            out.append(_number(item, f"{where}[{i}]"))
        except ConfigError:
            raise ConfigError(
                f"{where}[{i}]: expected a finite number, got {bounded_repr(item)}") from None
    return tuple(out)


def _shape(value, where: str) -> PacketShape:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {bounded_repr(value)}")
    choices = [shape.value for shape in PacketShape]
    if value not in choices:
        raise ConfigError(
            f"{where}: must be one of {', '.join(choices)}, got {bounded_repr(value)}")
    return PacketShape(value)


def _read(section: dict, path: str, layout: tuple, extra=()) -> dict:
    """Dataclass keyword arguments, in SI, for the keys present in ``section``.

    An omitted optional key is left out, so the dataclass default applies.
    ``extra`` names keys the caller reads itself.
    """
    _check_keys(section, path, {row[0] for row in layout}.union(extra))
    kwargs = {}
    for key, name, reader, factor, required in layout:
        if key not in section:
            if required:
                raise ConfigError(f"{path}.{key}: missing required field")
            continue
        value = reader(section[key], f"{path}.{key}")
        if factor is None:
            kwargs[name] = value
        elif isinstance(value, tuple):
            kwargs[name] = tuple(v * factor for v in value)
        else:
            kwargs[name] = value * factor
    return kwargs


def _echo(obj, layout: tuple) -> dict:
    """The config keys of ``obj``'s fields, in layout order; fields that are None are left out."""
    out = {}
    for key, name, _, factor, _ in layout:
        value = getattr(obj, name)
        if isinstance(value, tuple):
            out[key] = [v if factor is None else v / factor for v in value]
        elif value is not None:
            out[key] = value if factor is None else value / factor
    return out


_BEAMLINE = (
    ("wavelength_nm", "wavelength", _number, _NM, True),
    ("bandwidth_fraction", "bandwidth", _number, None, True),
    ("f1_khz", "f1", _number, _KHZ, True),
    ("f2_khz", "f2", _number, _KHZ, True),
    ("l1_mm", "l1", _number, _MM, True),
    ("l2_mm", "l2", _number, _MM, False),
    ("coil_calibration_mt_mm_per_a", "coil_cal", _number, _MT_MM, True),
    ("guide_field_integral_mt_mm", "guide_bl", _number, _MT_MM, False),
    ("polarizer_efficiency", "polarizer_eff", _number, None, False),
    ("contrast", "contrast", _number, None, False),
    ("mean_level", "mean_level", _number, None, False),
)

_PACKET = (
    ("shape", "shape", _shape, None, False),
    ("kappa", "kappa", _number, None, False),
    ("n_samples", "n_samples", _integer, None, False),
    ("half_span", "half_span", _number, None, False),
)

# Echo order is output order: detunings, None in an offset scan, go last.
_PLAN = (
    ("currents_a", "currents", _value_list, None, True),
    ("offsets_mm", "offsets", _value_list, _MM, False),
    ("time_channels_per_period", "time_channels_per_period", _integer, None, False),
    ("counts_scale", "counts_scale", _number, None, False),
    ("background_rate", "background_rate", _number, None, False),
    ("phase_offset_rad", "phase_offset", _number, None, False),
    ("rng_seed", "rng_seed", _integer, None, False),
    ("detunings_rad_per_s", "detunings", _value_list, None, False),
)

_SETTINGS = (
    ("alpha1_rad", "alpha1", _number, None, True),
    ("alpha2_rad", "alpha2", _number, None, True),
    ("gamma1_rad", "gamma1", _number, None, True),
    ("gamma2_rad", "gamma2", _number, None, True),
)


def _parse_beamline(section: dict) -> BeamlineConfig:
    kwargs = _read(section, "beamline", _BEAMLINE)
    if "l2" in kwargs:
        return BeamlineConfig(**kwargs)
    # No detector distance given: place the detector at the focusing point,
    # rounded through mm as a given l2_mm is, so that the echo re-parses exactly.
    probe = BeamlineConfig(l2=1.0, **kwargs)
    return replace(probe, l2=focusing_distance(probe) / _MM * _MM)


def _parse_settings(section: dict) -> WitnessSettings:
    path = "settings"
    _check_keys(section, path, {"optimal"}.union(row[0] for row in _SETTINGS))
    use_optimal = section.get("optimal", False)
    if not isinstance(use_optimal, bool):
        raise ConfigError(f"{path}.optimal: expected a boolean, got {bounded_repr(use_optimal)}")
    if not use_optimal:
        return WitnessSettings(**_read(section, path, _SETTINGS, extra={"optimal"}))
    extras = set(section) - {"optimal", "alpha1_rad"}
    if extras:
        raise ConfigError(f"{path}: optimal settings take only alpha1_rad, not {sorted(extras)}")
    if "alpha1_rad" in section:
        return optimal_settings(_number(section["alpha1_rad"], f"{path}.alpha1_rad"))
    return optimal_settings()


_TOP_KEYS = {"beamline", "packet", "plan", "settings", "output_dir"}


def parse_run_config(data: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig (SI units inside)."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, "config", _TOP_KEYS)
    beamline = _parse_beamline(_section(data, "beamline", required=True))
    kwargs: dict = {"beamline": beamline}
    packet = _section(data, "packet", required=False)
    if packet is not None:
        kwargs["packet"] = spec_from_beamline(beamline, **_read(packet, "packet", _PACKET))
    plan = _section(data, "plan", required=False)
    if plan is not None:
        kwargs["plan"] = ScanPlan(**_read(plan, "plan", _PLAN))
    settings = _section(data, "settings", required=False)
    if settings is not None:
        kwargs["settings"] = _parse_settings(settings)
    if "output_dir" in data:
        output_dir = data["output_dir"]
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir: expected a string, got {bounded_repr(output_dir)}")
        kwargs["output_dir"] = output_dir
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    data = _read_json(path)
    try:
        return parse_run_config(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_echo(rc: RunConfig) -> dict:
    """Canonical JSON-ready form of a RunConfig; parse_run_config inverts it.

    Every key is spelled out, defaults included, and ranges are expanded.
    The round trip is exact for a config parsed from JSON, as presets and
    --config files are.  For a RunConfig built in SI by library code, a value
    echoed in mm (l1, l2, offsets) can re-parse one ulp away, because
    (x / 1e-3) * 1e-3 need not give back x.
    """
    out: dict = {"beamline": _echo(rc.beamline, _BEAMLINE)}
    if rc.packet is not None:
        out["packet"] = _echo(rc.packet, _PACKET)
    if rc.plan is not None:
        out["plan"] = _echo(rc.plan, _PLAN)
    out["settings"] = _echo(rc.settings, _SETTINGS)
    out["output_dir"] = rc.output_dir
    return out


def preset_text(name: str) -> str:
    """Raw JSON text of a shipped preset config."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    return (resources.files("miezesim") / "presets" / f"{name}.json").read_text()


def load_preset(name: str) -> RunConfig:
    """Parse and validate a shipped preset config by name."""
    try:
        return parse_run_config(json.loads(preset_text(name)))
    except ConfigError as exc:
        raise ConfigError(f"preset {name}: {exc}") from exc
