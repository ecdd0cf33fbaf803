"""Synthetic detector counts for spin-phase-current x detector-offset scans.

The signal model per scan point and time channel is

    mu_i = background + (N0 / 2) * (1 + C * cos(alpha + gamma + w_m t_i + phi))

with ``N0`` the expected maximum-plus-minimum counts of the modulation,
``alpha`` the spin phase set by the coil current, ``gamma`` the energy phase
set by the detector offset (or, in detuning scans, the time-dependent phase
``-2 dw t_i``), and ``phi`` a global phase absorbing the arbitrary time-channel
origin.  Counts are Poisson draws around ``mu_i``.

The means come from one phase table built over the plan's axes by
``beamline._scan_phases`` (which rejects a phase that overflows or exceeds
2**32 rad): C spin phases and D x n channel phases, broadcast to the
(C * D, n) grid of all scan points and one ``cos``.
Row i is drawn from its own counter-based stream: one Philox bit generator,
keyed by the plan seed, whose counter is set to i * 2^128 before row i.  Counts
are therefore bit-identical for a fixed seed however the rows are batched; the
bootstrap resamples through this row sampler.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .beamline import BeamlineConfig, _scan_phases
from .errors import ConfigError, bounded_repr
from .wavepacket import WavePacketSpec, contrast_envelope

__all__ = [
    "ScanPlan",
    "CountsRecord",
    "CountsTable",
    "INTENSITY_MODELS",
    "simulate_scan",
    "expected_channel_means",
    "normalize",
    "write_counts_csv",
    "read_counts_csv",
]

INTENSITY_MODELS = ("ideal", "wavepacket")

_MAX_SEED = 2**64
_MAX_CHANNELS = 2**16


def _finite_tuple(values, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a sequence of numbers") from exc
    if not out:
        raise ConfigError(f"{name} must not be empty")
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class ScanPlan:
    """Grid of scan points plus counting statistics and seeding.

    ``offsets`` are detector translations in meters.  For frequency-detuning
    scans supply ``detunings`` (rad/s) instead; the offsets are then ignored.
    ``counts_scale`` is N0, the expected max+min counts per point;
    ``background_rate`` is a flat per-channel mean added on top.
    ``time_channels_per_period`` is an integer from 4 to 2**16.
    """

    currents: tuple[float, ...]
    offsets: tuple[float, ...] = (0.0,)
    detunings: tuple[float, ...] | None = None
    time_channels_per_period: int = 16
    counts_scale: float = 8600.0
    background_rate: float = 0.0
    phase_offset: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "currents", _finite_tuple(self.currents, "currents"))
        object.__setattr__(self, "offsets", _finite_tuple(self.offsets, "offsets"))
        if self.detunings is not None:
            object.__setattr__(self, "detunings", _finite_tuple(self.detunings, "detunings"))
        n = self.time_channels_per_period
        if not 4 <= n <= _MAX_CHANNELS or int(n) != n:
            raise ConfigError("time_channels_per_period must be an integer in [4, 2**16], "
                              f"got {bounded_repr(n)}")
        object.__setattr__(self, "time_channels_per_period", int(n))
        if not (self.counts_scale > 0.0 and math.isfinite(self.counts_scale)):
            raise ConfigError(f"counts_scale must be positive, got {self.counts_scale!r}")
        if not (self.background_rate >= 0.0 and math.isfinite(self.background_rate)):
            raise ConfigError(
                f"background_rate must be non-negative, got {self.background_rate!r}"
            )
        if not math.isfinite(self.phase_offset):
            raise ConfigError(f"phase_offset must be finite, got {self.phase_offset!r}")
        seed = self.rng_seed
        if not (0 <= seed < _MAX_SEED) or int(seed) != seed:
            raise ConfigError(
                f"rng_seed must be a 64-bit unsigned integer, got {bounded_repr(seed)}")
        object.__setattr__(self, "rng_seed", int(seed))

    @property
    def scan_kind(self) -> str:
        return "detuning" if self.detunings is not None else "offset"

    @property
    def coords(self) -> tuple[float, ...]:
        """Second scan axis: detunings when present, detector offsets otherwise."""
        return self.detunings if self.detunings is not None else self.offsets

    @property
    def n_points(self) -> int:
        return len(self.currents) * len(self.coords)


@dataclass(frozen=True)
class CountsRecord:
    """One scan point: coil current, second coordinate, per-channel counts.

    ``coord`` is the detector offset in meters for offset scans and the
    detuning in rad/s for detuning scans.
    """

    current: float
    coord: float
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ConfigError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)


def _point_means(cfg: BeamlineConfig, plan: ScanPlan, currents, coords,
                 contrasts) -> np.ndarray:
    """(C, D, n) channel means at C currents x D coordinates (D contrasts); scalars give (n,)."""
    n = plan.time_channels_per_period
    alphas, phases = _scan_phases(cfg, plan.scan_kind, currents, coords, n)
    phase = (alphas + plan.phase_offset)[:, None, None] + phases
    means = plan.background_rate + 0.5 * plan.counts_scale * (
        1.0 + np.reshape(contrasts, (-1, 1)) * np.cos(phase))
    return means.reshape(np.shape(currents) + np.shape(coords) + (n,))


def _effective_contrasts(cfg: BeamlineConfig, plan: ScanPlan, intensity_model: str,
                         packet_spec: WavePacketSpec | None, coords) -> dict[float, float]:
    """Contrast at each of ``coords``, coordinates of ``plan``, under the intensity model."""
    if intensity_model not in INTENSITY_MODELS:
        raise ConfigError(
            f"intensity_model must be one of {INTENSITY_MODELS}, got {intensity_model!r}"
        )
    if intensity_model == "ideal":
        return {coord: cfg.contrast for coord in coords}
    if packet_spec is None:
        raise ConfigError("wavepacket intensity model requires a packet spec")
    if plan.scan_kind == "detuning":
        offsets = [0.0]
        envelope = dict(contrast_envelope(cfg, packet_spec, offsets))
        return {coord: cfg.contrast * envelope[0.0] for coord in coords}
    unique = list(dict.fromkeys(coords))
    envelope = dict(contrast_envelope(cfg, packet_spec, unique))
    return {coord: cfg.contrast * envelope[coord] for coord in coords}


def expected_channel_means(cfg: BeamlineConfig, plan: ScanPlan, current: float,
                           coord: float, intensity_model: str = "ideal",
                           packet_spec: WavePacketSpec | None = None) -> np.ndarray:
    """Model channel means mu_i for one scan point (no sampling)."""
    wanted = [coord] if coord in plan.coords else []
    contrasts = _effective_contrasts(cfg, plan, intensity_model, packet_spec, wanted)
    if coord not in contrasts:
        raise ConfigError(f"scan coordinate {coord!r} is not part of the plan")
    return _point_means(cfg, plan, current, coord, contrasts[coord])


def _point_rng(seed: int, point_index: int) -> np.random.Generator:
    # Counter-partitioned streams: each point owns a disjoint 2^128 block.
    bitgen = np.random.Philox(key=seed, counter=point_index * 2**128)
    return np.random.Generator(bitgen)


def _poisson_rows(key: int, means: np.ndarray) -> np.ndarray:
    """Poisson draws around each row of ``means``, row i from ``_point_rng(key, i)``.

    One Philox bit generator serves every row: before row i its counter is set
    to i * 2^128 and its buffer marked drained, which is the state
    ``_point_rng(key, i)`` starts from, without building a generator per row.
    """
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    state.update(buffer_pos=4, has_uint32=0)  # no buffered words carry into the next row
    counter = state["state"]["counter"]  # four 64-bit words, lowest first; all 0 here
    out = np.empty(means.shape, dtype=np.int64)
    for i, row in enumerate(means):
        counter[2] = i  # i * 2^128
        bitgen.state = state
        out[i] = rng.poisson(row)
    return out


def simulate_scan(cfg: BeamlineConfig, plan: ScanPlan, intensity_model: str = "ideal",
                  packet_spec: WavePacketSpec | None = None) -> list[CountsRecord]:
    """Poisson-sampled counts for every (current, coordinate) point of the plan.

    Deterministic for a fixed ``plan.rng_seed``; iteration order is currents
    outer, coordinates inner, and each point's draws depend only on its grid
    index.
    """
    contrasts = _effective_contrasts(cfg, plan, intensity_model, packet_spec, plan.coords)
    means = _point_means(cfg, plan, plan.currents, plan.coords,
                         [contrasts[coord] for coord in plan.coords])
    counts = _poisson_rows(plan.rng_seed, means.reshape(-1, plan.time_channels_per_period))
    grid = [(current, coord) for current in plan.currents for coord in plan.coords]
    return [CountsRecord(current=current, coord=coord, counts=tuple(row))
            for (current, coord), row in zip(grid, counts.tolist())]


def normalize(record: CountsRecord, n0: float) -> np.ndarray:
    """Per-channel relative intensities counts / N0."""
    if not (n0 > 0.0 and math.isfinite(n0)):
        raise ValueError(f"N0 must be positive, got {n0!r}")
    return np.asarray(record.counts, dtype=float) / n0


_COORD_COLUMNS = {"offset": "delta_mm", "detuning": "detuning_rad_per_s"}
# CSV stores detector offsets in mm (matching beamline bookkeeping); detunings in rad/s.
_COORD_SCALE = {"offset": 1e3, "detuning": 1.0}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_counts_csv(path, records: list[CountsRecord], plan: ScanPlan,
                     metadata: dict | None = None) -> Path:
    """Write the counts table and its JSON metadata sidecar.

    Returns the sidecar path (``<stem>.meta.json`` next to the CSV).  Extra
    ``metadata`` entries (config echo, model name, versions) are merged into
    the sidecar.
    """
    path = Path(path)
    kind = plan.scan_kind
    scale = _COORD_SCALE[kind]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["current_A", _COORD_COLUMNS[kind], "channel", "counts"])
        for rec in records:
            current, coord = _fmt(rec.current), _fmt(rec.coord * scale)
            writer.writerows((current, coord, channel, count)
                             for channel, count in enumerate(rec.counts))
    sidecar = path.with_suffix(".meta.json")
    payload = {
        "format_version": 1,
        "scan_kind": kind,
        "plan": asdict(plan),
    }
    payload.update(metadata or {})
    with sidecar.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


@dataclass(frozen=True)
class CountsTable:
    """Counts records plus scan kind and any metadata read back from disk."""

    records: tuple[CountsRecord, ...]
    scan_kind: str
    metadata: dict | None = None


def read_counts_csv(path) -> CountsTable:
    """Read a counts CSV (plus sidecar metadata, whose plan gives exact coordinates)."""
    path = Path(path)
    with path.open(newline="", errors="replace") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # e.g. a field over the csv module's 128 KiB limit
            raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty counts file")
    header = rows[0]
    if len(header) != 4 or header[0] != "current_A" or header[2:] != ["channel", "counts"]:
        raise ConfigError(f"{path}: unrecognized counts header {header!r}")
    kinds = {v: k for k, v in _COORD_COLUMNS.items()}
    if header[1] not in kinds:
        raise ConfigError(f"{path}: unrecognized coordinate column {header[1]!r}")
    kind = kinds[header[1]]
    scale = _COORD_SCALE[kind]
    sidecar = path.with_suffix(".meta.json")
    metadata = None
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{sidecar}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # undecodable bytes, an integer too long to convert
            raise ConfigError(f"{sidecar}: {exc}") from exc
        if not isinstance(metadata, dict):
            raise ConfigError(f"{sidecar}: expected an object, got {type(metadata).__name__}")
    try:  # the sidecar plan's coordinates, keyed by the CSV text they were written as
        plan_coords = {_fmt(v * scale): float(v) for v in metadata["plan"][f"{kind}s"]}
    except (TypeError, KeyError, OverflowError):
        plan_coords = {}

    grouped: dict[tuple[float, float], list[tuple[int, int]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ConfigError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        try:
            current = float(row[0])
            coord = plan_coords[row[1]] if row[1] in plan_coords else float(row[1]) / scale
            channel = int(row[2])
            count = int(row[3])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        for name, value in ((header[0], current), (header[1], coord)):
            if not math.isfinite(value):
                raise ConfigError(f"{path}:{lineno}: {name} must be finite, got {value!r}")
        grouped.setdefault((current, coord), []).append((channel, count))
    if not grouped:
        raise ConfigError(f"{path}: no data rows")

    records = []
    for (current, coord), entries in grouped.items():
        channels = [c for c, _ in entries]
        if channels != list(range(len(entries))):
            raise ConfigError(
                f"{path}: point ({current}, {coord}) has non-consecutive channels"
            )
        records.append(
            CountsRecord(current=current, coord=coord,
                         counts=tuple(count for _, count in entries))
        )
    widths = {len(r.counts) for r in records}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent channel counts across points: {sorted(widths)}")
    return CountsTable(records=tuple(records), scan_kind=kind, metadata=metadata)
