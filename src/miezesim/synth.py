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
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .beamline import BeamlineConfig, _scan_phases
from .constants import INTENSITY_MODELS
from .errors import ConfigError, bounded_repr, integer_in_range
from .wavepacket import WavePacketSpec, contrast_envelope

__all__ = [
    "ScanPlan",
    "CountsRecord",
    "CountsTable",
    "simulate_scan",
    "expected_channel_means",
    "normalize",
    "write_counts_csv",
    "read_counts_csv",
]

_MAX_SEED = 2**64
_MAX_CHANNELS = 2**16
_MAX_COUNT = 2**53  # floats hold every integer up to here exactly
_MAX_MEAN = 2**52  # tens of millions of sigma below _MAX_COUNT


def _count_over_bound(count) -> str:
    return ("counts must be at most 2**53, where floats stop holding integers exactly, "
            f"got {bounded_repr(count)}")


def _count(value) -> int:
    """``value`` as an ``int`` count: an integer in [0, 2**53] as ``integer_in_range`` reads one.

    A failure is a ``ConfigError`` naming the value, checked in order: a NaN, over
    2**53 (an infinity too), negative, then any other non-integer (1.5, a bool).
    """
    if type(value) is int and 0 <= value <= _MAX_COUNT:  # as simulate_scan and the reader give
        return value
    if isinstance(value, numbers.Real):
        if value != value:
            raise ConfigError(f"counts must be numbers, got {bounded_repr(value)}")
        if value > _MAX_COUNT:
            raise ConfigError(_count_over_bound(value))
        if value < 0:
            raise ConfigError(f"counts must be non-negative, got {bounded_repr(value)}")
    return integer_in_range(value, 0, _MAX_COUNT, "counts must be integers, got {}")


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
    ``background_rate`` is a flat per-channel mean added on top; their sum, the
    largest channel mean, is at most 2**52, so draws stay far below 2**53.
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
        object.__setattr__(self, "time_channels_per_period", integer_in_range(
            self.time_channels_per_period, 4, _MAX_CHANNELS,
            "time_channels_per_period must be an integer in [4, 2**16], got {}"))
        if not (self.counts_scale > 0.0 and math.isfinite(self.counts_scale)):
            raise ConfigError(f"counts_scale must be positive, got {self.counts_scale!r}")
        if not (self.background_rate >= 0.0 and math.isfinite(self.background_rate)):
            raise ConfigError(
                f"background_rate must be non-negative, got {self.background_rate!r}"
            )
        if self.background_rate + self.counts_scale > _MAX_MEAN:
            raise ConfigError("background_rate + counts_scale must be at most 2**52, "
                              f"got {self.background_rate + self.counts_scale!r}")
        if not math.isfinite(self.phase_offset):
            raise ConfigError(f"phase_offset must be finite, got {self.phase_offset!r}")
        object.__setattr__(self, "rng_seed", integer_in_range(
            self.rng_seed, 0, _MAX_SEED - 1, "rng_seed must be a 64-bit unsigned integer, got {}"))

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
    detuning in rad/s for detuning scans.  Each count is an integer in
    [0, 2**53] (``_count``), stored as an ``int``, so every record that
    constructs writes a table that ``read_counts_csv`` reads back equal.
    """

    current: float
    coord: float
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(map(_count, self.counts)))

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
                         packet_spec: WavePacketSpec | None, coords) -> list[float]:
    """Contrast at each of ``coords``, coordinates of ``plan``, under the intensity model."""
    if intensity_model not in INTENSITY_MODELS:
        raise ConfigError(
            f"intensity_model must be one of {INTENSITY_MODELS}, got {intensity_model!r}"
        )
    if intensity_model == "ideal":
        return [cfg.contrast] * len(coords)
    if packet_spec is None:
        raise ConfigError("wavepacket intensity model requires a packet spec")
    # A detuning scan keeps the detector at the focus.
    offsets = coords if plan.scan_kind == "offset" else [0.0] * len(coords)
    envelope = dict(contrast_envelope(cfg, packet_spec, dict.fromkeys(offsets)))
    return [cfg.contrast * envelope[offset] for offset in offsets]


def expected_channel_means(cfg: BeamlineConfig, plan: ScanPlan, current: float,
                           coord: float, intensity_model: str = "ideal",
                           packet_spec: WavePacketSpec | None = None) -> np.ndarray:
    """Model channel means mu_i for one scan point (no sampling)."""
    wanted = [coord] if coord in plan.coords else []
    contrasts = _effective_contrasts(cfg, plan, intensity_model, packet_spec, wanted)
    if not contrasts:
        raise ConfigError(f"scan coordinate {coord!r} is not part of the plan")
    return _point_means(cfg, plan, current, coord, contrasts[0])


def _point_rng(seed: int, point_index: int) -> np.random.Generator:
    # Counter-partitioned streams: each point owns a disjoint 2^128 block.
    bitgen = np.random.Philox(key=seed, counter=point_index * 2**128)
    return np.random.Generator(bitgen)


def _poisson_rows(key: int, means: np.ndarray) -> np.ndarray:
    """Poisson draws around each row of ``means``, row i from ``_point_rng(key, i)``.

    One Philox bit generator serves every row: before row i its counter is set
    to i * 2^128 and its buffer marked drained, which is the state
    ``_point_rng(key, i)`` starts from, without building a generator per row.
    Each row takes its own ``poisson`` call: a draw uses a varying number of words, so
    one call over all rows would start row i where row i - 1 stopped, not on stream i.
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
    means = _point_means(cfg, plan, plan.currents, plan.coords, contrasts)
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


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def _write_json(path, payload, sort_keys: bool = False) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def _write_csv(path, header, lines) -> None:
    """Write a CSV table in one write: ``header``'s fields joined with ``,``, then ``lines``.

    Each of ``lines`` is a data line's fields joined with ``,``; every line ends in ``\r\n``.
    Every field the package writes is an ``_fmt`` number, an int or a fixed column name, so
    no field ever needs quoting and the bytes are those ``csv.writer`` would write.
    """
    Path(path).write_text("\r\n".join([",".join(header), *lines]) + "\r\n", newline="")


def _coord_reader(sidecar: dict | None, kind: str):
    """CSV coordinate text -> value: the sidecar plan's value written as it, else the parse."""
    scale = _COORD_SCALE[kind]
    try:
        plan_coords = {_fmt(v * scale): float(v) for v in sidecar["plan"][f"{kind}s"]}
    except (TypeError, KeyError, OverflowError):
        plan_coords = {}
    return lambda text: plan_coords[text] if text in plan_coords else float(text) / scale


def _finite_point(header, current: float, coord: float, where: str = "") -> tuple[float, float]:
    """(current, coord), a point's key; ConfigError naming the first column that is not finite."""
    if not math.isfinite(current):
        raise ConfigError(f"{where}{header[0]} must be finite, got {current!r}")
    if not math.isfinite(coord):
        raise ConfigError(f"{where}{header[1]} must be finite, got {coord!r}")
    return current, coord


def _table_points(path, grouped: dict) -> list[tuple[float, float, tuple[int, ...]]]:
    """(current, coord, counts) of each point of ``grouped``: key -> (channel, count) entries.

    No points, channels other than 0 ... m - 1, or mixed widths is a ConfigError naming ``path``.
    """
    if not grouped:
        raise ConfigError(f"{path}: no data rows")
    points = []
    for (current, coord), entries in grouped.items():
        point_channels, point_counts = zip(*entries)
        if point_channels != tuple(range(len(entries))):
            k = point_channels.count(0)  # a point recorded k times reads range(m) k times over
            repeated = k > 1 and point_channels == tuple(range(len(entries) // k)) * k
            raise ConfigError(f"{path}: point ({current}, {coord}) " + (
                f"is recorded {k} times" if repeated else "has non-consecutive channels"))
        points.append((current, coord, point_counts))
    widths = {len(counts) for _, _, counts in points}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent channel counts across points: {sorted(widths)}")
    return points


def write_counts_csv(path, records: list[CountsRecord], plan: ScanPlan,
                     metadata: dict | None = None) -> Path:
    """Write the counts table and its JSON metadata sidecar.

    Returns the sidecar path (``<stem>.meta.json`` next to the CSV).  Extra
    ``metadata`` entries (config echo, model name, versions) are merged into
    the sidecar.  Before any file is written, records whose table ``read_counts_csv``
    would refuse raise its ``ConfigError``; then so do records with no counts (no rows),
    and a record that would read back at another coordinate than its own: one off the
    plan whose mm text does not parse back to it, or the first of two plan offsets that
    share an mm text.  The lines are rendered in one pass, in the loop that keys each
    record (its ``current,coord,`` text once, then ``channel,count`` per count), and the
    table is written in one write once every check has passed.  No field ever needs
    quoting: each is an ``_fmt`` number, an int or a fixed column name.
    """
    kind = plan.scan_kind
    header = ["current_A", _COORD_COLUMNS[kind], "channel", "counts"]
    payload = {"format_version": 1, "scan_kind": kind, "plan": asdict(plan), **(metadata or {})}
    coord_of, scale = _coord_reader(payload, kind), _COORD_SCALE[kind]
    # Each point is keyed as the reader keys it, at its first line, and its lines rendered.
    grouped, lineno, moved, lines = {}, 2, None, []
    for rec in records:
        current, coord, counts = _fmt(rec.current), _fmt(rec.coord * scale), rec.counts
        if counts:  # a record with no counts writes no line
            key = _finite_point(header, float(current), coord_of(coord), f"{path}:{lineno}: ")
            if moved is None and key[1] != rec.coord:
                moved = (f"{path}:{lineno}: coordinate {float(rec.coord)!r}, written as "
                         f"{header[1]} {coord}, would read back as {key[1]!r}")
            grouped.setdefault(key, []).extend(enumerate(counts))
            lineno += len(counts)
            point = f"{current},{coord},"
            lines.extend([f"{point}{channel},{count}" for channel, count in enumerate(counts)])
    if len(_table_points(path, grouped)) < len(records):
        raise ConfigError(f"{path}: a record with no counts writes no rows")
    if moved is not None:
        raise ConfigError(moved)
    _write_csv(path, header, lines)
    sidecar = _sidecar_path(path)
    _write_json(sidecar, payload, sort_keys=True)
    return sidecar


@dataclass(frozen=True)
class CountsTable:
    """Counts records plus scan kind and any metadata read back from disk."""

    records: tuple[CountsRecord, ...]
    scan_kind: str
    metadata: dict | None = None


def _read_json(path: Path) -> dict:
    """The JSON object in the file at ``path``; any failure is a ConfigError naming the file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable bytes, an integer too long to convert
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    return data


def read_counts_csv(path) -> CountsTable:
    """Read a counts CSV (plus sidecar metadata, whose plan gives exact coordinates).

    Blank rows are skipped.  The first defective line raises ``ConfigError("<path>:<line>:
    <message>")``.  A line is checked in order: 4 columns; current, coordinate, channel and
    count parse; count <= 2**53; count >= 0; current finite; coordinate finite.
    """
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
    sidecar = _sidecar_path(path)
    metadata = _read_json(sidecar) if sidecar.exists() else None
    coord_of = _coord_reader(metadata, kind)

    # Rows of one point, in file order, under the first (current, coord) seen.  A point's
    # (current, coord) text is parsed and checked on its first line only; its later lines
    # find their entry list by that text, looked up only where it differs from the line before.
    grouped: dict[tuple[float, float], list[tuple[int, int]]] = {}
    by_text: dict[tuple[str, str], list[tuple[int, int]]] = {}
    text = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            current_text, coord_text, channel, count = row
            if (current_text, coord_text) != text:
                text = current_text, coord_text
                entries = by_text.get(text)
                if entries is None:
                    current, coord = float(current_text), coord_of(coord_text)
            channel, count = int(channel), int(count)
            if not 0 <= count <= _MAX_COUNT:
                count = _count(count)  # raises the message of the first rule it breaks
            if entries is None:
                entries = by_text[text] = grouped.setdefault(
                    _finite_point(header, current, coord), [])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        entries.append((channel, count))
    records = tuple(CountsRecord(*point) for point in _table_points(path, grouped))
    return CountsTable(records=records, scan_kind=kind, metadata=metadata)
