"""Fuzzing of outside input: run configs and counts tables with their sidecars.

Every input must end in a result or in one of the package's typed errors,
never in another exception.  The runs are derandomized and bounded, so the
same examples run every time.
"""

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from miezesim import (
    PRESETS,
    ConfigError,
    CountsTable,
    MiezesimError,
    PhysicsError,
    RunConfig,
    ScanPlan,
    config_echo,
    load_preset,
    parse_run_config,
    read_counts_csv,
    simulate_scan,
    write_counts_csv,
)
from miezesim.errors import bounded_repr
from miezesim.synth import (
    _COORD_COLUMNS,
    _COORD_SCALE,
    _MAX_COUNT,
    CountsRecord,
    _count_over_bound,
    _fmt,
    _read_json,
    _sidecar_path,
)

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([0, -1, 2**64, 10**400, 1e308, 5e-324, 1e-300]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=6))
RANGES = st.fixed_dictionaries({"start": NUMBERS, "stop": NUMBERS, "step": NUMBERS})
VALUES = st.one_of(
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    RANGES,
)
FACTORS = st.sampled_from([0.0, -1.0, 0.5, 1.0 + 1e-9, 1e3, 1e-300, 1e300])

ECHOES = {name: config_echo(load_preset(name)) for name in PRESETS}


def fresh_echo(name: str) -> dict:
    return json.loads(json.dumps(ECHOES[name]))


def scaled(value, factor: float):
    """``value`` with every number in it multiplied by ``factor``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return value * factor
        except OverflowError:  # an integer beyond the float range
            return value
    if isinstance(value, list):
        return [scaled(item, factor) for item in value]
    if isinstance(value, dict):
        return {key: scaled(item, factor) for key, item in value.items()}
    return value


def mutate(config: dict, data) -> None:
    """One edit of a section or of one of its fields: set, scale, drop or add a key.

    Numbers are set and scaled more often than other edits, so that more
    inputs get past the key and type checks to the dataclass validation.
    """
    holder = config
    key = data.draw(st.sampled_from(sorted(config)))
    if isinstance(config[key], dict) and config[key] and data.draw(st.booleans()):
        holder = config[key]
        key = data.draw(st.sampled_from(sorted(holder)))
    action = data.draw(st.sampled_from(["set", "number", "scale", "scale", "drop", "add"]))
    if action == "set":
        holder[key] = data.draw(VALUES)
    elif action == "number":
        holder[key] = data.draw(NUMBERS)
    elif action == "scale":
        holder[key] = scaled(holder[key], data.draw(FACTORS))
    elif action == "drop":
        del holder[key]
    else:
        holder[data.draw(st.text(max_size=5))] = data.draw(VALUES)


@FUZZ
@given(name=st.sampled_from(PRESETS), edits=st.integers(1, 4), data=st.data())
def test_parse_run_config_ends_in_a_config_or_a_typed_error(name, edits, data):
    config = fresh_echo(name)
    for _ in range(edits):
        if config:
            mutate(config, data)
    try:
        rc = parse_run_config(config)
    except MiezesimError:
        return
    assert isinstance(rc, RunConfig)
    assert rc.beamline.f1 < rc.beamline.f2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(name=st.sampled_from(PRESETS), f1_khz=st.floats(1e-3, 1e4),
       fraction=st.floats(0.01, 1.0), focused=st.booleans())
def test_f1_at_or_above_f2_is_a_physics_error(name, f1_khz, fraction, focused):
    config = fresh_echo(name)
    beamline = config["beamline"]
    beamline["f1_khz"], beamline["f2_khz"] = f1_khz, f1_khz * fraction
    if focused:  # no l2: the detector goes to the focusing point
        del beamline["l2_mm"]
    with pytest.raises(PhysicsError):
        parse_run_config(config)


# ---------------------------------------------------------------------------
# counts tables


class CountsFiles(list):
    """(CSV, sidecar) byte pairs plus a directory to write fuzzed copies to."""

    fuzz_dir = None


@pytest.fixture(scope="module")
def counts_files(tmp_path_factory):
    """CSV and sidecar bytes of a small offset scan and a small detuning scan."""
    rc = load_preset("cg4b-10khz")
    out = CountsFiles()
    out.fuzz_dir = tmp_path_factory.mktemp("fuzz")
    for plan in (ScanPlan(currents=(-0.95, -0.9), offsets=(-0.005, 0.005),
                          time_channels_per_period=4, rng_seed=7),
                 ScanPlan(currents=(-0.95,), detunings=(-10.0, 10.0),
                          time_channels_per_period=4, rng_seed=7)):
        path = tmp_path_factory.mktemp("counts") / "counts.csv"
        sidecar = write_counts_csv(path, simulate_scan(rc.beamline, plan), plan)
        out.append((path.read_bytes(), sidecar.read_bytes()))
    return out


CSV_TEXT = st.text(alphabet="0123456789.-+eE_, \n\r\"xinfa", max_size=8)
CHUNKS = st.one_of(CSV_TEXT.map(str.encode), st.binary(max_size=4))


def mutate_bytes(text: bytes, data) -> bytes:
    """One edit of ``text``: a span replaced, deleted or duplicated, or the tail cut."""
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 12)))
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "truncate"]))
    if action == "replace":
        return text[:start] + data.draw(CHUNKS) + text[stop:]
    if action == "delete":
        return text[:start] + text[stop:]
    if action == "duplicate":
        return text[:stop] + text[start:stop] + text[stop:]
    return text[:start]


def sidecar_variant(sidecar: bytes, data) -> bytes | None:
    """The sidecar mutated as bytes, with its plan coordinates replaced, swapped or absent."""
    kind = data.draw(st.sampled_from(["keep", "bytes", "coords", "json", "absent"]))
    if kind == "keep":
        return sidecar
    if kind == "bytes":
        return mutate_bytes(sidecar, data)
    if kind == "json":
        return json.dumps(data.draw(VALUES)).encode()
    if kind == "absent":
        return None
    payload = json.loads(sidecar)
    key = data.draw(st.sampled_from(["offsets", "detunings", "plan"]))
    if key == "plan":
        payload["plan"] = data.draw(VALUES)
    else:
        payload["plan"][key] = data.draw(VALUES)
    return json.dumps(payload).encode()


@FUZZ
@given(which=st.integers(0, 1), edits=st.integers(0, 3), data=st.data())
def test_read_counts_csv_ends_in_a_table_or_a_config_error(counts_files, which, edits, data):
    text, sidecar = counts_files[which]
    for _ in range(edits):
        text = mutate_bytes(text, data)
    sidecar = sidecar_variant(sidecar, data)
    path = counts_files.fuzz_dir / "counts.csv"
    path.write_bytes(text)
    if sidecar is None:
        path.with_suffix(".meta.json").unlink(missing_ok=True)
    else:
        path.with_suffix(".meta.json").write_bytes(sidecar)
    try:
        table = read_counts_csv(path)
    except ConfigError:
        return
    assert isinstance(table, CountsTable)
    assert len({len(record.counts) for record in table.records}) == 1


def reference_read_counts_csv(path) -> CountsTable:
    """``read_counts_csv`` as a line-by-line reader: every line parses and checks its own
    current and coordinate text, then joins the point of that (current, coord)."""
    path = Path(path)
    with path.open(newline="", errors="replace") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
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
    sidecar = _sidecar_path(path)
    metadata = _read_json(sidecar) if sidecar.exists() else None
    try:
        plan_coords = {_fmt(v * scale): float(v) for v in metadata["plan"][f"{kind}s"]}
    except (TypeError, KeyError, OverflowError):
        plan_coords = {}

    grouped: dict[tuple[float, float], list[tuple[int, int]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            current, coord, channel, count = row
            current = float(current)
            coord = plan_coords[coord] if coord in plan_coords else float(coord) / scale
            channel, count = int(channel), int(count)
            if count > _MAX_COUNT:
                raise ValueError(_count_over_bound(count))
            if count < 0:
                raise ValueError(f"counts must be non-negative, got {bounded_repr(count)}")
            if not math.isfinite(current):
                raise ValueError(f"{header[0]} must be finite, got {current!r}")
            if not math.isfinite(coord):
                raise ValueError(f"{header[1]} must be finite, got {coord!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        grouped.setdefault((current, coord), []).append((channel, count))
    if not grouped:
        raise ConfigError(f"{path}: no data rows")

    records = []
    for (current, coord), entries in grouped.items():
        point_channels, point_counts = zip(*entries)
        if point_channels != tuple(range(len(entries))):
            k = point_channels.count(0)  # a point recorded k times reads range(m) k times over
            repeated = k > 1 and point_channels == tuple(range(len(entries) // k)) * k
            raise ConfigError(f"{path}: point ({current}, {coord}) " + (
                f"is recorded {k} times" if repeated else "has non-consecutive channels"))
        records.append(CountsRecord(current=current, coord=coord, counts=point_counts))
    widths = {len(r.counts) for r in records}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent channel counts across points: {sorted(widths)}")
    return CountsTable(records=tuple(records), scan_kind=kind, metadata=metadata)


def read_outcome(reader, path) -> str:
    """The table a reader returns, or its ConfigError message; repr keeps the sign of 0."""
    try:
        return repr(reader(path))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@FUZZ
@given(which=st.integers(0, 1), edits=st.integers(0, 3), data=st.data())
def test_read_counts_csv_matches_a_line_by_line_reader(counts_files, which, edits, data):
    text, sidecar = counts_files[which]
    for _ in range(edits):
        text = mutate_bytes(text, data)
    sidecar = sidecar_variant(sidecar, data)
    path = counts_files.fuzz_dir / "counts.csv"
    path.write_bytes(text)
    if sidecar is None:
        path.with_suffix(".meta.json").unlink(missing_ok=True)
    else:
        path.with_suffix(".meta.json").write_bytes(sidecar)
    assert read_outcome(read_counts_csv, path) == read_outcome(reference_read_counts_csv, path)


@pytest.mark.parametrize("rows, points", [
    # -0.94 and -0.940 parse to one current: the point's later rows join it.
    (["-0.94,0,0,5", "-0.9,0,0,1", "-0.940,0,1,6", "-0.9,0,1,2", "-0.940,0,2,7",
      "-0.9,0,2,3", "-0.94,0,3,8", "-0.9,0,3,4"], 2),
    # A re-spelled current with a re-spelled, non-finite or unparsable coordinate.
    (["-0.94,0,0,5", "-0.940,0.0,1,6", "-0.94,-0,2,7", "-0.940,0e0,3,8"], 1),
    (["-0.94,0,0,5", "-0.940,inf,1,6"], 0),
    (["-0.94,0,0,5", "-0.940,zz,1,6"], 0),
    (["-0.94,0,0,5", "-0.94,0,1,x", "-0.940,0,1,6"], 0),
    # A point's later rows skip the coordinate parse, not the count checks.
    (["-0.94,0,0,5", f"-0.94,0,1,{2**53 + 1}"], 0),
    (["-0.94,0,0,5", "-0.94,0,1,-5"], 0),
    (["-0.94,0,0,5", "-0.94,0,1"], 0),
], ids=["split", "coordinate-spellings", "non-finite", "unparsable", "bad-count",
        "count-bound", "negative-count", "short-row"])
def test_read_counts_csv_merges_a_re_spelled_current_as_the_line_by_line_reader(
        tmp_path, rows, points):
    path = tmp_path / "counts.csv"
    path.write_text("current_A,delta_mm,channel,counts\n" + "\n".join(rows) + "\n")
    got = read_outcome(read_counts_csv, path)
    assert got == read_outcome(reference_read_counts_csv, path)
    if points:
        assert len(read_counts_csv(path).records) == points
    else:
        assert got.startswith("ConfigError:")


def test_csv_field_over_the_csv_module_limit_is_a_config_error(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("current_A,delta_mm,channel,counts\n" + "1" * 200_000 + ",0,0,5\n")
    with pytest.raises(ConfigError, match="field larger than field limit"):
        read_counts_csv(path)


# ---------------------------------------------------------------------------
# the write -> read loop

GOOD_COUNTS = st.one_of(
    st.integers(0, _MAX_COUNT),
    st.integers(0, _MAX_COUNT).map(float),
    st.integers(0, _MAX_COUNT).map(np.int64),
    st.sampled_from([0, _MAX_COUNT, 2.0, float(_MAX_COUNT), np.uint64(_MAX_COUNT), np.int32(7)]),
)
BAD_COUNTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, True, False, -1, _MAX_COUNT + 1,
                     10**400, np.float64(math.nan), np.int64(-1), "5", None]),
    st.integers(max_value=-1),
    st.integers(min_value=_MAX_COUNT + 1),
    st.floats().filter(
        lambda v: not (math.isfinite(v) and v.is_integer() and 0 <= v <= _MAX_COUNT)),
)
LOOP_PLANS = (
    ScanPlan(currents=(-0.95, -0.9, 0.1), offsets=(-0.005, 0.0, 0.0123456789), rng_seed=7),
    ScanPlan(currents=(-0.95, 1e-7), detunings=(-3000.0, 1234.5678), rng_seed=7),
)


@FUZZ
@given(which=st.integers(0, 1), width=st.integers(1, 5), data=st.data())
def test_every_record_list_that_constructs_round_trips_through_the_csv(tmp_path, which, width,
                                                                        data):
    # Records of one width at distinct points of the plan, counts of any accepted type:
    # each count is stored as an int, and the table reads back equal and writes back the same.
    plan = LOOP_PLANS[which]
    points = data.draw(st.lists(st.sampled_from(
        [(current, coord) for current in plan.currents for coord in plan.coords]),
        min_size=1, unique=True))
    drawn = [data.draw(st.tuples(*[GOOD_COUNTS] * width)) for _ in points]
    records = [CountsRecord(current=current, coord=coord, counts=counts)
               for (current, coord), counts in zip(points, drawn)]
    assert [rec.counts for rec in records] == [tuple(int(c) for c in counts) for counts in drawn]
    assert all(type(c) is int for rec in records for c in rec.counts)
    path, again = tmp_path / "counts.csv", tmp_path / "again.csv"
    write_counts_csv(path, records, plan)
    table = read_counts_csv(path)
    assert table.records == tuple(records)
    write_counts_csv(again, list(table.records), plan)
    assert again.read_bytes() == path.read_bytes()


# Two plan offsets whose mm text is the same: each is written as 5.0000000000000231.
SAME_TEXT = (0.005000000000000023, math.nextafter(0.005000000000000023, 1.0))
# Off the plan, written as 4.6349999999999998 mm, which parses back to 0.004634999999999999.
OFF_PLAN = 0.004635
REFUSAL_PLAN = ScanPlan(currents=(-0.9, 0.0), offsets=(0.0,) + SAME_TEXT)


def write_unchecked(path, records, plan):
    """The CSV of ``records`` row for row as the writer lays it out, unchecked, and a plan sidecar."""
    scale = _COORD_SCALE[plan.scan_kind]
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["current_A", _COORD_COLUMNS[plan.scan_kind], "channel", "counts"])
        out.writerows((_fmt(rec.current), _fmt(rec.coord * scale), channel, count)
                      for rec in records for channel, count in enumerate(rec.counts))
    _sidecar_path(path).write_text(json.dumps({"plan": asdict(plan)}))


def moved_record(path, records, table) -> str | None:
    """The writer's refusal of the first record that ``table`` reads back at another
    coordinate; ``table`` holds one record per record with counts, in their order."""
    lineno = 2
    for rec, back in zip([rec for rec in records if rec.counts], table.records):
        if back.coord != rec.coord:
            return (f"ConfigError: {path}:{lineno}: coordinate {rec.coord!r}, written as "
                    f"delta_mm {_fmt(rec.coord * 1e3)}, would read back as {back.coord!r}")
        lineno += len(rec.counts)
    return None


@FUZZ
@given(records=st.lists(st.builds(
    CountsRecord,
    current=st.sampled_from([-0.9, 0.0, -0.0, math.nan, -math.inf]),
    coord=st.sampled_from((0.0, math.inf, OFF_PLAN) + SAME_TEXT),
    counts=st.lists(st.integers(0, 9), max_size=3).map(tuple)), max_size=4))
def test_the_writer_refuses_every_record_list_whose_table_the_reader_refuses(tmp_path, records):
    # Laid out unchecked, the table either reads back or the line-by-line reader refuses it.
    # write_counts_csv refuses the second kind with that reader's message and writes no file.
    # It writes the first kind byte for byte, unless a record has no counts (and so no rows)
    # or reads back at another coordinate than its own (off the plan, or the first offset of
    # SAME_TEXT, which reads back as the second).
    unchecked, path = tmp_path / "unchecked.csv", tmp_path / "counts.csv"
    write_unchecked(unchecked, records, REFUSAL_PLAN)
    expected = read_outcome(reference_read_counts_csv, unchecked).replace(str(unchecked), str(path))
    path.unlink(missing_ok=True)
    _sidecar_path(path).unlink(missing_ok=True)
    try:
        write_counts_csv(path, records, REFUSAL_PLAN)
    except ConfigError as exc:
        assert not path.exists() and not _sidecar_path(path).exists()
        refused = f"ConfigError: {exc}"
    else:
        assert path.read_bytes() == unchecked.read_bytes()
        assert len(read_counts_csv(path).records) == len(records)
        refused = None
    if expected.startswith("ConfigError: "):
        assert refused == expected
    elif not all(rec.counts for rec in records):
        assert refused == f"ConfigError: {path}: a record with no counts writes no rows"
    else:
        assert refused == moved_record(path, records, reference_read_counts_csv(unchecked))


@FUZZ
@given(bad=BAD_COUNTS, at=st.integers(0, 3))
def test_a_count_that_does_not_construct_is_a_config_error_naming_it(bad, at):
    counts = [5, 6, 7]
    counts.insert(at, bad)
    with pytest.raises(ConfigError, match="^counts must be ") as err:
        CountsRecord(current=-0.94, coord=0.0, counts=tuple(counts))
    assert str(err.value).endswith(f"got {bounded_repr(bad)}")
