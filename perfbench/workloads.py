"""One benchmark workload in one process: set-up, measured loop, correctness gates.

``run.py`` starts this file with the interpreter of the benchmark's own
install of ``miezesim`` and reads the JSON object it prints as its last
stdout line.  The workload seed is turned into the program's inputs here
(scan seeds, bootstrap seeds, z-grid offsets); the package only ever sees
those derived inputs.

Every workload runs a loop of one unit operation ("op") and times one named
part of it ("step"):

=============== ===================================== ===============================
workload        op                                    step
=============== ===================================== ===============================
cli_session     one preset's five-call CLI session    a ``miezesim --version`` call
coverage_sweep  one seed simulated and reduced to S   its ``simulate_scan`` call
witness_reduce  one counts table read and reduced,    its ``bootstrap_uncertainty``
                bootstrap included                    call
packet_optics   one preset's ``contrast_envelope``    the ``contrast_envelope`` call
                plus one 1201 x 4096 transport call
=============== ===================================== ===============================
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from speed import SpeedProbe
from tracer import LAYERS, SpanRecorder

perf_counter = time.perf_counter

CALL_TIMEOUT_S = 120.0
TSIRELSON = 2.0 * math.sqrt(2.0)


class OpFailure(Exception):
    """An operation whose program call did not complete as a user expects."""


def derive(seed: int, *tags) -> int:
    """64-bit program seed for one input, derived from the workload seed."""
    digest = hashlib.blake2b(repr((seed, *tags)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def uniform(seed: int, *tags) -> float:
    """Deterministic number in [0, 1) derived from the workload seed."""
    return derive(seed, *tags) / 2.0**64


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Workload:
    name = ""
    min_ops = 1
    trace_ops = 1
    scaled = True  # op times are scaled by the speed probe (see speed.py)

    def __init__(self, ms, seed: int, work: Path) -> None:
        self.ms = ms
        self.seed = seed
        self.work = work
        self.speed: SpeedProbe | None = None
        self.recorder: SpanRecorder | None = None
        self.presets = [(name, ms.load_preset(name)) for name in ms.PRESETS]

    def setup(self) -> None:
        """Derived inputs and one warm-up call, after the package import."""

    def tick(self) -> None:
        """Let the speed probe run between steps of the set-up or of an op."""
        if self.speed is not None:
            self.speed.maybe()

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> list[str]:
        """Problems with one op's outputs; an op with any counts as failed."""
        return []

    def gates(self, results: list[dict]) -> list[dict]:
        """Run-level correctness gates."""
        return []

    def aliases(self, results: list[dict], summary: dict) -> dict:
        """The workload's named end-to-end figures, as (value, unit, samples)."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate(name: str, passed: bool, detail: str) -> dict:
    return {"gate": name, "pass": bool(passed), "detail": detail}


class CliSession(Workload):
    """Analyst sessions through the installed ``miezesim`` command.

    Covers what a user waits for, interpreter start-up and import included.
    In the traced run the same sessions call ``miezesim.cli.main`` in
    process, so spans can be recorded.
    """

    name = "cli_session"
    min_ops = 6
    trace_ops = 3
    # The calls run in child processes, on whichever CPU is free, and a probe in
    # this process does not track their speed: over ten seeds the scaled session
    # times spread by 28%, the unscaled ones by 10%.
    scaled = False
    KINDS = ("simulate", "simulate_wavepacket", "witness_bootstrap", "envelope", "focus")

    def setup(self) -> None:
        self.command = [sys.executable, str(Path(sys.executable).with_name("miezesim"))]
        self.in_process = False
        self.tick()
        self._version()

    def _version(self) -> float:
        start = perf_counter()
        proc = subprocess.run(self.command + ["--version"], capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("miezesim "):
            raise OpFailure(f"--version exited {proc.returncode}: {proc.stdout!r}")
        return elapsed

    def _calls(self, i: int) -> tuple[str, int, Path, dict]:
        name, _ = self.presets[i % len(self.presets)]
        seed = derive(self.seed, "simulate", i)
        out = self.work / f"session{i}"
        counts = out / "ideal" / "counts.csv"
        calls = {
            "simulate": ["simulate", "--preset", name, "--seed", str(seed),
                         "--out", str(out / "ideal")],
            "simulate_wavepacket": ["simulate", "--preset", name, "--seed", str(seed),
                                    "--model", "wavepacket", "--out", str(out / "wavepacket")],
            "witness_bootstrap": ["witness", "--counts", str(counts), "--bootstrap", "200",
                                  "--seed", str(derive(self.seed, "bootstrap", i)),
                                  "--out", str(out / "ideal")],
            "envelope": ["envelope", "--preset", name, "--format", "json",
                         "--out", str(out / "envelope")],
            "focus": ["focus", "--preset", name, "--format", "json"],
        }
        return name, seed, out, calls

    def _call(self, kind: str, argv: list[str]) -> str:
        if not self.in_process:
            proc = subprocess.run(self.command + argv, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
            if proc.returncode != 0:
                raise OpFailure(f"{kind} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout
        cli = importlib.import_module(f"{self.ms.__name__}.cli")
        stdout = io.StringIO()
        span = self.recorder.span(f"cli.{kind}") if self.recorder else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise OpFailure(f"{kind} returned {code}")
        return stdout.getvalue()

    def op(self, i: int) -> dict:
        name, seed, out, calls = self._calls(i)
        times = {}
        focus_json = ""
        for kind, argv in calls.items():
            start = perf_counter()
            stdout = self._call(kind, argv)
            times[kind] = perf_counter() - start
            if kind == "focus":
                focus_json = stdout
        steps = [] if self.in_process else [self._version()]
        return {"index": i, "preset": name, "seed": seed, "out": str(out),
                "op_s": sum(times.values()), "step_s": steps, "calls": times,
                "focus": focus_json}

    def check(self, result: dict) -> list[str]:
        ms = self.ms
        problems = []
        rc = dict(self.presets)[result["preset"]]
        plan = replace(rc.plan, rng_seed=result["seed"])
        out = Path(result["out"])
        reference = self.work / "reference.csv"
        for model, sub in (("ideal", "ideal"), ("wavepacket", "wavepacket")):
            packet = rc.packet if model == "wavepacket" else None
            records = ms.simulate_scan(rc.beamline, plan, intensity_model=model,
                                       packet_spec=packet)
            ms.write_counts_csv(reference, records, plan)
            if reference.read_bytes() != (out / sub / "counts.csv").read_bytes():
                problems.append(f"{sub} counts.csv differs from the in-process bytes")
        table = ms.read_counts_csv(out / "ideal" / "counts.csv")
        report = ms.analyze_records(rc.beamline, table.records, rc.settings,
                                    scan_kind=table.scan_kind)
        witness = json.loads((out / "ideal" / "witness.json").read_text())
        if not math.isclose(witness["s"], report.witness.s, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"witness.json S {witness['s']!r} != in-process "
                            f"{report.witness.s!r}")
        boot = witness["bootstrap"] or {}
        if not (boot.get("resamples") == 200 and boot.get("failures", 11) <= 10
                and boot.get("sigma_s", 0.0) > 0.0):
            problems.append(f"bootstrap block {boot!r}")
        envelope = json.loads((out / "envelope" / "envelope.json").read_text())
        contrast = dict(zip(envelope["delta_mm"], envelope["contrast"]))
        if contrast.get(0.0, 0.0) < 0.99:
            problems.append(f"envelope contrast at 0 mm {contrast.get(0.0)!r} < 0.99")
        focus = json.loads(result["focus"])
        if focus["l2_mm"] != ms.focusing_distance(rc.beamline) / 1e-3:
            problems.append(f"focus l2_mm {focus['l2_mm']!r} differs from the library")
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def gates(self, results: list[dict]) -> list[dict]:
        presets = {r["preset"] for r in results}
        return [gate("every preset ran a session", presets == set(self.ms.PRESETS),
                     f"presets {sorted(presets)}")]

    def aliases(self, results: list[dict], summary: dict) -> dict:
        out = {"cli_session_s": (summary["op_s.p50"], "s", len(results))}
        if not self.in_process:
            out["cli_startup_s"] = (summary["step_s.p50"], "s", len(results))
        for kind in self.KINDS:
            values = [r["calls"][kind] for r in results]
            out[f"call_s.{kind}.p50"] = (median(values), "s", len(values))
        return out

    def peak_rss_mb(self) -> float:
        # A session's memory is that of its CLI children, not of this driver.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class CoverageSweep(Workload):
    """Criterion 2's loop in process: simulate, reduce to S, check 3 sigma coverage."""

    name = "coverage_sweep"
    min_ops = 300
    trace_ops = 60

    def setup(self) -> None:
        self.targets = {name: self.ms.witness_from_contrast(rc.beamline.contrast)
                        for name, rc in self.presets}
        self.tick()
        self.op(0)

    def op(self, i: int) -> dict:
        ms = self.ms
        name, rc = self.presets[i % len(self.presets)]
        plan = replace(rc.plan, rng_seed=derive(self.seed, "scan", i))
        start = perf_counter()
        records = ms.simulate_scan(rc.beamline, plan)
        simulated = perf_counter()
        points = ms.single_channel_points(rc.beamline, records, scan_kind=plan.scan_kind)
        result = ms.witness_from_fit(ms.fit_global(points), rc.settings)
        end = perf_counter()
        return {"preset": name, "op_s": end - start, "step_s": [simulated - start],
                "s": result.s, "sigma_s": result.sigma_s}

    def check(self, result: dict) -> list[str]:
        if not (math.isfinite(result["s"]) and result["sigma_s"] > 0.0):
            return [f"S {result['s']!r} +/- {result['sigma_s']!r}"]
        return []

    def gates(self, results: list[dict]) -> list[dict]:
        out = []
        for name, _ in self.presets:
            rows = [r for r in results if r["preset"] == name]
            target = self.targets[name]
            hits = sum(abs(r["s"] - target) <= 3.0 * r["sigma_s"] for r in rows)
            share = hits / len(rows) if rows else 0.0
            out.append(gate(f"3-sigma coverage {name}", share >= 0.95,
                            f"{hits}/{len(rows)} = {share:.4f} >= 0.95"))
        sigmas = [r["sigma_s"] for r in results if r["preset"] == "cg4b-10khz"]
        med = median(sigmas)
        out.append(gate("median sigma_S cg4b-10khz", 0.002 <= med <= 0.06,
                        f"{med:.5f} in [0.002, 0.06]"))
        return out

    def aliases(self, results: list[dict], summary: dict) -> dict:
        return {"scans_per_s": (summary["ops_per_s"], "1/s", len(results))}


class WitnessReduce(Workload):
    """Counts tables written at set-up, each read and reduced with a 200-resample bootstrap."""

    name = "witness_reduce"
    min_ops = 40
    trace_ops = 6
    POOL = 42  # 14 tables per preset, so at least 40 distinct tables are reduced

    def setup(self) -> None:
        ms = self.ms
        self.targets = {name: ms.witness_from_contrast(rc.beamline.contrast)
                        for name, rc in self.presets}
        self.tables = []
        for j in range(self.POOL):
            name, rc = self.presets[j % len(self.presets)]
            plan = replace(rc.plan, rng_seed=derive(self.seed, "table", j))
            path = self.work / f"table{j}.csv"
            ms.write_counts_csv(path, ms.simulate_scan(rc.beamline, plan), plan)
            self.tables.append((name, rc, path))
            self.tick()
        self.op(0)

    def op(self, i: int) -> dict:
        ms = self.ms
        j = i % self.POOL
        name, rc, path = self.tables[j]
        start = perf_counter()
        table = ms.read_counts_csv(path)
        report = ms.analyze_records(rc.beamline, table.records, rc.settings,
                                    scan_kind=table.scan_kind)
        analyzed = perf_counter()
        boot = ms.bootstrap_uncertainty(rc.beamline, table.records, rc.settings,
                                        resamples=200, seed=derive(self.seed, "bootstrap", i),
                                        scan_kind=table.scan_kind)
        end = perf_counter()
        return {"table": j, "preset": name, "op_s": end - start, "step_s": [end - analyzed],
                "s": report.witness.s, "sigma_s": report.witness.sigma_s,
                "classification": report.witness.classification,
                "resamples": boot.resamples, "boot_failures": boot.failures,
                "boot_sigma_s": boot.sigma_s}

    def check(self, result: dict) -> list[str]:
        problems = []
        target = self.targets[result["preset"]]
        # The classification is checked where the expected S lies more than 3 sigma
        # inside the quantum band.  At C = 1 it sits on the Tsirelson bound, and
        # counting noise puts about half of the estimates just above it.
        margin = min(abs(target - 2.0), abs(target - TSIRELSON))
        decided = margin > 3.0 * result["sigma_s"]
        expected = "quantum" if 2.0 < target <= TSIRELSON else "classical"
        if decided and result["classification"] != expected:
            problems.append(f"table {result['table']} classified {result['classification']}")
        if not result["boot_sigma_s"] > 0.0:
            problems.append(f"bootstrap sigma_S {result['boot_sigma_s']!r}")
        return problems

    def gates(self, results: list[dict]) -> list[dict]:
        tables = {r["table"]: r for r in results}
        hits = sum(abs(r["s"] - self.targets[r["preset"]]) <= 3.0 * r["sigma_s"]
                   for r in tables.values())
        share = hits / len(tables) if tables else 0.0
        resamples = sum(r["resamples"] for r in results)
        failures = sum(r["boot_failures"] for r in results)
        unphysical = sum(r["classification"] == "unphysical" for r in tables.values())
        return [
            gate("3-sigma coverage over distinct tables", share >= 0.95,
                 f"{hits}/{len(tables)} = {share:.4f} >= 0.95; {unphysical} classified "
                 "'unphysical' (C = 1 puts S on the Tsirelson bound)"),
            gate("bootstrap failures <= 5%", failures <= 0.05 * resamples,
                 f"{failures}/{resamples}"),
        ]

    def aliases(self, results: list[dict], summary: dict) -> dict:
        n = len(results)
        out = {"reductions_per_s": (summary["ops_per_s"], "1/s", n),
               "reduce_s.p50": (summary["op_s.p50"], "s", n)}
        if n >= 100:  # p90 is reported only with at least 10 samples beyond it
            out["reduce_s.p90"] = (statistics.quantiles([r["op_s"] for r in results],
                                                        n=10)[8], "s", n)
        return out


class PacketOptics(Workload):
    """Contrast envelopes (cache-resident) beside criterion 6's 1201 x 4096 transport grid."""

    name = "packet_optics"
    min_ops = 18  # a transport call varies most from call to call; take more of them
    trace_ops = 4
    Z_CELLS = 1201
    Z_HALF_WIDTH = 2e-7

    def setup(self) -> None:
        import numpy as np

        ms = self.ms
        self.np = np
        self.deltas = {name: sorted(set(rc.plan.offsets) | {0.0}) for name, rc in self.presets}
        cfg = dict(self.presets)["cg4b-10khz"].beamline
        spec = ms.WavePacketSpec(shape="gaussian", k0=cfg.k0, bandwidth=0.002, kappa=1.0,
                                 n_samples=4096, half_span=6.0)
        self.state = ms.pipeline_packet_state(cfg, spec, coil_field_integral=0.94 * cfg.coil_cal)
        self.tick()
        v = cfg.velocity
        focus = cfg.l1 + ms.focusing_distance(cfg)
        cell = 2.0 * self.Z_HALF_WIDTH / (self.Z_CELLS - 1)
        self.checks = []
        for k, t in enumerate([1e-5, cfg.l1 / v, (cfg.l1 + 0.3) / v, focus / v]):
            z_up, z_down = ms.stationary_peak_positions(self.state, t)
            # A seed-derived sub-cell shift of the window keeps the peaks inside it.
            center = 0.5 * (z_up + z_down) + (uniform(self.seed, "z", k) - 0.5) * cell
            z = np.linspace(center - self.Z_HALF_WIDTH, center + self.Z_HALF_WIDTH, self.Z_CELLS)
            self.checks.append((t, z, z_up, z_down))
        name, rc = self.presets[0]
        ms.contrast_envelope(rc.beamline, rc.packet, self.deltas[name])
        t, z, _, _ = self.checks[0]
        ms.branch_intensities(self.state, z[::120], t)

    def op(self, i: int) -> dict:
        ms, np = self.ms, self.np
        name, rc = self.presets[i % len(self.presets)]
        t, z, z_up, z_down = self.checks[i % len(self.checks)]
        start = perf_counter()
        envelope = ms.contrast_envelope(rc.beamline, rc.packet, self.deltas[name])
        enveloped = perf_counter()
        if self.speed is not None:
            self.speed.probe()  # the transport call takes about a second
        resumed = perf_counter()
        i_up, i_down = ms.branch_intensities(self.state, z, t)
        end = perf_counter()
        cell = z[1] - z[0]
        return {"preset": name, "op_s": end - resumed + enveloped - start,
                "step_s": [enveloped - start], "transport_s": end - resumed,
                "contrast_at_zero": dict(envelope)[0.0],
                "contrast_range": [min(c for _, c in envelope), max(c for _, c in envelope)],
                "peak_cells": [abs(z[int(np.argmax(i_up))] - z_up) / cell,
                               abs(z[int(np.argmax(i_down))] - z_down) / cell]}

    def check(self, result: dict) -> list[str]:
        problems = []
        low, high = result["contrast_range"]
        if not (0.0 <= low and high <= 1.0 + 1e-9):
            problems.append(f"contrast outside [0, 1]: {result['contrast_range']}")
        if result["preset"] == "cg4b-10khz" and result["contrast_at_zero"] < 0.99:
            problems.append(f"contrast at 0 mm {result['contrast_at_zero']!r} < 0.99")
        if max(result["peak_cells"]) > 1.0:
            problems.append(f"branch peaks {result['peak_cells']} cells from the prediction")
        return problems

    def gates(self, results: list[dict]) -> list[dict]:
        presets = {r["preset"] for r in results}
        return [gate("every preset's envelope ran", presets == set(self.ms.PRESETS),
                     f"presets {sorted(presets)}")]

    def aliases(self, results: list[dict], summary: dict) -> dict:
        n = len(results)
        return {"envelope_s.p50": (summary["step_s.p50"], "s", n),
                "transport_s.p50": (median([r["speed_factor"] * r["transport_s"]
                                            for r in results]), "s", n)}


WORKLOADS = {w.name: w for w in (CliSession, CoverageSweep, WitnessReduce, PacketOptics)}


def run_ops(workload: Workload, count: int | None,
            seconds: float) -> tuple[list, list, int, list]:
    """Run ops back to back: ``count`` of them, or for ``seconds`` and at least min_ops.

    For a scaled workload each result's ``op_s`` and ``step_s`` are scaled
    to the reference speed (see ``speed.py``); the measured times are kept
    as ``raw_op_s`` and ``raw_step_s``.  Returns the results, the failures,
    the number of ops attempted and the probe times.
    """
    results, failures = [], []
    attempted = 0
    speed = SpeedProbe()
    if workload.scaled:
        workload.speed = speed
    deadline = perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return attempted < count
        return attempted < workload.min_ops or perf_counter() < deadline

    while more():
        workload.tick()
        start = perf_counter()
        try:
            result = workload.op(attempted)
        except (workload.ms.MiezesimError, OpFailure) as exc:
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        else:
            result["window"] = (start, perf_counter())
            results.append(result)
        attempted += 1
    workload.tick()
    workload.speed = None
    for result in results:
        window = result.pop("window")
        factor = speed.factor(*window) if workload.scaled else 1.0
        result["speed_factor"] = factor
        result["raw_op_s"], result["raw_step_s"] = result["op_s"], result["step_s"]
        result["op_s"] = factor * result["op_s"]
        result["step_s"] = [factor * t for t in result["step_s"]]
    return results, failures, attempted, [v for _, v in speed.samples]


def checked(workload: Workload, results: list[dict], failures: list[str]) -> list[dict]:
    """The results whose outputs pass the per-op checks; problems go to ``failures``."""
    good = []
    for result in results:
        problems = workload.check(result)
        if problems:
            failures.append(f"op: {'; '.join(problems)}")
        else:
            good.append(result)
    return good


def summarize(results: list[dict], prefix: str = "") -> dict:
    op = [r[f"{prefix}op_s"] for r in results]
    steps = [t for r in results for t in r[f"{prefix}step_s"]]
    return {f"{prefix}op_s.p50": median(op), f"{prefix}step_s.p50": median(steps),
            f"{prefix}ops_per_s": len(op) / sum(op) if op else 0.0}


def scipy_import_s(python: str) -> float:
    """Cumulative import time of the scipy modules ``import miezesim`` pulls in."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import miezesim"],
                          capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        level = len(name) - len(name.lstrip())
        entries.append((level, name.strip(), int(cumulative)))
    # importtime lists children before parents; walk backwards to see parents first.
    total, stack = 0, []
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
        stack.append((level, name))
    return total / 1e6


def _annotators() -> dict:
    def points(args, kwargs, result):
        return {"points": len(result)}

    def written(args, kwargs, result):
        return {"bytes": Path(args[0]).stat().st_size}

    def rows(args, kwargs, result):
        return {"rows": sum(len(r.counts) for r in result.records)}

    def resamples(args, kwargs, result):
        return {"resamples": result.resamples, "failures": result.failures}

    def offsets(args, kwargs, result):
        return {"offsets": len(result)}

    def cells(args, kwargs, result):
        state, z = args[0], args[1]
        n = int(getattr(z, "size", 1)) * int(state.k.size) * 2
        return {"cells": n, "bytes_computed": n * 16}

    return {"synth.simulate_scan": points, "synth.write_counts_csv": written,
            "synth.read_counts_csv": rows, "analysis.bootstrap_uncertainty": resamples,
            "wavepacket.contrast_envelope": offsets, "wavepacket.branch_intensities": cells}


def layer_metrics(recorder: SpanRecorder, window_s: float) -> dict:
    """Per-layer figures from the spans: per-call medians, counts and self time."""
    spans = recorder.spans
    self_times = recorder.self_times()

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def ms(name):
        return median(durations(name)) * 1e3

    def calls(name):
        return len(durations(name))

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    out = {}
    for kind in CliSession.KINDS:
        out[f"cli.{kind}.ms"] = ms(f"cli.{kind}")
    for name in ("config.load_preset", "config.parse_run_config", "synth.simulate_scan",
                 "synth.write_counts_csv", "synth.read_counts_csv",
                 "analysis.single_channel_points", "analysis.fit_global",
                 "analysis.channel_fits_witness", "analysis.counts_witness",
                 "analysis.witness_from_fit", "analysis.bootstrap_uncertainty",
                 "wavepacket.pipeline_packet_state", "wavepacket.contrast_envelope",
                 "wavepacket.branch_intensities"):
        out[f"{name}.ms"] = ms(name)
    for name in ("analysis.fit_global", "analysis.fit_time_series",
                 "wavepacket.detected_intensity", "beamline.spin_phase",
                 "beamline.energy_phase", "beamline.focusing_distance",
                 "quantum.expectation_from_counts", "quantum.classify"):
        out[f"{name}.calls"] = calls(name)
    out["synth.simulate_scan.points"] = total("synth.simulate_scan", "points")
    out["synth.write_counts_csv.bytes"] = total("synth.write_counts_csv", "bytes")
    out["synth.read_counts_csv.rows"] = total("synth.read_counts_csv", "rows")
    out["analysis.bootstrap.resamples"] = total("analysis.bootstrap_uncertainty", "resamples")
    out["analysis.bootstrap.failures"] = total("analysis.bootstrap_uncertainty", "failures")
    out["wavepacket.contrast_envelope.offsets"] = total("wavepacket.contrast_envelope", "offsets")
    out["wavepacket.branch_intensities.cells"] = total("wavepacket.branch_intensities", "cells")
    out["wavepacket.branch_intensities.bytes_computed"] = total(
        "wavepacket.branch_intensities", "bytes_computed")
    for layer in LAYERS:
        busy = sum(t for s, t in zip(spans, self_times) if s.layer == layer)
        out[f"{layer}.self_pct"] = 100.0 * busy / window_s
    out["trace.spans"] = len(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--spans", type=Path, help="traced run: write the spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    import miezesim

    import_s = perf_counter() - start
    args.work.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up is timed by run.py from the process start to "ready"; the
        # probes in it are reported so that their time can be taken out.
        speed = SpeedProbe()
        speed.probe()
        workload = WORKLOADS[args.workload](miezesim, args.seed, args.work)
        workload.speed = speed
        workload.setup()
        speed.probe()
        workload.speed = None
        setup = {"ready": time.monotonic(), "probe_s": speed.median(), "probe_spent_s": speed.spent}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        out = traced(workload, args, import_s) if args.trace else measured(workload, args.seconds)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    out.update(setup=setup, import_s=import_s, versions=versions())
    print(json.dumps(out))
    return 0


def versions() -> dict:
    """Versions of the interpreter and of the installed distributions, without importing."""
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def measured(workload: Workload, seconds: float) -> dict:
    begin = perf_counter()
    results, failures, attempted, probes = run_ops(workload, None, seconds)
    window = perf_counter() - begin
    peak_rss_mb = workload.peak_rss_mb()
    good = checked(workload, results, failures)
    gates = workload.gates(results)
    summary = summarize(results)
    summary["peak_rss_mb"] = peak_rss_mb
    return {
        "attempted": attempted, "failed": attempted - len(good),
        "correct": attempted == len(good) and all(g["pass"] for g in gates),
        "metrics": summary, "gates": gates, "failures": failures[:10],
        "aliases": workload.aliases(results, summary),
        "raw": summarize(results, "raw_"),
        "samples": {"ops": len(results), "window_s": window,
                    "op_s": [r["op_s"] for r in results],
                    "step_s": [t for r in results for t in r["step_s"]],
                    "raw_op_s": [r["raw_op_s"] for r in results],
                    "raw_step_s": [t for r in results for t in r["raw_step_s"]],
                    "speed_probe_s": probes},
    }


def traced(workload: Workload, args, import_s: float) -> dict:
    """An untraced pass of min_ops ops, then the first trace_ops of them again, traced.

    Both counts are fixed, so call counts repeat exactly for a seed.  The
    run-level gates use the untraced pass.  Each traced op runs right after
    the same op untraced, and the median ratio of the pairs gives the
    tracing overhead.
    """
    if isinstance(workload, CliSession):
        workload.in_process = True
    plain, failures, attempted, _ = run_ops(workload, workload.min_ops, 0.0)
    good = checked(workload, plain, failures)
    gates = workload.gates(plain)
    recorder = SpanRecorder(_annotators())
    window = 0.0

    def under_trace(call):
        nonlocal window
        recorder.install(workload.ms)
        workload.recorder = recorder
        begin = perf_counter()
        try:
            return call()
        finally:
            window += perf_counter() - begin
            workload.recorder = None
            recorder.uninstall()

    # Loading the presets again puts the config layer's set-up work in the trace.
    workload.presets = under_trace(
        lambda: [(name, workload.ms.load_preset(name)) for name in workload.ms.PRESETS])
    results, ratios = [], []
    for i in range(workload.trace_ops):
        attempted += 1
        try:
            untraced_s = workload.op(i)["op_s"]
            result = under_trace(lambda: workload.op(i))
        except (workload.ms.MiezesimError, OpFailure) as exc:
            failures.append(f"traced op {i}: {type(exc).__name__}: {exc}")
            continue
        results.append(result)
        ratios.append(result["op_s"] / untraced_s)
    good += checked(workload, results, failures)
    metrics = layer_metrics(recorder, window)
    metrics["config.import_s"] = import_s
    metrics["config.import_scipy_s"] = scipy_import_s(sys.executable)
    metrics["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0) if ratios else 0.0
    if args.spans:
        with args.spans.open("w") as fh:
            for record in recorder.to_records():
                fh.write(json.dumps(record) + "\n")
    return {
        "attempted": attempted, "failed": attempted - len(good),
        "correct": len(good) == attempted and all(g["pass"] for g in gates),
        "metrics": metrics, "gates": gates, "failures": failures[:10],
        "aliases": {},
        "samples": {"ops": len(plain), "traced_ops": len(results), "window_s": window,
                    "spans": len(recorder.spans), "traced_over_untraced": ratios},
    }


if __name__ == "__main__":
    raise SystemExit(main())
