#!/usr/bin/env python3
"""Benchmark of the miezesim package: build it from source, run one workload, print metrics.

    python3 perfbench/run.py --workload witness_reduce --seed 1 --seconds 20 --trace 0

The package under ``src/`` is installed into ``.bench_build/venv`` (rebuilt
whenever the sources change) and each workload runs in a fresh process of
that interpreter, from outside the package.  ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics from a separate traced run.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also appends a full record (metadata, samples, gates) to
``.bench_build/results.jsonl``; ``compare.py`` reads those files.

``--workload all`` runs the four workloads one after another.  The program
stops with a non-zero exit code and no result when it cannot build or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

from speed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
VENV = BUILD / "venv"
WORKLOADS = ("cli_session", "coverage_sweep", "witness_reduce", "packet_optics")
SETUP_RUNS = 3  # fresh processes whose set-up is timed; setup_s is their median
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not build or run the program."""


def source_digest() -> str:
    """SHA-256 over the package sources and pyproject.toml."""
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in [*files, ROOT / "pyproject.toml"]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def build() -> Path:
    """Install the package from ``src/`` into the benchmark's venv; return its python.

    The install copies each package under ``src/`` into the venv's
    site-packages, byte-compiles it and writes the ``[project.scripts]``
    entry points, as an installer would.  The venv sees the system's
    site-packages for numpy and scipy.
    """
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no package source (pyproject.toml and src/) under {ROOT}")
    digest = source_digest()
    python = VENV / "bin" / "python"
    stamp = VENV / "source.sha256"
    if stamp.is_file() and stamp.read_text() == digest:
        return python
    shutil.rmtree(VENV, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages", "--without-pip",
                    str(VENV)], check=True)
    site = Path(subprocess.run(
        [str(python), "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        capture_output=True, text=True, check=True).stdout.strip())
    packages = sorted(p.parent for p in (ROOT / "src").glob("*/__init__.py"))
    if not packages:
        raise BenchError("no package under src/")
    for package in packages:
        shutil.copytree(package, site / package.name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        subprocess.run([str(python), "-m", "compileall", "-q", str(site / package.name)],
                       check=True, stdout=subprocess.DEVNULL)
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, func = target.split(":")
        script = VENV / "bin" / name
        script.write_text(f"#!{python}\nimport sys\nfrom {module} import {func}\n"
                          f"if __name__ == '__main__':\n    sys.exit({func}())\n")
        script.chmod(0o755)
    stamp.write_text(digest)
    return python


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run the installed copy, not a source tree
    cap = str(len(os.sched_getaffinity(0)))
    env.update({var: cap for var in BLAS_THREAD_VARS})
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONNOUSERSITE="1", TMPDIR=str(BUILD / "tmp"))
    return env


def run_child(python: Path, args: list[str], deadline: float) -> tuple[dict, float]:
    """Run workloads.py; return its JSON result and the monotonic time it was started."""
    started = time.monotonic()
    # Its own process group, so that a timeout also stops a CLI call it is waiting on.
    proc = subprocess.Popen([str(python), str(BENCH / "workloads.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1]), started


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "cpu_model": None, "caches": []}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            info["caches"].append("L{} {} {}".format(
                *((index / f).read_text().strip() for f in ("level", "type", "size"))))
        except OSError:
            pass
    return info


def git_sha() -> str | None:
    """HEAD of the repository this checkout is, or None outside one."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(python: Path, workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    base = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    setup, raw_setup = [], []
    args = [*base, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        for _ in range(0 if trace else SETUP_RUNS):
            probe, started = run_child(python, [*base, "--setup-only"], deadline)
            raw_setup.append(probe["ready"] - started - probe["probe_spent_s"])
            setup.append(raw_setup[-1] * REFERENCE_S / probe["probe_s"])
        result, _ = run_child(python, args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)  # left behind only by a killed process
    values = dict(result["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
        result["raw"]["raw_setup_s"] = statistics.median(raw_setup)
    metrics = {}
    for spec in metric_specs(trace):
        if spec["name"] not in values:
            raise BenchError(f"workload {workload} did not measure {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
        "aliases": result["aliases"], "raw": result.get("raw", {}), "gates": result["gates"],
        "failures": result["failures"],
        "samples": {**result["samples"], "setup_s": setup, "raw_setup_s": raw_setup},
        "metadata": {**machine(), "versions": result["versions"],
                     "blas_threads": len(os.sched_getaffinity(0)),
                     "git_sha": git_sha(), "source_sha256": source_digest(),
                     "import_s": result["import_s"], "time": time.time()},
    }


def report(record: dict) -> None:
    """Human-readable block; the machine-readable line follows it."""
    print(f"== {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}  correct {record['correct']}  "
          f"failed {record['failed']}/{record['attempted']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for name, value in record["raw"].items():
        print(f"  {name + ' (unscaled)':<46} {value:>14.6g}")
    for name, (value, unit, n) in record["aliases"].items():
        print(f"  [{record['workload']}] {name:<34} {value:>14.6g} {unit}  (n={n})")
    for g in record["gates"]:
        print(f"  gate {'PASS' if g['pass'] else 'FAIL'}: {g['gate']}: {g['detail']}")
    for failure in record["failures"]:
        print(f"  failure: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=BUILD / "results.jsonl",
                        help="JSON-lines file each run's full record is appended to")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        python = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            # "all" gives each workload its own time limit.
            limit = deadline if len(names) == 1 else time.monotonic() + TIME_LIMIT_S
            records.append(run_workload(python, name, args.seed, args.seconds, args.trace,
                                        limit))
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
