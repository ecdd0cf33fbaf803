#!/usr/bin/env python3
"""Digest every output of one source tree, for a parity check against another.

    python3 parity/run.py <tree> --out <json>
    python3 parity/compare.py <a.json> <b.json>

``<tree>`` is a checkout whose package is in ``<tree>/src``, such as a
parent commit unpacked with ``git archive <rev> | tar -x -C <dir>``.  The
digest (``digest.py``) runs in a fresh interpreter with ``PYTHONPATH=<tree>/src``,
once with the default BLAS thread count and once with
``OPENBLAS_NUM_THREADS=1``.  The output holds each run's fields under ``runs``
beside the versions, the platform and each run's wall time.  Stdlib and numpy
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETTINGS = {"default": {}, "single": {"OPENBLAS_NUM_THREADS": "1"}}


def digest_run(tree: Path, blas: str) -> tuple[dict, float]:
    """One digest of ``tree`` in a fresh interpreter, and its wall time in s."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(SETTINGS[blas], PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "digest.py"), str(tree)], env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"digest of {tree} ({blas} BLAS) failed:\n{done.stderr}")
    return json.loads(done.stdout), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree with the package in src/")
    parser.add_argument("--out", type=Path, required=True, help="digest JSON to write")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "miezesim").is_dir():
        parser.error(f"{tree} has no src/miezesim")
    import numpy

    record = {"tree": str(tree), "python": platform.python_version(),
              "numpy": numpy.__version__, "platform": platform.platform(),
              "cpus": os.cpu_count(), "seconds": {}, "runs": {}}
    for blas in SETTINGS:
        record["runs"][blas], record["seconds"][blas] = digest_run(tree, blas)
        print(f"{tree} ({blas} BLAS): {len(record['runs'][blas])} fields in "
              f"{record['seconds'][blas]:.1f} s", file=sys.stderr)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
