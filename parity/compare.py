#!/usr/bin/env python3
"""Compare two parity digests field by field; exit 0 when they are equal.

    python3 parity/compare.py <a.json> <b.json>

Each BLAS run present in both files is compared with its namesake.  Two
fields are equal when their JSON texts are, so a float must match to the
bit.  For the first field that differs, the first differing entry is printed
with both values; then the largest relative difference |a - b| / max(|a|, |b|)
over every differing number, and the count of differing fields.
"""

from __future__ import annotations

import json
import sys


def leaves(value, path=()):
    """(index path, leaf) for every leaf of nested lists and dicts, in order."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, (*path, i))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, (*path, key))
    else:
        yield path, value


def number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def first_difference(a, b):
    """(index path, a leaf, b leaf) of the first leaf that differs, or of the shape."""
    a_leaves, b_leaves = list(leaves(a)), list(leaves(b))
    for (path, x), (other, y) in zip(a_leaves, b_leaves):
        if path != other or json.dumps(x) != json.dumps(y):
            return path, x, y
    return ("length",), len(a_leaves), len(b_leaves)


def relative_differences(a, b):
    a_leaves, b_leaves = list(leaves(a)), list(leaves(b))
    if len(a_leaves) != len(b_leaves):
        return
    for (_, x), (_, y) in zip(a_leaves, b_leaves):
        if number(x) and number(y) and x != y:
            scale = max(abs(x), abs(y))
            yield abs(x - y) / scale if scale else 0.0


def compare_run(name: str, a: dict, b: dict) -> int:
    """Print how run ``name`` differs between ``a`` and ``b``; the number of differing fields."""
    differing = [key for key in a if key not in b or json.dumps(a[key]) != json.dumps(b[key])]
    differing += [key for key in b if key not in a]
    if not differing:
        print(f"{name} BLAS: equal, {len(a)} fields")
        return 0
    key = differing[0]
    if key not in a or key not in b:
        print(f"{name} BLAS: first differing field {key}: only in "
              f"{'a' if key in a else 'b'}")
    else:
        path, x, y = first_difference(a[key], b[key])
        where = "".join(f"[{p!r}]" for p in path)
        print(f"{name} BLAS: first differing field {key}{where}:\n  a = {x!r}\n  b = {y!r}")
    largest, at = -1.0, None
    for key in differing:
        if key in a and key in b:
            for diff in relative_differences(a[key], b[key]):
                if diff > largest:
                    largest, at = diff, key
    if at is not None:
        print(f"{name} BLAS: largest relative difference {largest:.3g} in {at}")
    print(f"{name} BLAS: {len(differing)} of {len(set(a) | set(b))} fields differ")
    return len(differing)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 parity/compare.py <a.json> <b.json>", file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in args)
    names = [name for name in a["runs"] if name in b["runs"]]
    if not names:
        print("no BLAS run in common", file=sys.stderr)
        return 2
    differing = sum(compare_run(name, a["runs"][name], b["runs"][name]) for name in names)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
