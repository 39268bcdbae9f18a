#!/usr/bin/env python3
"""Compare two ``hodgelab verify`` JSON reports under the rule that every
refactor must keep: the same report.

    python scripts/compare_reports.py A.json B.json

The rule, key by key (list indices written ``[]``):

- ``checks``, ``pass``, ``failures`` and ``notes`` are equal, and so is
  every other string, boolean and integer: group multiplicities, each
  field's ``class`` and ``attainment``, and each oracle record's ``check``,
  ``n``, ``r``, ``degree``, ``expect`` and ``pass`` among them;
- eigenvalues agree to ``SOLVER_TOL`` relative to ``max(|lambda|, 1e-3)``;
- every ``max_residual`` is at most ``SOLVER_TOL`` in both reports;
- every other number agrees within the tolerance written next to its key in
  ``TOLERANCES``. Each was set from reports at one and at two BLAS threads
  (seed 0: the six configurations of the golden reports in ``tests/data``,
  the default run and the level-5 (1,1,2) spheroid), with a margin of at
  least 100 over the largest difference measured, which is quoted beside it.

The ``run`` block (wall times, per-solve records, library versions) says how
a run went, not what it found, and is not compared. Both reports must have
the same keys and list lengths. Every differing key is printed with both
values; the exit code is 1 when any key differs, else 0.
"""

from __future__ import annotations

import json
import re
import sys

from hodgelab.verify import SOLVER_TOL

EIGENVALUE_FLOOR = 1e-3
EIGENVALUES = ("spectra.*.eigenvalues[]", "spectra.*.groups[].eigenvalue",
               "multiplicity[].eigenvalue")
RESIDUALS = ("spectra.*.max_residual",)
# key: (rtol, atol), then the largest difference measured between one and
# two BLAS threads
TOLERANCES = {
    "curvature.*": (1e-12, 1e-12),  # 0
    "spectra.*.next_estimate": (1e-9, 0.0),  # 5.9e-15 relative
    "fields[].lambda": (1e-12, 1e-12),  # 1.2e-15 relative
    "fields[].dstar_norm": (1e-12, 1e-12),  # 5.4e-16 relative
    "fields[].d_norm": (1e-12, 1e-12),  # 3.1e-16 relative
    # an alignment against the computed eigenbasis, so only as close as the
    # eigenvectors of two solves: 2.4e-5 relative, 4.1e-9 absolute
    "fields[].eigenform_residual": (1e-3, 1e-7),
    "fields[].bounds.*": (1e-12, 1e-12),  # 0
    "fields[].identities.*": (1e-9, 1e-13),  # 1.5e-11 relative, 8.9e-16 absolute
    "oracle[].residual": (1e-12, 1e-13),  # 0
}


def _leaves(value, path=""):
    """(path, value) of every leaf below ``value``; a leaf of None or an empty
    container is kept, so that a changed structure shows."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _pattern_of(path: str) -> str:
    return re.sub(r"\[\d+\]", "[]", path)


def _matches(pattern: str, keys) -> bool:
    """Whether ``pattern`` is one of ``keys``, where ``*`` stands for one key."""
    return any(re.fullmatch(re.escape(key).replace(r"\*", "[^.]+"), pattern)
               for key in keys)


def _number(value) -> bool:
    return isinstance(value, float)


def _leaf_difference(path: str, a, b) -> str | None:
    """Why the leaf values ``a`` and ``b`` at ``path`` differ, or None."""
    pattern = _pattern_of(path)
    if _matches(pattern, RESIDUALS) and _number(a) and _number(b):
        if a <= SOLVER_TOL and b <= SOLVER_TOL:
            return None
        return f"{a!r} vs {b!r} (both must be <= SOLVER_TOL {SOLVER_TOL:g})"
    if _matches(pattern, EIGENVALUES) and _number(a) and _number(b):
        if abs(a - b) <= SOLVER_TOL * max(abs(a), EIGENVALUE_FLOOR):
            return None
        return (f"{a!r} vs {b!r} (eigenvalues agree to SOLVER_TOL relative "
                f"to max(|lambda|, {EIGENVALUE_FLOOR:g}))")
    keys = [key for key in TOLERANCES if _matches(pattern, (key,))]
    if keys and _number(a) and _number(b):
        rtol, atol = TOLERANCES[keys[0]]
        if abs(a - b) <= atol + rtol * abs(a):
            return None
        return f"{a!r} vs {b!r} (rtol {rtol:g}, atol {atol:g})"
    if type(a) is type(b) and a == b:
        return None
    return f"{a!r} vs {b!r} (must be equal)"


def compare(a: dict, b: dict) -> list:
    """One line per key where report ``b`` differs from report ``a``."""
    a = {key: value for key, value in a.items() if key != "run"}
    b = {key: value for key, value in b.items() if key != "run"}
    left, right = dict(_leaves(a)), dict(_leaves(b))
    lines = [f"{path}: only in the first report" for path in left if path not in right]
    lines += [f"{path}: only in the second report" for path in right if path not in left]
    for path in left.keys() & right.keys():
        why = _leaf_difference(path, left[path], right[path])
        if why is not None:
            lines.append(f"{path}: {why}")
    return sorted(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        with open(name) as fh:
            reports.append(json.load(fh))
    lines = compare(*reports)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing keys" if lines else "reports match")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
