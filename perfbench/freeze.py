"""Regenerate references.json, the benchmark's correctness references.

    python3 perfbench/freeze.py [WORKLOAD ...]     (default: every workload)

Reference eigenvalues come from ARPACK (``scipy.sparse.linalg.eigsh``) in
shift-invert mode, a code path independent of hodgelab's LOBPCG: the 16
lowest eigenvalues of the vertex pencil (A0, B0) and, for ``verify``
workloads, of the one-form pencil (A1, B1). The expected mandatory-check
outcomes of a ``verify`` workload are those of one run at seed 0. Entries of
workloads not named are kept.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from run import REFERENCES, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from scipy.sparse.linalg import eigsh  # noqa: E402

from hodgelab import cli, exterior, mesh  # noqa: E402

COUNT = 16
SHIFT = -0.1  # below the spectrum, so A - SHIFT*B is definite


def lowest(pencil, count=COUNT) -> list:
    A, B = pencil
    values = eigsh(A.matrix, k=count, M=B.matrix, sigma=SHIFT, which="LM",
                   return_eigenvectors=False)
    return sorted(float(v) for v in values)


def freeze(workload) -> dict:
    built = mesh.build_surface(mesh.SurfaceSpec(**workload.surface()))
    t0 = time.perf_counter()
    entry = {"scalar": lowest(exterior.laplacian0(built))}
    if workload.command == "verify":
        entry["oneform"] = lowest(exterior.laplacian1(built))
    print(f"{workload.name}: eigsh {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if workload.command == "verify":
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            cli.main(workload.cli_args(0, out))
            entry["checks"] = json.loads(out.read_text())["checks"]
    return entry


def main(names) -> int:
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names or WORKLOADS:
        references[name] = freeze(WORKLOADS[name])
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
