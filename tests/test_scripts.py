"""Smoke runs of the scripts under ``scripts/``."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from hodgelab import verify
from hodgelab.config import RunConfig
from hodgelab.mesh import SurfaceSpec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_prints_one_row_per_level(monkeypatch, capsys):
    study = _load("convergence_study")
    monkeypatch.setattr(study, "LEVELS", (2, 3))
    study.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["level", "|mu1_hat", "-", "2|", "|mu2_hat", "-", "6|",
                              "yano(rotation)", "yano(quadratic)"]
    assert [int(row.split()[0]) for row in rows] == [2, 3]
    for row in rows:
        numbers = [float(tok) for tok in row.split()[1:]]
        assert len(numbers) == 4 and all(math.isfinite(x) for x in numbers)


GOLDEN = Path(__file__).resolve().parent / "data"
# the surface of each golden report; every run is seed 0 with the 11 built-in fields
GOLDEN_SURFACES = {
    "sphere_l3": SurfaceSpec(kind="icosphere", level=3, radius=1.0),
    "sphere_l4": SurfaceSpec(kind="icosphere", level=4, radius=1.0),
    "sphere_l3_r2": SurfaceSpec(kind="icosphere", level=3, radius=2.0),
    "spheroid_112_l4": SurfaceSpec(kind="spheroid", level=4, a=1.0, c=2.0),
    "spheroid_221_l4": SurfaceSpec(kind="spheroid", level=4, a=2.0, c=1.0),
    "spheroid_15_l3": SurfaceSpec(kind="spheroid", level=3, a=1.5, c=1.5),
}


def _golden(name):
    with open(GOLDEN / f"golden_{name}.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(GOLDEN_SURFACES))
def test_report_matches_its_golden(name):
    # the report as the CLI writes it (JSON types), compared by the same
    # function as `compare_reports.py A.json B.json`
    report = json.loads(json.dumps(verify.run_suite(RunConfig(surface=GOLDEN_SURFACES[name])),
                                   default=float))
    assert _load("compare_reports").compare(_golden(name), report) == []


def test_compare_reports_names_each_differing_key(capsys, tmp_path):
    compare_reports = _load("compare_reports")
    golden = _golden("sphere_l3")
    changed = copy.deepcopy(golden)
    changed["checks"]["multiplicity"] = False
    changed["spectra"]["scalar"]["eigenvalues"][1] *= 1 + 2e-6
    changed["spectra"]["oneform"]["eigenvalues"][1] *= 1 + 2e-7  # within SOLVER_TOL
    changed["spectra"]["oneform"]["max_residual"] = 2e-6
    changed["fields"][0]["lambda"] += 1e-9
    changed["oracle"][0]["r"] = 2.0
    del changed["fields"][1]["class"]
    changed["run"] = {"elapsed_s": 1.0}  # never compared
    paths = []
    for i, report in enumerate((golden, changed)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(report))
    assert compare_reports.main([str(p) for p in paths]) == 1
    named = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert named == ["checks.multiplicity", "fields[0].lambda", "fields[1].class",
                     "oracle[0].r", "spectra.oneform.max_residual",
                     "spectra.scalar.eigenvalues[1]"]
    assert compare_reports.main([str(paths[0]), str(paths[0])]) == 0
