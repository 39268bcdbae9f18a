"""Smoke runs of the scripts under ``scripts/``."""

import importlib.util
import math
from pathlib import Path

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
