"""Fast checks of the benchmark itself (level-3 meshes only)."""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import re

import pytest

import freeze
import run
import spans
from hodgelab import cli
from hodgelab.mesh import TriangleMesh

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
L3 = run.Workload("sphere-l3-verify", "verify", "icosphere", 3)


@pytest.fixture(scope="module")
def l3_reference():
    return freeze.freeze(L3)


def _functions():
    modules = [importlib.import_module(f"hodgelab.{name}") for name in spans.LAYERS]
    return {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items()
            if inspect.isfunction(obj)}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert tuple(w["name"] for w in bench["workloads"]) == run.SUITE
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"] for m in bench["per_layer"]}
    produced = spans.layer_metrics([], 0, 0, 1.0)
    assert per_layer == set(produced) | {"trace.overhead_s"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    for workload in bench["workloads"]:
        assert NAME.fullmatch(workload["name"])
    references = json.loads(run.REFERENCES.read_text())
    assert set(references) == set(run.WORKLOADS)


def test_self_time_arithmetic():
    solve = spans.SOLVE
    trace = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["verify.run_suite", 1.0, 9.5, 0, None],
        [spans.SPLIT, 2.0, 9.0, 1, None],
        [solve, 2.5, 4.0, 2, {"n": 12, "m": 9, "tol": 1.0, "max_residual": 0.5}],
        [solve, 4.0, 7.0, 2, {"n": 20, "m": 9, "tol": 1.0, "max_residual": 0.8}],
        [solve, 7.0, 8.5, 2, {"n": 12, "m": 11, "tol": 1.0, "max_residual": 0.25}],
        ["mesh.build_surface", 9.6, 9.8, 0, None],
        ["mesh.build_icosphere", 9.65, 9.75, 6, None],
    ]
    assert spans.self_times(trace) == pytest.approx([1.3, 1.5, 1.0, 1.5, 3.0, 1.5, 0.1, 0.1])
    assert spans.outermost_total(trace, spans.MESH_BUILD) == (pytest.approx(0.2), 1)
    assert [site for site, _i in spans.solve_sites(trace)] == [
        "vertex_side", "face_side", "extension"]
    m = {name: value for name, (value, _unit) in
         spans.layer_metrics(trace, memo_hits=3, memo_attempts=4, wall_s=10.0).items()}
    assert m["spectral.solve_calls"] == 3
    assert m["spectral.solve_s"] == pytest.approx(6.0)
    assert m["spectral.extension_solve_s"] == pytest.approx(1.5)
    assert m["spectral.max_residual_over_tol"] == pytest.approx(0.8)
    assert m["verify.window_extensions"] == 1
    assert m["verify.hodge_split_self_s"] == pytest.approx(1.0)
    assert m["verify.run_suite_self_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(1.3)
    assert m["mesh.memo_hit_ratio"] == pytest.approx(0.75)
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_tracer_restores_every_wrapper(tmp_path):
    before = _functions()
    memoized = vars(TriangleMesh)["memoized"]
    with spans.Tracer() as tracer:
        assert _functions() != before
        rc = cli.main(["verify", "--level", "3", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert vars(TriangleMesh)["memoized"] is memoized
    with pytest.raises(RuntimeError), spans.Tracer():
        raise RuntimeError("boom")
    assert all(after[key] is before[key] for key in _functions())

    top = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in top] == ["cli.main"]
    wall = top[0][2] - top[0][1]
    m = {name: value for name, (value, _unit) in
         spans.layer_metrics(tracer.spans, tracer.memo_hits, tracer.memo_attempts,
                             wall).items()}
    assert m["spectral.solve_calls"] == 3
    assert m["verify.window_extensions"] == 0
    assert m["sphere_oracle.residual_calls"] == 7200
    assert m["fields.sampled_edges"] == 11 * 1920
    assert 0.0 < m["spectral.max_residual_over_tol"] <= 1.0
    assert 0.0 < m["mesh.memo_hit_ratio"] < 1.0


def test_probe_matches_reference_and_wrong_reference_fails(tmp_path, monkeypatch, l3_reference):
    monkeypatch.setattr(run, "OUT", tmp_path)
    good = run.run_probe(L3, l3_reference, 5, None, timeout=120)
    assert good["problems"] == []
    assert good["wall_s"] > 0 and good["setup_s"] > 0 and good["peak_rss_mb"] > 0
    report = tmp_path / f"{L3.name}.json"

    wrong = copy.deepcopy(l3_reference)
    wrong["oneform"][3] *= 1 + 1e-5
    assert run.check_output(L3, wrong, 0, report) == [
        f"oneform[3] = {json.loads(report.read_text())['spectra']['oneform']['eigenvalues'][3]!r}, "
        f"reference {wrong['oneform'][3]!r}"]
    wrong = copy.deepcopy(l3_reference)
    wrong["checks"]["oracle_exact"] = False
    assert len(run.check_output(L3, wrong, 0, report)) == 1
    assert run.check_output(L3, l3_reference, 2, report) == ["exit code 2"]


def test_wrong_reference_counts_in_failed(tmp_path, monkeypatch, capsys, l3_reference):
    wrong = copy.deepcopy(l3_reference)
    wrong["scalar"][5] *= 1 - 1e-5
    references = tmp_path / "references.json"
    references.write_text(json.dumps({L3.name: wrong}))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "REFERENCES", references)
    monkeypatch.setitem(run.WORKLOADS, L3.name, L3)
    assert run.main(["--workload", L3.name, "--seed", "1", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert f"{L3.name} failed_frac: 1/1 = 1" in lines
