import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

CLI = [sys.executable, "-m", "hodgelab.cli"]
# pytest's `pythonpath` setting reaches this process only, not the children
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HODGELAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def test_help_exits_zero():
    for args in ([], ["mesh"], ["spectrum"], ["verify"], ["converge"]):
        proc = run_cli(*args, "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()


def test_mesh_counts_and_off(tmp_path):
    out = tmp_path / "m.off"
    proc = run_cli("mesh", "--kind", "icosphere", "--level", "2",
                   "--radius", "1", "--out", str(out))
    assert proc.returncode == 0
    assert "V=162 E=480 F=320" in proc.stdout
    assert out.read_bytes().startswith(b"OFF\n162 320 0\n")


def test_mesh_missing_level_usage_error():
    proc = run_cli("mesh", "--kind", "icosphere")
    assert proc.returncode == 1


def test_mesh_level_guard():
    proc = run_cli("mesh", "--kind", "icosphere", "--level", "9")
    assert proc.returncode == 1
    assert "exceeds guard" in proc.stderr


def test_mesh_spheroid_requires_axes():
    proc = run_cli("mesh", "--kind", "spheroid", "--level", "1")
    assert proc.returncode == 1
    proc = run_cli("mesh", "--kind", "spheroid", "--level", "1", "--a", "nan", "--c", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: spheroid needs finite semi-axes a, c > 0\n"
    # a flag that does not apply to the kind is rejected, not ignored
    for argv, message in (
        (["--level", "1", "--a", "0", "--c", "-3"], "icosphere takes a radius, not semi-axes a, c"),
        (["--kind", "spheroid", "--level", "1", "--a", "1", "--c", "2", "--radius", "1"],
         "spheroid takes semi-axes a, c, not a radius"),
    ):
        proc = run_cli("mesh", *argv)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    proc = run_cli("spectrum", "--kind", "icosphere", "--level", "4",
                   "--form", "0", "--count", "9", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,residual,group"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    targets = [0, 2, 2, 2, 6, 6, 6, 6, 6]
    assert len(values) == 9
    for got, want in zip(values, targets):
        assert abs(got - want) <= 0.01 * max(want, 1.0)
    groups = [int(line.split(",")[3]) for line in lines[1:]]
    assert groups == [0, 1, 1, 1, 2, 2, 2, 2, 2]


def test_spectrum_oneform_groups(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_cli("spectrum", "--kind", "icosphere", "--level", "3",
                   "--form", "1", "--count", "16", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()[1:]
    groups = [int(line.split(",")[3]) for line in lines]
    assert groups.count(0) == 6
    assert groups.count(1) == 10


def test_spectrum_oneform_matches_verify(tmp_path, monkeypatch):
    # both start the Hodge split from the same scalar spectrum
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    csv, report = tmp_path / "one.csv", tmp_path / "report.json"
    assert cli.main(["spectrum", "--level", "3", "--form", "1", "--count", "16",
                     "--seed", "0", "--out", str(csv)]) == 0
    assert cli.main(["verify", "--level", "3", "--seed", "0", "--out", str(report)]) == 0
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    oneform = json.loads(report.read_text())["spectra"]["oneform"]
    assert [row[1] for row in rows] == [f"{ev:.12g}" for ev in oneform["eigenvalues"]]
    assert max(float(row[2]) for row in rows) == float(f"{oneform['max_residual']:.3g}")


def test_spectrum_oneform_small_count_matches_dense(tmp_path, monkeypatch, capsys):
    # --count 2 solves max(count, 4) = 4 scalar pairs before the split
    from hodgelab import cli, exterior, mesh, spectral

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    csv = tmp_path / "one.csv"
    assert cli.main(["spectrum", "--level", "1", "--form", "1", "--count", "2",
                     "--seed", "0", "--out", str(csv)]) == 0
    values = [float(line.split(",")[1]) for line in csv.read_text().strip().splitlines()[1:]]
    reference = spectral.dense_reference(*exterior.laplacian1(mesh.build_icosphere(1, 1.0)), 2)
    np.testing.assert_allclose(values, reference, rtol=1e-9)
    # no count at all is a usage error, raised before any solve
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--level", "1", "--form", "1", "--count", "0"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --count: expected an integer > 0, got '0'\n")


@pytest.mark.parametrize("command", [["spectrum", "--level", "1"],
                                     ["spectrum", "--level", "1", "--form", "1"],
                                     ["converge", "--levels", "1,2"]])
@pytest.mark.parametrize("count", ["0", "-1", "-2", "2.5", "x"])
def test_count_must_be_a_positive_integer(command, count, tmp_path, monkeypatch, capsys):
    # rejected at parsing: one error line, no mesh built, --out left intact
    from hodgelab import cli

    def no_build(surface):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(cli.mesh_mod, "build_surface", no_build)
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--count", count, "--out", str(out)])
    assert exc.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [f"error: argument --count: expected an integer > 0, got {count!r}"]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command, count, message", [
    (["spectrum", "--level", "1"], 43, "the 42 vertices of a level-1 mesh"),
    (["spectrum", "--level", "1", "--form", "1"], 121, "the 120 edges of a level-1 mesh"),
    (["spectrum", "--kind", "spheroid", "--a", "1", "--c", "2", "--level", "0", "--form", "1"],
     31, "the 30 edges of a level-0 mesh"),
    (["converge", "--levels", "2,1"], 43, "the 42 vertices of a level-1 mesh"),
    (["converge", "--levels", "1,2", "--form", "1"], 121, "the 120 edges of a level-1 mesh"),
])
def test_count_must_fit_the_pencil(command, count, message, tmp_path, monkeypatch, capsys):
    # the pencil's size follows from the level alone: rejected with one error
    # line, before any mesh is built, with --out left intact
    from hodgelab import cli

    def no_build(surface):
        raise AssertionError("a mesh was built")

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    monkeypatch.setattr(cli.mesh_mod, "build_surface", no_build)
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    assert cli.main(command + ["--count", str(count), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --count {count} exceeds {message}\n"
    assert captured.out == ""
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("form, count", [(0, 42), (1, 120)])
def test_count_equal_to_the_pencil_size_runs(form, count, tmp_path, monkeypatch):
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--level", "1", "--form", str(form),
                     "--count", str(count), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == count + 1


@pytest.mark.parametrize("level", [2, 3])
def test_spectrum_oneform_count_one_matches_dense(level, tmp_path, monkeypatch):
    # with one requested pair the face side still solves one nonkernel pair,
    # so its window is not missing from the merge
    from hodgelab import cli, exterior, mesh, spectral

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    csv = tmp_path / "one.csv"
    assert cli.main(["spectrum", "--kind", "spheroid", "--level", str(level), "--a", "1",
                     "--c", "2", "--form", "1", "--count", "1", "--seed", "0",
                     "--out", str(csv)]) == 0
    values = [float(line.split(",")[1]) for line in csv.read_text().strip().splitlines()[1:]]
    pencil = exterior.laplacian1(mesh.build_spheroid(level, 1.0, 2.0))
    np.testing.assert_allclose(values, spectral.dense_reference(*pencil, 1), rtol=1e-9)


@pytest.mark.parametrize("surface", [("sphere", 0), ("sphere", 1), ("sphere", 2),
                                     ("spheroid", 1, 1.0, 2.0), ("spheroid", 2, 1.0, 2.0),
                                     ("spheroid", 2, 2.0, 1.0)])
def test_spectrum_oneform_every_count_matches_dense(surface, sphere_mesh, spheroid_mesh):
    # spectrum --form 1 solves max(count, 4) scalar pairs, then the split; on
    # small meshes the lowest pairs of a count can all be exact
    from argparse import Namespace

    from hodgelab import cli, exterior, spectral

    kind, *shape = surface
    built = sphere_mesh(*shape) if kind == "sphere" else spheroid_mesh(*shape)
    reference = spectral.dense_reference(*exterior.laplacian1(built), 24)
    for count in range(1, 25):
        result = cli._lowest_eigenpairs(built, Namespace(form=1, count=count, tol=1e-6), 0)
        np.testing.assert_allclose(result.eigenvalues, reference[:count], rtol=1e-9,
                                   err_msg=f"count {count}")


def test_spectrum_invalid_form():
    proc = run_cli("spectrum", "--kind", "icosphere", "--level", "1",
                   "--form", "3")
    assert proc.returncode == 1
    proc = run_cli("spectrum", "--kind", "icosphere", "--level", "1", "--tol", "nan")
    assert proc.returncode == 1
    assert "error: argument --tol: expected a finite number > 0" in proc.stderr


def test_spectrum_seed_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        proc = run_cli("spectrum", "--kind", "icosphere", "--level", "2",
                       "--form", "0", "--count", "6", "--out", str(out),
                       env_extra={"HODGELAB_SEED": "7"})
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, loaded", [
    (["spectrum", "--level", "2", "--form", "0"], False),
    (["verify", "--level", "3"], True),
])
def test_sparse_lu_stack_loads_at_the_first_lu(command, loaded, tmp_path):
    # a scalar run preconditions every solve with the V-cycle, whose coarse
    # solve is numpy's, and imports neither scipy.sparse.linalg nor
    # scipy.linalg; verify factors the face pencil, which loads both
    out = tmp_path / "out"
    script = ("import sys\nfrom hodgelab import cli\n"
              f"code = cli.main({command + ['--out', str(out)]!r})\n"
              "print(code, 'scipy.sparse.linalg' in sys.modules, "
              "'scipy.linalg' in sys.modules)")
    env = dict(os.environ)
    env.pop("HODGELAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded} {loaded}"


def test_verify_level3_pass(tmp_path):
    report_path = tmp_path / "report.json"
    proc = run_cli("verify", "--level", "3", "--out", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert "INCONSISTENT" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert set(report["spectra"]) == {"scalar", "oneform"}


def test_verbose_logs_progress_to_stderr_only(tmp_path, monkeypatch, capsys):
    # --verbose adds log lines on stderr: one per stage and one per coarse
    # level of the scalar solve's nested start; stdout and --out files are
    # those of a quiet run
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    outputs = {}
    out = tmp_path / "s.csv"
    for flags in ([], ["--verbose"]):
        assert cli.main(["spectrum", "--level", "3", "--count", "6", "--out", str(out),
                         *flags]) == 0
        spectrum = capsys.readouterr()
        assert cli.main(["verify", "--level", "3", *flags]) == 0
        verify = capsys.readouterr()
        outputs[bool(flags)] = (spectrum, verify, out.read_bytes())
    (q_spectrum, q_verify, q_csv), (v_spectrum, v_verify, v_csv) = outputs[False], outputs[True]
    assert q_spectrum.err == q_verify.err == ""
    assert (v_spectrum.out, v_verify.out, v_csv) == (q_spectrum.out, q_verify.out, q_csv)
    # the 11-column block of 6 pairs fits on levels 0 to 2 of the level-3 mesh
    lines = v_spectrum.err.splitlines()
    assert len(lines) == 3
    for line, n in zip(lines, (12, 42, 162)):
        assert line.startswith(f"hodgelab.spectral: nested start: {n} vertices, ")
    stages = [line for line in v_verify.err.splitlines() if "stage " in line]
    assert stages[0].startswith("hodgelab.verify: stage mesh: ")
    assert stages[-1].startswith("hodgelab.verify: stage multiplicity: ")
    assert any("stage scalar spectrum: " in line for line in stages)
    assert sum("nested start: " in line for line in v_verify.err.splitlines()) == 2


def test_verbose_verify_logs_one_stage_summary(tmp_path, monkeypatch, capsys):
    # --verbose ends with one line of every stage's seconds and peak RSS,
    # read from the report's run block, the eleven field stages summed into
    # one entry; a quiet run logs nothing
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "3", "--verbose", "--out", str(out)]) == 0
    summaries = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("hodgelab.cli: stages: ")]
    run = json.loads(out.read_text())["run"]
    fields = [label for label in run["stages"] if label.startswith("field ")]
    assert len(fields) == 11
    entries = [(label, run["stages"][label], run["peak_rss_mb"][label])
               for label in ("mesh", "curvature", "scalar spectrum", "one-form spectrum")]
    entries.append(("fields", sum(run["stages"][label] for label in fields),
                    run["peak_rss_mb"][fields[-1]]))
    entries += [(label, run["stages"][label], run["peak_rss_mb"][label])
                for label in ("oracle", "multiplicity")]
    assert summaries == ["hodgelab.cli: stages: " + ", ".join(
        f"{label} {seconds:.3f} s {rss:.1f} MB" for label, seconds, rss in entries)]
    assert cli.main(["verify", "--level", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_config_file_and_override(tmp_path):
    cfg = {
        "surface": {"kind": "icosphere", "level": 2, "radius": 1.0},
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("verify", "--config", str(path), "--level", "3",
                   "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["mesh"]["level"] == 3


def test_verify_malformed_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("verify", "--config", str(path))
    assert proc.returncode == 1


def test_verify_invalid_config_values(tmp_path, monkeypatch, capsys):
    # the first case runs the module entry point in its own process; the
    # tables run through cli.main in this one
    from hodgelab import cli

    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"surface": {"kind": "torus", "level": 1}}))
    proc = run_cli("verify", "--config", str(path))
    assert proc.returncode == 1
    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    # json writes NaN and Infinity literals, which json.load accepts
    sphere = {"kind": "icosphere", "level": 1, "radius": 1.0}
    for cfg, message in (
        # the eigenpair count and every tolerance are frozen, not config values
        ({"surface": sphere, "tolerances": {"solver_tol": float("nan")}},
         "unknown config key 'tolerances'"),
        ({"surface": sphere, "eigenpairs": 16}, "unknown config key 'eigenpairs'"),
        ({"surface": {**sphere, "radius": float("inf")}},
         "icosphere needs a finite radius > 0"),
        ({"surface": sphere, "eigenpair": 4}, "unknown config key 'eigenpair'"),
        ({"surface": sphere, "levels": [3, 4]}, "unknown config key 'levels'"),
        ({"surface": {**sphere, "radius ": 2.0}}, "unknown surface key 'radius '"),
        ({"surface": {"kind": "spheroid", "level": 1, "a": 1.0, "c": 2.0, "radius": 1.0}},
         "spheroid takes semi-axes a, c, not a radius"),
        # the field roster is built at load, not mid-run
        ({"surface": sphere, "fields": [{"name": "bad", "kind": "killing_rotation",
                                         "axis": [0, 0, 0]}]},
         "field bad: rotation axis must be nonzero"),
        ({"surface": sphere, "fields": [{"name": "bad", "kind": "twist"}]},
         "field bad: unknown field kind 'twist'"),
        ({"surface": sphere, "fields": [{"name": "q", "kind": "projective_gradient"}]},
         "field q: missing parameter 'Q'"),
        ({"surface": sphere, "fields": [{"name": "nanaxis", "kind": "killing_rotation",
                                         "axis": [float("nan"), 0, 0]}]},
         "field nanaxis: rotation axis must be finite"),
        ({"surface": sphere, "fields": [{"name": "infdir", "kind": "conformal_gradient",
                                         "direction": [0, float("inf"), 0]}]},
         "field infdir: gradient direction must be finite"),
        ({"surface": sphere, "fields": [{"name": "nanq", "kind": "projective_gradient",
                                         "Q": [[float("nan"), 0, 0], [0, 0, 0], [0, 0, 0]]}]},
         "field nanq: quadratic coefficients must be finite"),
        ({"surface": sphere, "fields": [{"name": "short", "kind": "killing_rotation",
                                         "axis": [1, 0]}]},
         "field short: rotation axis must be a 3-vector"),
        ({"surface": sphere, "fields": [{"name": "long", "kind": "conformal_gradient",
                                         "direction": [1, 0, 0, 0]}]},
         "field long: gradient direction must be a 3-vector"),
        ({"surface": sphere, "fields": [{"name": "huge", "kind": "conformal_gradient",
                                         "direction": [1e300, 1e300, 0]}]},
         "field huge: gradient direction must have a finite norm"),
        # grouping uses one fixed relative gap; the old knob is not accepted
        ({"surface": sphere, "tolerances": {"group_rel_gap": 0.5}},
         "unknown config key 'tolerances'"),
        # a level or seed is a JSON integer and a size a number: none is
        # truncated or coerced, and a missing key is named
        ({"surface": {**sphere, "level": 2.7}}, "surface level must be an integer, got 2.7"),
        ({"surface": sphere, "seed": 2.9}, "seed must be an integer, got 2.9"),
        ({"surface": {**sphere, "level": "2"}}, 'surface level must be an integer, got "2"'),
        ({"surface": sphere, "seed": "3"}, 'seed must be an integer, got "3"'),
        ({"surface": {**sphere, "level": True}}, "surface level must be an integer, got true"),
        ({"surface": sphere, "seed": False}, "seed must be an integer, got false"),
        ({"surface": {**sphere, "radius": "1"}}, 'surface radius must be a number, got "1"'),
        ({"surface": {"kind": "spheroid", "level": 1, "a": True, "c": 2.0}},
         "surface a must be a number, got true"),
        ({"seed": 0}, "missing config key 'surface'"),
        ({"surface": {"kind": "icosphere", "radius": 1.0}}, "missing surface key 'level'"),
        ({"surface": {"level": 1, "radius": 1.0}}, "missing surface key 'kind'"),
        ({"surface": sphere, "fields": [{"name": "anon", "axis": [1, 0, 0]}]},
         "missing field key 'kind'"),
        ({"surface": sphere, "fields": [{"name": 5, "kind": "killing_rotation",
                                         "axis": [0, 0, 1]}]},
         "field name must be a string, got 5"),
        # an integer path would be opened as a file descriptor (1 is stdout)
        ({"surface": sphere, "report_path": 1}, "report_path must be a string, got 1"),
    ):
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # a flag value of 0 is rejected, not replaced by the config's value
    spheroid = ["--kind", "spheroid", "--level", "1"]
    for argv, message in (
        (["--level", "1", "--radius", "nan"], "icosphere needs a finite radius > 0"),
        (["--radius", "0"], "icosphere needs a finite radius > 0"),
        ([*spheroid, "--a", "0", "--c", "2"], "spheroid needs finite semi-axes a, c > 0"),
        ([*spheroid, "--a", "1", "--c", "0"], "spheroid needs finite semi-axes a, c > 0"),
        (["--level", "1", "--a", "0"], "icosphere takes a radius, not semi-axes a, c"),
        ([*spheroid, "--a", "1", "--c", "2", "--radius", "1"],
         "spheroid takes semi-axes a, c, not a radius"),
    ):
        assert cli.main(["verify", *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


SPHERE = {"kind": "icosphere", "level": 1, "radius": 1.0}


@pytest.mark.parametrize("cfg, message", [
    ([SPHERE], 'config must be an object, got [{"kind": "icosphere", "level": 1, '
               '"radius": 1.0}]'),
    ({"surface": "icosphere"}, 'surface must be an object, got "icosphere"'),
    ({"surface": SPHERE, "fields": 5}, "fields must be a list, got 5"),
    # an empty object is not an empty roster
    ({"surface": SPHERE, "fields": {}}, "fields must be a list, got {}"),
    ({"surface": SPHERE, "fields": [5]}, "each field must be an object, got 5"),
    ({"surface": SPHERE, "fields": [{"name": "r", "kind": "killing_rotation",
                                     "axis": [0, 0, 1], "direction": [1, 0, 0]}]},
     "field r: unknown killing_rotation parameter 'direction' (it takes 'axis')"),
])
def test_config_entry_of_the_wrong_type_is_named(cfg, message, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("verify", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("source, message", [
    ("--radius 1e-200", "icosphere radius 1e-200"),
    ("--radius 1e200", "icosphere radius 1e+200"),
    ('{"kind": "icosphere", "level": 3, "radius": 1e-20}', "icosphere radius 1e-20"),
    ('{"kind": "spheroid", "level": 3, "a": 1.0, "c": 1e19}', "spheroid c 1e+19"),
])
def test_surface_size_whose_square_leaves_float32_is_rejected(source, message, tmp_path):
    # rejected when the surface is described, before any mesh is built or
    # the report file is opened
    out = tmp_path / "report.json"
    if source.startswith("--"):
        argv = ["--level", "3", *source.split()]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"surface": {source}}}')
        argv = ["--config", str(path)]
    proc = run_cli("verify", *argv, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {message} is outside [1.08e-19, 9.22e+18], where its "
                           "square and inverse square are normal float32 values\n")
    assert not out.exists()


def test_converge_monotone(tmp_path):
    out = tmp_path / "conv.csv"
    proc = run_cli("converge", "--levels", "2,3,4", "--form", "0",
                   "--count", "9", "--target", "2.0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,target,lambda_hat,abs_error"
    errors = [float(line.split(",")[3]) for line in lines[1:]]
    assert errors[0] > errors[1] > errors[2]


def test_converge_reorders_levels(tmp_path):
    proc = run_cli("converge", "--levels", "3,2", "--form", "0",
                   "--count", "9", "--target", "2.0")
    assert proc.returncode == 0
    assert "reordered" in proc.stdout


def test_converge_single_level_usage_error():
    proc = run_cli("converge", "--levels", "3")
    assert proc.returncode == 1


def test_converge_bad_levels_usage_error(monkeypatch, capsys):
    proc = run_cli("converge", "--levels", "a,b")
    assert proc.returncode == 1
    proc = run_cli("converge", "--levels", "1,2", "--radius", "inf")
    assert proc.returncode == 1
    assert proc.stderr == "error: icosphere needs a finite radius > 0\n"
    proc = run_cli("converge", "--kind", "spheroid", "--levels", "1,2", "--a", "1",
                   "--c", "2", "--radius", "-5")
    assert proc.returncode == 1
    assert proc.stderr == "error: spheroid takes semi-axes a, c, not a radius\n"
    # rejected while parsing, before any mesh is built
    from hodgelab import cli, mesh

    def never(*args, **kwargs):
        raise AssertionError("converge built a mesh from invalid input")

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    monkeypatch.setattr(mesh, "build_surface", never)
    converge = ["converge", "--levels", "1,2"]
    for argv, message in [
        (["converge", "--levels", "2,2"], "argument --levels: repeated level in '2,2'"),
        ([*converge, "--target", "nan"],
         "argument --target: expected a finite number, got 'nan'"),
        ([*converge, "--target", "inf"],
         "argument --target: expected a finite number, got 'inf'"),
        # not a number at all: the message, not the parsing helper's name
        ([*converge, "--target", "x"],
         "argument --target: expected a finite number, got 'x'"),
        (["spectrum", "--level", "1", "--tol", "x"],
         "argument --tol: expected a finite number > 0, got 'x'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("env, argv, message", [
    ("abc", ["spectrum", "--level", "1", "--seed", "3"],
     "HODGELAB_SEED must be a non-negative integer, got 'abc'"),
    ("-1", ["verify", "--level", "1"],
     "HODGELAB_SEED must be a non-negative integer, got '-1'"),
    ("1.5", ["converge", "--levels", "1,2"],
     "HODGELAB_SEED must be a non-negative integer, got '1.5'"),
    (None, ["spectrum", "--level", "1", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
])
def test_bad_hodgelab_seed_is_a_usage_error(env, argv, message, monkeypatch, capsys):
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("HODGELAB_SEED", env)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_hodgelab_seed_takes_precedence(monkeypatch):
    from hodgelab import cli

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    assert cli._seed(None, 4) == 4
    assert cli._seed(3, 4) == 3
    monkeypatch.setenv("HODGELAB_SEED", "7")
    assert cli._seed(3, 4) == 7


@pytest.mark.parametrize("argv, name", [
    (["mesh", "--level", "1"], "m.off"),
    (["spectrum", "--level", "2", "--count", "4"], "s.csv"),
    (["verify", "--level", "1"], "r.json"),
    (["converge", "--levels", "1,2", "--count", "4"], "c.csv"),
])
def test_unwritable_output_is_a_usage_error(argv, name, tmp_path, monkeypatch, capsys):
    from hodgelab import cli, mesh, spectral, verify

    def never(*args, **kwargs):
        raise AssertionError("a command built or solved before opening its output")

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    for module, attr in [(verify, "run_suite"), (mesh, "build_surface"),
                         (spectral, "solve_lowest"), (verify, "solve_lowest")]:
        monkeypatch.setattr(module, attr, never)
    out = tmp_path / "missing" / name
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--level", "1", "--eigenpairs", "16"],
    ["converge", "--levels", "1,2", "--slack", "0.5"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    from hodgelab import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error: unrecognized arguments: " in capsys.readouterr().err


def test_readme_examples_parse():
    """Every command in README's "Command line" block parses with today's flags."""
    from hodgelab import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("hodgelab ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_runconfig_roundtrip():
    from hodgelab.config import RunConfig, default_config

    data = {"surface": {"kind": "icosphere", "level": 5, "radius": 1.0},
            "seed": 0, "report_path": None}
    assert RunConfig.from_json_dict(data) == default_config()
    back = RunConfig.from_json_dict({**data, "fields": []})
    assert back.fields == () and back.surface == default_config().surface


@given(kind=st.sampled_from(["icosphere", "spheroid"]), level=st.integers(0, 8),
       size=st.floats(0.1, 10.0), seed=st.integers(0, 2**32),
       n_fields=st.integers(0, 11),
       report_path=st.one_of(st.none(), st.text(max_size=8)))
@settings(max_examples=50, deadline=None)
def test_runconfig_json_roundtrip_property(kind, level, size, seed, n_fields,
                                           report_path):
    from hodgelab.config import RunConfig, builtin_fields
    from hodgelab.mesh import SurfaceSpec

    surface = (SurfaceSpec(kind, level, radius=size) if kind == "icosphere"
               else SurfaceSpec(kind, level, a=size, c=2.0))
    fields = builtin_fields()[:n_fields]
    expected = RunConfig(surface=surface, fields=fields, seed=seed,
                         report_path=report_path)
    surf = ({"kind": kind, "level": level, "radius": size} if kind == "icosphere"
            else {"kind": kind, "level": level, "a": size, "c": 2.0})
    data = {"surface": surf,
            "fields": [{"name": f.name, "kind": f.kind, **f.parameters} for f in fields],
            "seed": seed, "report_path": report_path}
    # every key of a written config survives a JSON text round trip
    assert RunConfig.from_json_dict(json.loads(json.dumps(data))) == expected


def _capped_solve_failure(monkeypatch, capsys, command):
    """stderr lines of ``command`` with every solve capped at one iteration."""
    from functools import partial

    from hodgelab import cli, spectral, verify

    monkeypatch.delenv("HODGELAB_SEED", raising=False)
    capped = partial(spectral.solve_lowest, maxiter=1)
    # the CLI reaches the solver through verify.scalar_spectrum
    monkeypatch.setattr(spectral, "solve_lowest", capped)
    monkeypatch.setattr(verify, "solve_lowest", capped)
    code = cli.main(command + ["--form", "0", "--count", "6", "--tol", "1e-14"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    # the error, which carries the iterations and best residuals, and the
    # history, each on one line
    assert len(lines) == 2, lines
    assert "no convergence after 1 iterations (best residuals " in lines[0]
    # the history has one entry per residual evaluation: iterations 0 and 1
    assert lines[1].startswith("iteration: largest residual/active columns: 0: ")
    assert ", 1: " in lines[1] and ", 2: " not in lines[1]
    return lines


def test_convergence_failure_prints_iterations(monkeypatch, capsys):
    lines = _capped_solve_failure(monkeypatch, capsys,
                                  ["spectrum", "--kind", "icosphere", "--level", "2"])
    assert lines[0].startswith("error: ")


def test_converge_failure_prints_iterations(monkeypatch, capsys):
    lines = _capped_solve_failure(monkeypatch, capsys,
                                  ["converge", "--kind", "icosphere", "--levels", "2,3"])
    assert lines[0].startswith("error at level 2: ")
