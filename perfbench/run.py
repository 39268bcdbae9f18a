"""hodgelab benchmark: time to a verified result of one CLI command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Each probe is a fresh process (``probe.py``) that runs one ``hodgelab``
command; probes run one after another (closed loop, one client) until the
next one would end after ``--seconds``. Every probe is checked against the
frozen references in ``references.json``. The seed picks each probe's
``--seed``, which sets the solver's random starting block.

With ``--trace 0`` the run reports the end-to-end metrics (medians over its
probes). With ``--trace 1`` it runs each probe seed untraced and then
traced, and reports the per-layer metrics of ``spans.layer_metrics``
(medians over the traced probes) plus ``trace.overhead_s``, the traced minus
the untraced ``wall_s`` of the same probe seed. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Per-probe records, the environment and the spans
are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

# One thread: on a shared 2-core machine two BLAS threads made repeats of
# one seed far noisier (NOTES.md). Results differ between thread counts, so
# both sides of a comparison must use the same value.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The default RunConfig's solver_tol. Eigenvalues are compared relative to
# max(|reference|, ZERO_FLOOR), so a kernel eigenvalue (0) is held to 1e-9.
REL_TOL = 1e-6
ZERO_FLOOR = 1e-3
# A run stops starting probes after this many seconds, so that it ends well
# within the three minutes one run may take.
RUN_BUDGET_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" (JSON report) or "spectrum" (CSV of 16 eigenvalues)
    kind: str
    level: int

    def surface(self) -> dict:
        axes = {"a": 1.0, "c": 2.0} if self.kind == "spheroid" else {"radius": 1.0}
        return {"kind": self.kind, "level": self.level, **axes}

    def cli_args(self, seed: int, out: Path) -> list:
        args = [self.command, "--kind", self.kind, "--level", str(self.level)]
        if self.kind == "spheroid":
            args += ["--a", "1", "--c", "2"]
        if self.command == "spectrum":
            args += ["--form", "0", "--count", "16"]
        return args + ["--seed", str(seed), "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("spheroid-l4-verify", "verify", "spheroid", 4),
    Workload("scalar-l5-solve", "spectrum", "icosphere", 5),
    # Outside the timed suite, for one-off baselines: the sphere at level 4
    # (its run-to-run spread on a shared 2-core machine was the widest), and
    # the full-size runs, at 45 to 95 s per probe.
    Workload("sphere-l4-verify", "verify", "icosphere", 4),
    Workload("sphere-l5-verify", "verify", "icosphere", 5),
    Workload("spheroid-l5-verify", "verify", "spheroid", 5),
    Workload("scalar-l6-solve", "spectrum", "icosphere", 6),
)}
SUITE = ("spheroid-l4-verify", "scalar-l5-solve")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HODGELAB_SEED", None)  # it would override --seed
    env.pop("PYTHONPATH", None)
    for name in THREAD_VARIABLES:
        env[name] = str(BLAS_THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def library_versions() -> dict:
    """Library versions as the probes see them; also warms the import path."""
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), "--versions"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout)


def compare_eigenvalues(label: str, got, want) -> list:
    if len(got) != len(want):
        return [f"{label}: {len(got)} eigenvalues, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > REL_TOL * max(abs(w), ZERO_FLOOR):
            problems.append(f"{label}[{i}] = {g!r}, reference {w!r}")
    return problems


def check_output(workload: Workload, reference: dict, rc: int, out: Path) -> list:
    """Problems with one probe's result; an empty list means it is correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        if workload.command == "verify":
            with open(out) as fh:
                report = json.load(fh)
            spectra = {kind: report["spectra"][kind]["eigenvalues"]
                       for kind in ("scalar", "oneform")}
        else:
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            spectra = {"scalar": [float(row["eigenvalue"]) for row in rows]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    if workload.command == "verify":
        # report["timestamp"] is an elapsed time and is not compared
        if report.get("checks") != reference["checks"]:
            problems.append(f"checks {report.get('checks')} != {reference['checks']}")
        if report.get("pass") is not True:
            problems.append(f"report pass = {report.get('pass')}")
    for kind, got in spectra.items():
        problems += compare_eigenvalues(kind, got, reference[kind])
    return problems


def run_probe(workload: Workload, reference: dict, seed: int, spans_path, timeout: float) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}.{'json' if workload.command == 'verify' else 'csv'}"
    result_path = OUT / "probe-result.json"
    for path in (out, result_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "probe.py"), str(result_path)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    argv += ["--"] + workload.cli_args(seed, out)
    record = {"seed": seed, "traced": spans_path is not None}
    t_spawn = time.monotonic()
    try:
        done = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**record, "problems": [f"timed out after {timeout:.0f} s"]}
    record["elapsed_s"] = time.monotonic() - t_spawn
    try:
        with open(result_path) as fh:
            probe = json.load(fh)
    except (OSError, ValueError) as exc:
        tail = done.stderr.strip().splitlines()[-3:]
        return {**record, "problems": [f"probe exit {done.returncode}: {exc!r} {tail}"]}
    record.update(
        problems=check_output(workload, reference, probe["rc"], out),
        wall_s=probe["t_done"] - probe["t_start"],
        setup_s=probe["t_ready"] - t_spawn,
        cpu_s=probe["cpu_s"],
        peak_rss_mb=probe["maxrss_kb"] / 1024.0,
    )
    return record


def layer_record(spans_path: Path, wall_s: float) -> dict:
    with open(spans_path) as fh:
        data = json.load(fh)
    return layer_metrics(data["spans"], data["memo_hits"], data["memo_attempts"], wall_s)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Probe rounds until the next would end after ``seconds``.

    A round is one untraced probe, followed with tracing on by a traced probe
    of the same probe seed, whose layer metrics are kept.
    """
    with open(REFERENCES) as fh:
        reference = json.load(fh)[workload.name]
    env = {"seed": seed, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
           "cpu": cpu_model(), **library_versions()}
    run = {"workload": workload.name, "env": env, "probes": [], "layers": []}
    probes, layers = run["probes"], run["layers"]
    rng = random.Random(seed)
    start = time.monotonic()
    longest_round = 0.0
    while True:
        round_start = time.monotonic()
        probe_seed = rng.randrange(2**31)
        for traced in (False, True) if trace else (False,):
            spans_path = OUT / f"spans-{workload.name}-{len(layers)}.json" if traced else None
            # a suite run never nears this deadline; a full-size probe may pass it
            longest_probe = max((p.get("elapsed_s", 0.0) for p in probes), default=0.0)
            timeout = max(start + RUN_BUDGET_S + 20.0 - time.monotonic(), 2 * longest_probe, 1.0)
            record = run_probe(workload, reference, probe_seed, spans_path, timeout)
            probes.append(record)
            if "elapsed_s" not in record:  # timed out
                return run
        if trace and not (probes[-2]["problems"] or probes[-1]["problems"]):
            untraced_wall, traced_wall = probes[-2]["wall_s"], probes[-1]["wall_s"]
            layer = layer_record(spans_path, traced_wall)
            layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
            layers.append(layer)
        now = time.monotonic()
        longest_round = max(longest_round, now - round_start)
        if now + longest_round > start + seconds or now > start + RUN_BUDGET_S:
            return run


def summarize(run: dict, trace: bool) -> dict:
    """The run's metrics as {name: {"value": v, "unit": u}}; medians over probes."""
    if trace:
        samples = [{name: value for name, (value, _unit) in layer.items()}
                   for layer in run["layers"]]
        units = {name: unit for layer in run["layers"][:1]
                 for name, (_value, unit) in layer.items()}
    else:
        samples = [p for p in run["probes"] if "wall_s" in p]
        units = END_TO_END if samples else {}
    return {name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, unit in units.items()}


def report_lines(run: dict, metrics: dict, trace: bool) -> list:
    probes = run["probes"]
    failed = sum(1 for p in probes if p["problems"])
    lines = [f"env: {json.dumps(run['env'], sort_keys=True)}"]
    for p in probes:
        for problem in p["problems"]:
            lines.append(f"FAILED {run['workload']} seed {p['seed']}: {problem}")
    n = len(run["layers"]) if trace else sum(1 for p in probes if "wall_s" in p)
    for name, metric in metrics.items():
        lines.append(f"{run['workload']} {name}: median {metric['value']:.6g} "
                     f"{metric['unit']} (n={n})")
    lines.append(f"{run['workload']} failed_frac: {failed}/{len(probes)} = "
                 f"{failed / len(probes):.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hodgelab" / "cli.py").is_file():
        print(f"error: no hodgelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = SUITE if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        metrics = summarize(run, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump({**run, "metrics": metrics}, fh, indent=1)
        print("\n".join(report_lines(run, metrics, bool(args.trace))))
        if not metrics:
            print(f"error: {name}: no probe produced a measurement", file=sys.stderr)
            return 2
        attempted += len(run["probes"])
        failed += sum(1 for p in run["probes"] if p["problems"])
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + key: value for key, value in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
