"""Command-line front end: mesh generation, spectra, verification, convergence.

Subcommands: ``mesh``, ``spectrum``, ``verify``, ``converge``. Exit codes are
a stable contract: 0 success/pass, 1 usage or configuration error (an
unwritable output path included), 2 verification or solver failure. The
random seed comes from the environment variable ``HODGELAB_SEED`` if it is
set, even when ``--seed`` is given, then from ``--seed``, then from the
config; a seed that is not a non-negative integer is a usage error, and so
is a ``--count`` larger than the pencil at the (smallest) level.
``verify`` reads an optional JSON RunConfig (see :mod:`hodgelab.config`,
which owns the RunConfig type); the surface and seed flags override config
values. Its eigenpair count and tolerances are the frozen constants of
:mod:`hodgelab.verify`, and the defaults reproduce the acceptance setup
exactly. ``verify`` and ``spectrum`` take ``--verbose``, which sends the
package's INFO log lines (each stage's wall time and peak RSS, each coarse
level of a nested start) to stderr and leaves stdout and the output file
unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import exterior, mesh as mesh_mod, spectral, verify as verify_mod
from .config import ConfigError, RunConfig, default_config
from .mesh import MeshError, SurfaceSpec

log = logging.getLogger("hodgelab.cli")  # also when run as __main__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
HISTORY_SHOWN = 5  # iterations a convergence failure prints
SOLVE_ERRORS = (exterior.ExteriorError, spectral.SpectralError,
                verify_mod.VerifyError)  # a failed spectrum: exit code 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _surface_from_args(args, level: int, base: SurfaceSpec | None = None) -> SurfaceSpec:
    """The surface that the flags describe, at ``level``.

    An unset flag takes ``base``'s value when ``base`` is of the same kind;
    an icosphere's radius defaults to 1. A flag that does not apply to the
    kind reaches SurfaceSpec, which rejects it.
    """
    kind = args.kind or (base.kind if base is not None else "icosphere")
    inherit = base is not None and base.kind == kind

    def flag(name):
        # `is None`, never `or`: a flag value of 0 must reach the check
        value = getattr(args, name)
        return getattr(base, name) if value is None and inherit else value

    radius, a, c = flag("radius"), flag("a"), flag("c")
    if kind == "icosphere" and radius is None:
        radius = 1.0
    if kind == "spheroid" and (a is None or c is None):
        raise MeshError("spheroid needs --a and --c")
    return SurfaceSpec(kind=kind, level=level, radius=radius, a=a, c=c)


def _float(text: str, accept, expected: str) -> float:
    """``text`` as a float that ``accept`` takes; else the usage error names ``expected``."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _finite_positive(text: str) -> float:
    return _float(text, lambda value: 0 < value < np.inf, "a finite number > 0")


def _finite(text: str) -> float:
    return _float(text, np.isfinite, "a finite number")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer > 0, got {text!r}")
    return value


def _levels(text: str) -> list:
    """``--levels``: comma-separated integers, at least two, none repeated."""
    try:
        levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None
    if len(levels) < 2:
        raise argparse.ArgumentTypeError("a convergence study needs at least 2 levels")
    if len(set(levels)) < len(levels):
        raise argparse.ArgumentTypeError(f"repeated level in {text!r}")
    return levels


def _add_surface_flags(parser):
    parser.add_argument("--kind", choices=["icosphere", "spheroid"], default=None)
    parser.add_argument("--radius", type=float, default=None)
    parser.add_argument("--a", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)


def _seed(args_seed: int | None, config_seed: int = 0) -> int:
    env = os.environ.get("HODGELAB_SEED")
    if env is not None:
        source, seed = "HODGELAB_SEED", env
    elif args_seed is not None:
        source, seed = "--seed", args_seed
    else:
        source, seed = "the config seed", config_seed
    if not str(seed).isdecimal():  # the generators reject negative seeds
        raise ConfigError(f"{source} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _open_out(path, mode="w"):
    """``path`` opened in ``mode``, or a null context when it is unset.

    Every command opens its output before any build or solve, so that an
    unwritable path fails at once.
    """
    return open(path, mode) if path else contextlib.nullcontext()


def cmd_mesh(args) -> int:
    surface = _surface_from_args(args, args.level)
    with _open_out(args.out, "wb") as fh:
        built = mesh_mod.build_surface(surface)
        outcome = mesh_mod.validate(built)
        print(f"V={built.n_vertices} E={built.n_edges} F={built.n_faces}")
        for name, ok in outcome.checks.items():
            print(f"  {name}: {'ok' if ok else 'FAIL'}")
        if outcome.genus is not None:
            print(f"  genus: {outcome.genus}")
        if fh is not None:
            fh.write(mesh_mod.export_off(built))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK if outcome.ok else EXIT_FAILURE


def _write_csv(lines, fh) -> None:
    """Write the CSV lines to the open output ``fh``, or to stdout when None."""
    text = "\n".join(lines) + "\n"
    (sys.stdout if fh is None else fh).write(text)


def _spectrum_rows(result):
    group_of = {}
    for gi, g in enumerate(result.groups):
        for idx in g.indices:
            group_of[idx] = gi
    return [
        (i, float(result.eigenvalues[i]), float(result.residuals[i]), group_of[i])
        for i in range(len(result.eigenvalues))
    ]


def _lowest_eigenpairs(built, args, seed: int):
    """The ``args.count`` lowest eigenpairs of the degree-``args.form`` Laplacian."""
    if args.form == 0:
        return verify_mod.scalar_spectrum(built, args.count, args.tol, seed=seed)
    scalar = verify_mod.scalar_spectrum(
        built, verify_mod.split_scalar_pairs(built, args.count), args.tol, seed=seed)
    return verify_mod.oneform_spectrum_hodge_split(built, args.count, args.tol, scalar,
                                                   seed=seed)[0]


def _check_count(args, level: int) -> None:
    """Reject a ``--count`` larger than the pencil at ``level``, before any mesh
    is built: V = 10*4^level + 2 vertices for ``--form 0``, E = 30*4^level
    edges for ``--form 1``, on either surface kind."""
    if args.form == 0:
        limit, what = 10 * 4 ** level + 2, "vertices"
    else:
        limit, what = 30 * 4 ** level, "edges"
    if args.count > limit:
        raise ConfigError(f"--count {args.count} exceeds the {limit} {what} "
                          f"of a level-{level} mesh")


def _history_line(history) -> str:
    """The last HISTORY_SHOWN entries of a ConvergenceError history."""
    shown = history[-HISTORY_SHOWN:]
    entries = ", ".join(f"{k}: {res:.3g}/{active}" for k, (res, active)
                        in enumerate(shown, len(history) - len(shown)))
    return f"iteration: largest residual/active columns: {entries}"


def _print_solve_error(exc, where: str = "") -> None:
    """The ``error`` line of a failed solve and, for a ConvergenceError, its
    residual history, each on one line of stderr. A ConvergenceError's
    message already holds its iteration count and best residuals."""
    print(f"error{where}: {exc}", file=sys.stderr)
    if isinstance(exc, spectral.ConvergenceError):
        print(_history_line(exc.history), file=sys.stderr)


def cmd_spectrum(args) -> int:
    surface = _surface_from_args(args, args.level)
    _check_count(args, args.level)
    seed = _seed(args.seed)
    with _open_out(args.out) as fh:
        built = mesh_mod.build_surface(surface)
        try:
            result = _lowest_eigenpairs(built, args, seed)
        except SOLVE_ERRORS as exc:
            _print_solve_error(exc)
            return EXIT_FAILURE
        rows = _spectrum_rows(result)
        lines = ["index,eigenvalue,residual,group"]
        lines += [f"{i},{ev:.12g},{res:.3g},{grp}" for i, ev, res, grp in rows]
        _write_csv(lines, fh)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _num(x) -> str:
    """A table number, or a dash where the report has none."""
    return f"{x:9.3g}" if isinstance(x, float) else f"{'-':>9s}"


def _format_report_table(report: dict) -> str:
    lines = []
    meshinfo = report.get("mesh") or {}
    lines.append(
        f"mesh: {meshinfo.get('kind')} level {meshinfo.get('level')} "
        f"V={meshinfo.get('vertices')} E={meshinfo.get('edges')} "
        f"F={meshinfo.get('faces')}"
    )
    curv = report.get("curvature") or {}
    if curv:
        lines.append(
            f"curvature: rho={curv.get('rho'):.6g} P={curv.get('P'):.6g} "
            f"(exact {curv.get('rho_exact'):.6g}..{curv.get('P_exact'):.6g}, "
            f"Gauss-Bonnet err {curv.get('gauss_bonnet_error'):.1e})"
        )
    for kind in ("scalar", "oneform"):
        spec = (report.get("spectra") or {}).get(kind)
        if spec:
            groups = ", ".join(
                f"{g['eigenvalue']:.5g} x{g['multiplicity']}" for g in spec["groups"]
            )
            lines.append(f"{kind} spectrum: {groups}")
    header = (
        f"{'field':18s} {'class':9s} {'lambda':>9s} {'eigres':>9s} "
        f"{'bounds':30s} {'yano':>9s} {'lich':>9s}"
    )
    lines.append(header)
    for f in report.get("fields", []):
        b = f.get("bounds") or {}
        if b.get("note") == verify_mod.HYPOTHESIS_VIOLATED:
            btxt = "skipped: hypothesis violated"
        elif b.get("mode") == "projective":
            printed = "INCONSISTENT" if b.get("note") == verify_mod.INCONSISTENT_AS_PRINTED \
                else ("ok" if b.get("satisfied_printed") else "violated")
            btxt = f"proj {b.get('attainment')}/printed → {printed}"
        elif b.get("mode") == "conformal":
            btxt = f"conf {b.get('attainment')}"
        else:
            btxt = "-"
        idents = f.get("identities") or {}
        lines.append(
            f"{f['name']:18s} {str(f.get('class')):9s} {_num(f.get('lambda'))} "
            f"{_num(f.get('eigenform_residual'))} {btxt:30s} "
            f"{_num(idents.get('yano_2_2'))} {_num(idents.get('lichnerowicz_3_2'))}"
        )
    if any(
        (f.get("bounds") or {}).get("note") == verify_mod.INCONSISTENT_AS_PRINTED
        for f in report.get("fields", [])
    ):
        lines.append("projective upper (printed): INCONSISTENT (empty interval); "
                     "rederived constant used for the pass criterion")
    for rec in report.get("multiplicity", []):
        lines.append(
            f"multiplicity[{rec['algebra']}]: count {rec['count']} <= bound "
            f"{rec['bound']} ({'equality' if rec['equality'] else 'strict'})"
        )
    oracle = report.get("oracle", [])
    if oracle:
        bad = sum(1 for r in oracle if not r["pass"])
        lines.append(f"exact oracle: {len(oracle) - bad}/{len(oracle)} checks pass")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    for fail in report.get("failures", []):
        lines.append(f"FAILURE: {fail}")
    lines.append(f"overall: {'PASS' if report.get('pass') else 'FAIL'}")
    return "\n".join(lines)


def _format_stage_summary(report: dict) -> str:
    """Each stage's seconds and the peak RSS when it ended, on one line, from
    ``run.stages`` and ``run.peak_rss_mb``; the per-field stages are summed
    into one ``fields`` entry, whose peak RSS is the last field's."""
    run = report["run"]
    entries: dict = {}
    for label, seconds in run["stages"].items():
        key = "fields" if label.startswith("field ") else label
        entries[key] = (entries.get(key, (0.0, 0.0))[0] + seconds, run["peak_rss_mb"][label])
    return "stages: " + ", ".join(f"{label} {seconds:.3f} s {rss:.1f} MB"
                                  for label, (seconds, rss) in entries.items())


def cmd_verify(args) -> int:
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        cfg = RunConfig.from_json_dict(data)
    else:
        cfg = default_config()
    overrides = {}
    if any(flag is not None
           for flag in (args.kind, args.level, args.radius, args.a, args.c)):
        level = args.level if args.level is not None else cfg.surface.level
        overrides["surface"] = _surface_from_args(args, level, cfg.surface)
    cfg = dataclasses.replace(cfg, seed=_seed(args.seed, cfg.seed), **overrides)
    with _open_out(args.out or cfg.report_path) as fh:
        report = verify_mod.run_suite(cfg)
        if fh is not None:
            json.dump(report, fh, indent=1, default=float)
            fh.write("\n")
    # run-dependent, so on the verbose log: stdout stays the same run to run
    log.info("%s", _format_stage_summary(report))
    print(_format_report_table(report))
    return EXIT_OK if report["pass"] else EXIT_FAILURE


def cmd_converge(args) -> int:
    ordered = sorted(args.levels)
    reordered = ordered != args.levels
    seed = _seed(args.seed)
    surfaces = [_surface_from_args(args, level) for level in ordered]
    _check_count(args, ordered[0])
    rows = []
    with _open_out(args.out) as fh:
        for surface in surfaces:
            built = mesh_mod.build_surface(surface)
            try:
                result = _lowest_eigenpairs(built, args, seed)
            except SOLVE_ERRORS as exc:
                _print_solve_error(exc, f" at level {surface.level}")
                return EXIT_FAILURE
            nearest = min(result.groups,
                          key=lambda g: abs(g.representative - args.target))
            lam = nearest.representative
            rows.append((surface.level, args.target, lam, abs(lam - args.target)))
        lines = ["level,target,lambda_hat,abs_error"]
        lines += [f"{lv},{tg:.12g},{lam:.12g},{err:.6g}" for lv, tg, lam, err in rows]
        _write_csv(lines, fh)
    if args.out:
        print(f"wrote {args.out}")
    if reordered:
        print("note: levels were reordered ascending")
    errors = [row[3] for row in rows]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    if not monotone:
        print("error: eigenvalue error is not monotonically decreasing",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


@contextlib.contextmanager
def _progress_log(verbose: bool):
    """With ``verbose``, the package's INFO log lines go to stderr while the command runs."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("hodgelab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def build_parser() -> _Parser:
    parser = _Parser(prog="hodgelab",
                     description="Spectral-geometry verification lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate and validate a mesh")
    _add_surface_flags(p_mesh)
    p_mesh.add_argument("--level", type=int, required=True)
    p_mesh.add_argument("--out", default=None, help="OFF output path")
    p_mesh.set_defaults(func=cmd_mesh)

    p_spec = sub.add_parser("spectrum", help="lowest Laplacian eigenvalues")
    _add_surface_flags(p_spec)
    p_spec.add_argument("--level", type=int, required=True)
    p_spec.add_argument("--form", type=int, default=0, choices=[0, 1])
    p_spec.add_argument("--count", type=_positive_int, default=16)
    p_spec.add_argument("--tol", type=_finite_positive, default=verify_mod.SOLVER_TOL)
    p_spec.add_argument("--seed", type=int, default=None)
    p_spec.add_argument("--out", default=None, help="CSV output path")
    p_spec.add_argument("--verbose", action="store_true",
                        help="log solver progress to stderr")
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--config", default=None, help="JSON RunConfig path")
    _add_surface_flags(p_ver)
    p_ver.add_argument("--level", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None, help="JSON report path")
    p_ver.add_argument("--verbose", action="store_true",
                       help="log stage times, peak RSS and solver progress to stderr")
    p_ver.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("converge", help="eigenvalue convergence study")
    p_conv.add_argument("--levels", type=_levels, required=True,
                        help="comma-separated subdivision levels")
    _add_surface_flags(p_conv)
    p_conv.add_argument("--form", type=int, default=0, choices=[0, 1])
    p_conv.add_argument("--count", type=_positive_int, default=16)
    p_conv.add_argument("--target", type=_finite, default=2.0)
    p_conv.add_argument("--tol", type=_finite_positive, default=verify_mod.SOLVER_TOL)
    p_conv.add_argument("--seed", type=int, default=None)
    p_conv.add_argument("--out", default=None, help="CSV output path")
    p_conv.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _progress_log(getattr(args, "verbose", False)):
            return args.func(args)
    except (MeshError, ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
