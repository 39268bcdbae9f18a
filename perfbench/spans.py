"""Outside-in tracing of hodgelab's layers, and the per-layer metrics.

The layers are the package's modules. ``Tracer`` replaces every public
function of each layer module with a wrapper that records a span
``[name, start, end, parent, attrs]`` in memory; ``parent`` is the index of
the enclosing span or -1. A function that another layer imports by name
(``verify`` does ``from .spectral import solve_lowest``) is replaced there by
the same wrapper, so the call is traced whichever name it goes through.
``TriangleMesh.memoized`` is counted (hits and attempts) but not spanned.
Private helpers are never hooked. Every replaced attribute is restored on
exit.

``layer_metrics`` turns one traced call's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("mesh", "exterior", "curvature", "spectral", "fields",
          "sphere_oracle", "verify", "cli")

SOLVE = "spectral.solve_lowest"
SPLIT = "verify.oneform_spectrum_hodge_split"
MESH_BUILD = {"mesh.build_surface", "mesh.build_icosphere", "mesh.build_spheroid"}
ASSEMBLY = {f"exterior.{f}" for f in ("d0", "d1", "star0", "star1", "star1_values",
                                      "star2", "laplacian0", "laplacian1")}
CURVATURE_BOUNDS = {"curvature.angle_defect_curvature", "curvature.angle_defects",
                    "curvature.voronoi_vertex_areas"}


def _annotate_solve(bound, result):
    args = bound.arguments
    return {"n": int(args["A"].shape[0]), "m": int(args["m"]), "tol": float(args["tol"]),
            "max_residual": float(result.residuals.max())}


def _annotate_sample(bound, result):
    return {"edges": int(result.values.shape[0])}


ANNOTATORS = {SOLVE: _annotate_solve, "fields.sample_oneform": _annotate_sample}


class Tracer:
    """Context manager that traces the layer modules while it is active."""

    def __init__(self):
        self.spans: list = []
        self.memo_hits = 0
        self.memo_attempts = 0
        self._stack: list = []
        self._patched: list = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        modules = [importlib.import_module(f"hodgelab.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        mesh_class = modules[LAYERS.index("mesh")].TriangleMesh
        self._patch(mesh_class, "memoized", self._count_memo(mesh_class.memoized))

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = annotate(bound, result)
            return result

        return traced

    def _count_memo(self, memoized):
        tracer = self

        @functools.wraps(memoized)
        def counted(mesh, key, build):
            tracer.memo_attempts += 1
            tracer.memo_hits += key in mesh._memo
            return memoized(mesh, key, build)

        return counted


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread's call stack, so a span's children run one
    after another inside it and never overlap.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_n, start, end, _p, _a) in enumerate(spans)]


def outermost_total(spans, names) -> tuple:
    """(seconds, calls) of spans named in ``names`` not nested in another such span."""
    inside = [False] * len(spans)
    seconds, calls = 0.0, 0
    for i, (name, start, end, parent, _attrs) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[i]:
            seconds += end - start
            calls += 1
    return seconds, calls


def _enclosing(spans, index, name):
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def solve_sites(spans) -> list:
    """(call site, span index) per solve, in call order.

    A solve outside the Hodge split is ``scalar``. Inside a split the first
    solve of each pencil size is a side solve; the vertex pencil is the
    smaller one (a closed triangulated sphere has F = 2V - 4 faces). A later
    solve of the same size in the same split re-solves that side over a
    wider window and is an ``extension``.
    """
    solves = [i for i, span in enumerate(spans) if span[0] == SOLVE]
    per_split: dict = {}
    for i in solves:
        per_split.setdefault(_enclosing(spans, i, SPLIT), []).append(i)
    site = {}
    for split, members in per_split.items():
        sizes = [spans[i][4]["n"] for i in members]
        seen = set()
        for i, n in zip(members, sizes):
            if split < 0:
                site[i] = "scalar"
            elif n in seen:
                site[i] = "extension"
            else:
                site[i] = "vertex_side" if n == min(sizes) else "face_side"
            seen.add(n)
    return [(site[i], i) for i in solves]


def layer_metrics(spans, memo_hits: int, memo_attempts: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced CLI call, as {name: (value, unit)}."""
    selfs = self_times(spans)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_of(predicate):
        return sum(t for span, t in zip(spans, selfs) if predicate(span[0]))

    sites = solve_sites(spans)
    by_site = {"scalar": 0.0, "vertex_side": 0.0, "face_side": 0.0, "extension": 0.0}
    for site, i in sites:
        by_site[site] += duration(i)
    ratios = [spans[i][4]["max_residual"] / spans[i][4]["tol"] for _site, i in sites]
    split_s, split_calls = outermost_total(spans, {SPLIT})
    split_solves = sum(1 for site, _i in sites if site != "scalar")
    residual_names = {span[0] for span in spans
                      if span[0].startswith("sphere_oracle.") and span[0].endswith("_residual")}
    residual_s, residual_calls = outermost_total(spans, residual_names)
    top_level_s = sum(duration(i) for i, span in enumerate(spans) if span[3] < 0)
    sampled = [span[4]["edges"] for span in spans
               if span[0] == "fields.sample_oneform" and span[4]]
    return {
        "spectral.solve_s": (sum(by_site.values()), "s"),
        "spectral.solve_calls": (len(sites), "count"),
        "spectral.scalar_solve_s": (by_site["scalar"], "s"),
        "spectral.vertex_side_solve_s": (by_site["vertex_side"], "s"),
        "spectral.face_side_solve_s": (by_site["face_side"], "s"),
        "spectral.extension_solve_s": (by_site["extension"], "s"),
        "spectral.max_residual_over_tol": (max(ratios, default=0.0), "ratio"),
        "verify.hodge_split_s": (split_s, "s"),
        "verify.hodge_split_self_s": (self_of(lambda name: name == SPLIT), "s"),
        "verify.window_extensions": (split_solves - 2 * split_calls, "count"),
        "verify.identity_s": (outermost_total(spans, {"verify.discrete_identity_residual"})[0], "s"),
        "verify.alignment_s": (outermost_total(spans, {"verify.eigenform_alignment"})[0], "s"),
        "verify.run_suite_self_s": (self_of(lambda name: name == "verify.run_suite"), "s"),
        "sphere_oracle.residual_s": (residual_s, "s"),
        "sphere_oracle.residual_calls": (residual_calls, "count"),
        "fields.sample_s": (outermost_total(spans, {"fields.sample_oneform"})[0], "s"),
        "fields.sampled_edges": (sum(sampled), "count"),
        "exterior.codifferential_s": (outermost_total(spans, {"exterior.codifferential_norm"})[0], "s"),
        "exterior.assemble_s": (outermost_total(spans, ASSEMBLY)[0], "s"),
        "mesh.build_s": (outermost_total(spans, MESH_BUILD)[0], "s"),
        "mesh.validate_s": (outermost_total(spans, {"mesh.validate"})[0], "s"),
        "mesh.memo_hit_ratio": (memo_hits / memo_attempts if memo_attempts else 0.0, "ratio"),
        "mesh.memo_attempts": (memo_attempts, "count"),
        "curvature.bounds_s": (outermost_total(spans, CURVATURE_BOUNDS)[0], "s"),
        "cli.self_s": (self_of(lambda name: name.startswith("cli.")), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.coverage": (top_level_s / wall_s if wall_s > 0 else 0.0, "ratio"),
    }
