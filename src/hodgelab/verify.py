"""Verification suite: bounds, classification, identities, multiplicities.

``run_suite`` runs the pipeline on one configured surface as a sequence of
stages: mesh build and validation, curvature bounds against the closed-form
extrema, the scalar and one-form spectra, one stage per field
(classification, bound checks under both the printed and rederived
projective upper constants, discrete Weitzenboeck-identity residuals), the
exact sphere-oracle battery, and multiplicity checks against the
conformal/projective algebra dimension bounds. The field stage and the
oracle battery read each Weitzenboeck identity, its d d* coefficient and
the field families that satisfy it, from ``sphere_oracle.WEITZENBOECK``.
Each stage writes its report section and returns the checks it decides. One
guard, ``_StageGuard``, runs and times every stage; a stage that raises is
recorded with its label, its checks fail, and the report is still emitted.
The report is a stable-keyed JSON document.

One-form spectra on genus-0 surfaces are computed through the exact discrete
Hodge split: eigenpairs of the vertex pencil (``exterior.laplacian0``) map
to exact one-form eigenpairs through d0, and eigenpairs of the face pencil
(``exterior.laplacian2``, d1 star1^-1 d1^T against face areas) map to
coexact ones through star1^-1 d1^T; with b1 = 0 nothing else exists. Every
split starts from the scalar spectrum (``scalar_spectrum``): its nonkernel
eigenvalues are the exact spectrum below its window, and its nonkernel
eigenvectors seed both sides, as they are on the vertex side (which then
converges in one or two iterations: one at level 4, two at levels 5 to 7)
and averaged over each face's corners on the face side. The face side is
solved first, and widened, to at most m + 1 pairs, while its window cuts
the merge short; the vertex side is solved once, for the exact pairs the
merge takes. A side's residual maps to its one-form's residual through
``exterior.exact_map`` or ``exterior.coexact_map``, the two maps A1 is built
from, so each side stops on the one-form residual itself; every merged
pair's residual against the true one-form pencil must then meet the solver
tolerance, or the split fails. That gate applies A1 through the same two
maps, A1 x = coexact_map d1 x + exact_map d0^T star1 x, without assembling
it. The edge mass star1 is checked positive (``exterior.edge_mass``) before
the first solve, so a mesh too poor for the one-form pencil fails before
any solve. The pairs carry an exact/coexact tag used by the multiplicity
records. Both vertex-pencil solves pass the mesh's
subdivision hierarchy, so they run the multigrid preconditioner; the face
pencil runs the LU.
``report["run"]["solves"]`` records every solve: its pencil, size,
tolerance, preconditioner, block width, iterations, largest residual,
whether it was seeded, why it ran, and the (size, iterations) of the coarse
solves of its nested start (the scalar solve's; seeded solves have none).
``report["run"]`` also gives the seed, the python, numpy and scipy
versions, and the process's peak resident memory in MB as each stage ended
(``peak_rss_mb``, keyed like ``stages``). With INFO logging on (the CLI's
``--verbose``), each stage logs its wall time and that peak as it ends.

The per-field ``eigenform_residual`` reported here is a spectral alignment
residual: the B-weighted spread of the form's eigenvalue content around its
Rayleigh quotient |dw|^2 + |d*w|^2 (relative to |w|^2, read from
``exterior.codifferential_norm``), measured in the computed eigenbasis (plus
a conservative tail term). The raw strong-norm residual ||A w - rq(w) B w||
of a sampled smooth eigenform is dominated by local consistency noise of the
discrete operators and does not vanish under refinement, so it cannot say
that a field is an eigenform; the alignment residual tends to zero for
sampled eigenforms and stays O(1) when the eigenform hypothesis genuinely
fails, which is what the hypothesis detector needs.
"""

from __future__ import annotations

import logging
import platform
import resource
import sys
import time

import numpy as np
import scipy

from . import curvature as curvature_mod
from . import exterior, fields as fields_mod, mesh as mesh_mod, sphere_oracle
from .config import RunConfig
from .spectral import SpectrumResult, group_multiplicities, solve_lowest

# Frozen quantitative gates (calibrated at level 5 on the unit icosphere).
BOUND_REL = 0.02  # bound attainment and round-sphere curvature, relative
CLASS_TOL = 0.01  # closedness / coclosedness norm for classification
SOLVER_TOL = 1e-6  # eigenpair residual of both spectra
EIGENPAIRS = 16  # eigenpairs per form degree
SCALAR_CLUSTER_RTOL = (0.005, 0.01)
ONEFORM_CLUSTER_RTOL = (0.01, 0.015)
IDENTITY_SMALL = 0.05
IDENTITY_LARGE = 0.3
HYPOTHESIS_TOL = 0.1
# the notes a field's bound entry can carry, which the CLI table reads
HYPOTHESIS_VIOLATED = "hypothesis Δω = λω violated"
INCONSISTENT_AS_PRINTED = "inconsistent as printed"
ORACLE_EXACT_TOL = 1e-12
ORACLE_LARGE = 0.1
MIN_SPECTRAL_LEVEL = 3
N_DIM = 2  # intrinsic dimension of every built-in surface
ORACLE_DIMENSIONS = (2, 3, 5)
ORACLE_RADII = (1.0, 2.0)
ORACLE_SEED = 7  # the battery's fields and sample points
# 2 pi - fl(2 pi), the part of 2 pi that the double 2.0 * np.pi =
# 6.283185307179586 drops: 2 pi = 6.28318530717958647692528676655900577...,
# so the remainder rounds to this double. Every angle defect is formed from
# fl(2 pi), so a sum of V defects is short by V times it.
TWO_PI_LOW = 2.4492935982947064e-16


log = logging.getLogger(__name__)


class VerifyError(Exception):
    pass


def classify_field(norm_dstar: float, norm_d: float, tol: float) -> str:
    """killing / gradient / mixed from the coclosedness and closedness norms."""
    if norm_dstar < 0 or norm_d < 0 or tol <= 0:
        raise VerifyError("norms must be >= 0 and tol > 0")
    if norm_dstar < tol <= norm_d:
        return "killing"
    if norm_d < tol <= norm_dstar:
        return "gradient"
    return "mixed"


def check_bounds(lambda_hat: float, rho: float, P: float, n: int, mode: str,
                 tol: float) -> dict:
    """Report entry of an eigenvalue against one bound interval at relative ``tol``.

    For the projective mode both the printed and the rederived upper constant
    are evaluated; attainment is decided against the lower bound first, then
    the effective upper bound (rederived when available). The entry carries
    ``note: "inconsistent as printed"`` when the printed interval is empty.
    """
    if lambda_hat <= 0:
        raise VerifyError("eigenvalue must be positive")
    bounds = sphere_oracle.theorem_bounds(n, rho, P, mode)
    lower, upper_p, upper_r = bounds.lower, bounds.upper_printed, bounds.upper_rederived
    upper_eff = upper_r if upper_r is not None else upper_p
    if abs(lambda_hat - lower) <= tol * lower:
        attainment = "lower"
    elif abs(lambda_hat - upper_eff) <= tol * upper_eff:
        attainment = "upper"
    elif lower < lambda_hat < upper_eff:
        attainment = "interior"
    else:
        attainment = "none"
    entry = {
        "mode": mode,
        "lower": lower,
        "upper_printed": upper_p,
        "upper_rederived": upper_r,
        "satisfied_printed": lower * (1 - tol) <= lambda_hat <= upper_p * (1 + tol),
        "satisfied_rederived": (None if upper_r is None
                                else lower * (1 - tol) <= lambda_hat <= upper_r * (1 + tol)),
        "attainment": attainment,
    }
    if not bounds.consistent:
        entry["note"] = INCONSISTENT_AS_PRINTED
    return entry


def discrete_identity_residual(mesh: mesh_mod.TriangleMesh,
                               omega: exterior.Cochain) -> dict:
    """Integrated residual of each Weitzenboeck identity on a sampled one-form.

    Returned is ``{which: residual}`` in the order of
    ``sphere_oracle.WEITZENBOECK`` (``"yano_2_2"``, ``"lichnerowicz_3_2"``),
    each identity Delta w = 2 Ric* w + c d d* w with the table's coefficient c
    at n = 2; the Lichnerowicz coefficient vanishes there, so that check
    degenerates to |Delta w - 2 Ric* w|.
    The identity is paired with w itself, mirroring
    the integral-formula arguments the identities feed, and each pairing is
    a norm relative to |w|^2 in the star1 inner product:
    lambda = <w, Delta w> = |dw|^2 + |d*w|^2 (``exterior.codifferential_norm``),
    <w, d d* w> = |d*w|^2 and rho = <w, Ric w> with the discrete Ricci
    endomorphism. Each residual is |lambda - 2 rho - c |d*w|^2| / lambda;
    both come from one Hodge pairing and one Ricci pairing.
    (The pointwise mass-weighted norm of lhs - rhs is dominated by local
    consistency noise of the diagonal-star operators and does not vanish
    under refinement even for fields that satisfy the identity exactly; the
    quadratic pairing converges and still separates the satisfying from the
    violating field classes by an O(1) margin.)
    """
    nd, nw = exterior.codifferential_norm(mesh, omega)
    lam_hat = nd * nd + nw * nw
    s1w = exterior.star1_values(mesh) * omega.values
    K = curvature_mod.angle_defect_curvature(mesh).per_vertex_K
    rho = (s1w @ curvature_mod.ricci_apply(mesh, K, omega).values) / (s1w @ omega.values)
    return {which: float(abs(lam_hat - 2.0 * rho - identity.coefficient(N_DIM) * nd * nd)
                         / lam_hat)
            for which, identity in sphere_oracle.WEITZENBOECK.items()}


def _face_average(mesh: mesh_mod.TriangleMesh, basis: np.ndarray) -> np.ndarray:
    """Vertex functions (columns of ``basis``) averaged over each face's corners.

    Summed in place: ``basis[mesh.faces]`` would build an n_faces x 3 x k
    temporary just before the face-side solve, which raised the peak RSS.
    """
    corners = mesh.faces.T
    average = basis[corners[0]]
    average += basis[corners[1]]
    average += basis[corners[2]]
    average /= 3.0
    return average


def _solve_record(pencil: str, why: str, result: SpectrumResult, tol: float) -> dict:
    """One ``run.solves`` entry of the report."""
    return {
        "pencil": pencil, "n": int(result.eigenvectors.shape[0]),
        "m": int(result.eigenvalues.shape[0]), "tol": float(tol),
        "iterations": result.iterations,
        "preconditioner": result.preconditioner, "block": result.block,
        "max_residual": float(result.residuals.max()),
        "seeded": pencil != "scalar", "why": why,  # split sides start from the scalar
        "coarse_levels": [list(level) for level in result.coarse_levels],
    }


def scalar_spectrum(mesh: mesh_mod.TriangleMesh, m: int, tol: float,
                    seed: int = 0) -> SpectrumResult:
    """Lowest ``m`` eigenpairs of ``laplacian0``, the start of every one-form solve."""
    A0, B0 = exterior.laplacian0(mesh)
    return solve_lowest(A0, B0, m, tol, seed=seed, known_kernel=np.ones(mesh.n_vertices),
                        hierarchy=mesh.vertex_prolongations())


def _window(result: SpectrumResult) -> float:
    """A solve's ``next_estimate``, or inf when it has none.

    ``solve_lowest`` has none when it returned the pencil's whole spectrum,
    where inf is exact, and when it iterated no pair (m equal to the known
    kernel's size), where inf would be wrong. The split never passes a solve
    of the second kind: the scalar spectrum and the face side solve at least
    two pairs, and a vertex side that iterated nothing is bounded by the
    lowest exact value instead.
    """
    return np.inf if result.next_estimate is None else result.next_estimate


def split_scalar_pairs(mesh: mesh_mod.TriangleMesh, m: int) -> int:
    """The scalar pairs the Hodge split of ``m`` pairs needs: max(m, 4), or all of them."""
    return min(max(m, 4), mesh.n_vertices)


def _side_solve(label, why, pencil, m, tol, seed, start, residual_map, solves,
                hierarchy=None) -> SpectrumResult:
    """One seeded solve of a Hodge-split pencil, stopped on its one-form residual.

    ``start`` is a one-element list holding the start block. Popping it as
    the argument drops this frame's reference, so the solve holds the only
    one and the block dies once the solve has copied it.
    """
    A, B = pencil
    n = A.shape[0]
    result = solve_lowest(A, B, min(m, n), tol, seed=seed, known_kernel=np.ones(n),
                          start=start.pop(), hierarchy=hierarchy,
                          residual_map=residual_map)
    if solves is not None:
        solves.append(_solve_record(label, why, result, tol))
    return result


def oneform_spectrum_hodge_split(mesh: mesh_mod.TriangleMesh, m: int, tol: float,
                                 scalar: SpectrumResult, seed: int = 0, solves=None):
    """One-form spectrum via the exact Hodge split on a genus-0 surface.

    Returns (SpectrumResult, exact_flags); exact_flags[i] is True when
    eigenvector i is an exact form d0 u. Every returned pair's residual
    against the true one-form pencil (A1, B1) is at most ``tol``, or
    VerifyError names the worst one. That gate applies A1 as
    ``coexact_map @ (d1 @ x) + exact_map @ (d0.T @ (star1 x))``, one column
    at a time, with the maps the side solves stop on, each built once; A1
    is never assembled.
    Before any solve, ``exterior.edge_mass`` checks that star1 is positive,
    so a mesh whose B1 is not SPD raises its ExteriorError first.

    ``scalar``: the mesh's ``scalar_spectrum`` with at least ``max(m, 4)``
    pairs, or all of them. Its nonkernel eigenvalues are the exact one-form
    spectrum below its window (``next_estimate``), and its nonkernel
    eigenvectors seed both sides. The face side is solved first and widened,
    to at most m + 1 pairs, until the exact and coexact values below both
    windows hold the m lowest; m + 1 face pairs always reach their window,
    so if the scalar window falls short, VerifyError says so.
    The vertex side is then solved once, for the exact pairs the merge takes.
    ``next_estimate`` is the lowest of the first pair not taken and the
    sides' windows, the lowest exact value standing in for the vertex side's
    when the merge takes no exact pair.

    ``solves``: optional list; each side solve appends its ``run.solves``
    record to it as it ends, so the records survive a split that raises.
    """
    if m < 1:
        raise VerifyError(f"m={m}: the Hodge split needs at least one pair")
    if scalar.eigenvalues.size < split_scalar_pairs(mesh, m):
        raise VerifyError(f"the Hodge split of {m} pairs needs max(m, 4) scalar pairs, "
                          f"got {scalar.eigenvalues.size}")
    # column 0 of every solve is its deflated kernel, the constants
    exact = scalar.eigenvalues[1:]
    start = scalar.eigenvectors[:, 1:]
    scalar_window = _window(scalar)

    # a mesh whose edge mass is not SPD fails here, before any solve
    s1 = exterior.edge_mass(mesh)
    # each side stops on the one-form residual of its pairs, which the
    # side's exterior map sends its own residual to; the gate applies A1
    # through the same two maps
    coexact_map = exterior.coexact_map(mesh)
    face_pencil = exterior.laplacian2(mesh)
    m_face, why = max(m // 2 + 1, 2), "first"
    while True:
        # each pass averages its own start, which dies once the solve has
        # copied it, instead of one kept beside every face solve
        face = _side_solve("face side", why, face_pencil, m_face, tol, seed,
                           [_face_average(mesh, start)], coexact_map, solves)
        values = np.concatenate([exact, face.eigenvalues[1:]])
        order = np.argsort(values, kind="stable")
        # ties at the window edge (cut degenerate pairs) are legitimate: any
        # m lowest-with-ties selection is a valid answer
        if (values.size >= m and values[order[m - 1]]
                <= min(scalar_window, _window(face)) * (1 + 1e-9)):
            break
        # m + 1 face pairs hold m coexact values, each at or below the face window
        if scalar_window <= _window(face) or m_face > m:
            raise VerifyError(
                f"the {exact.size} exact eigenvalues below the scalar window "
                f"{scalar_window:.6g} do not cover the {m} lowest one-form eigenvalues")
        m_face = min(m_face + max(2, m // 8), m + 1)
        why = "extension"
    del face_pencil

    n_exact = int((order[:m] < exact.size).sum())
    exact_map = exterior.exact_map(mesh)
    vert = _side_solve("vertex side", "first", exterior.laplacian0(mesh), n_exact + 1, tol,
                       seed, [start], exact_map, solves, mesh.vertex_prolongations())

    # the m lowest of the vertex side's exact and the face side's coexact pairs
    values = np.concatenate([vert.eigenvalues[1:], face.eigenvalues[1:]])
    order = np.argsort(values, kind="stable")
    taken = order[:m]
    vals = values[taken]
    flags = taken < n_exact
    D0, D1 = exterior.d0(mesh), exterior.d1(mesh)
    vecs = np.empty((mesh.n_edges, m))
    vecs[:, flags] = D0 @ vert.eigenvectors[:, 1 + taken[flags]]
    vecs[:, ~flags] = (D1.T @ face.eigenvectors[:, 1 + taken[~flags] - n_exact]) / s1[:, None]
    vecs /= np.sqrt(vals)
    # a vertex side that iterated nothing (no exact pair taken) has no window;
    # the lowest exact value, which the merge did not take, bounds it instead
    vert_window = _window(vert) if n_exact else (exact[0] if exact.size else scalar_window)
    next_estimate = min(values[order[m]] if values.size > m else np.inf,
                        vert_window, _window(face))
    del face, vert

    # ||A1 x - lambda B1 x|| / ||B1 x||, with A1 x applied as
    # exact_map d0^T (B1 x) + coexact_map d1 x, never assembled; each half
    # is added to -lambda B1 x in its buffer one column at a time, so the
    # gate holds two E x m arrays (vecs and the residual)
    Bx = vecs * s1[:, None]
    bx_norms = np.linalg.norm(Bx, axis=0)
    divergence = D0.T @ Bx
    Bx *= -vals
    for j in range(m):
        Bx[:, j] += exact_map @ divergence[:, j]
        Bx[:, j] += coexact_map @ (D1 @ vecs[:, j])
    del divergence
    residuals = np.linalg.norm(Bx, axis=0) / bx_norms
    if residuals.max() > tol:
        raise VerifyError(f"Hodge-split residuals above {tol:g} "
                          f"(worst {residuals.max():.3g})")

    result = SpectrumResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=residuals,
        groups=group_multiplicities(vals),
        next_estimate=float(next_estimate) if np.isfinite(next_estimate) else None,
    )
    return result, flags.tolist()


def eigenform_alignment(spectrum: SpectrumResult, b: np.ndarray, w: np.ndarray,
                        lam_hat: float) -> float:
    """Alignment residual of a one-form w against an eigenbasis.

    ``b`` is the diagonal edge mass (``exterior.star1_values``) and
    ``lam_hat`` the form's Rayleigh quotient, |dw|^2 + |d*w|^2 relative to
    |w|^2. The residual is the b-weighted RMS distance of the form's
    eigenvalue content from ``lam_hat``, relative to ``lam_hat`` itself;
    mass outside the computed window is assigned the next-eigenvalue
    estimate (a conservative placement).
    """
    bw = b * w
    wn2 = float(w @ bw)
    c = spectrum.eigenvectors.T @ bw
    tail2 = max(wn2 - float(c @ c), 0.0)
    num2 = float(((spectrum.eigenvalues - lam_hat) ** 2) @ (c * c))
    if spectrum.next_estimate is not None:
        num2 += tail2 * max(spectrum.next_estimate - lam_hat, 0.0) ** 2
    return float(np.sqrt(num2 / wn2) / abs(lam_hat))


def multiplicity_check(spectrum: SpectrumResult, n: int, exact_flags) -> list:
    """Eigenspace dimensions against the algebra dimension bounds on S^n.

    The group at n alpha carries the conformal algebra (Killing + linear
    gradients, bound (n+1)(n+2)/2); the Killing part of that group together
    with the exact part of the 2(n+1) alpha group carries the projective
    algebra (bound n(n+2)).
    """
    groups = spectrum.groups
    if len(groups) < 2:
        raise VerifyError("refine mesh: clusters unresolved")
    g1, g2 = groups[0], groups[1]
    ratio = g2.representative / g1.representative
    expected_ratio = 2.0 * (n + 1) / n
    if abs(ratio - expected_ratio) > 0.2 * expected_ratio:
        raise VerifyError("refine mesh: leading clusters are not at the expected eigenvalue "
                          f"ratio (got {ratio:.3f}, want {expected_ratio:.3f})")
    if len(groups) == 2 and spectrum.next_estimate is not None:
        gap_ok = spectrum.next_estimate > g2.representative * 1.2
        if not gap_ok:
            raise VerifyError("refine mesh: trailing cluster open")
    flags = np.asarray(exact_flags, dtype=bool)
    killing_in_g1 = int((~flags[list(g1.indices)]).sum())
    exact_in_g2 = int(flags[list(g2.indices)].sum())
    conformal_count = g1.multiplicity
    conformal_bound = (n + 1) * (n + 2) // 2
    projective_count = exact_in_g2 + killing_in_g1
    projective_bound = n * (n + 2)
    return [
        {
            "algebra": "conformal",
            "eigenvalue": g1.representative,
            "count": conformal_count,
            "bound": conformal_bound,
            "satisfied": conformal_count <= conformal_bound,
            "equality": conformal_count == conformal_bound,
        },
        {
            "algebra": "projective",
            "eigenvalue": g2.representative,
            "count": projective_count,
            "bound": projective_bound,
            "satisfied": projective_count <= projective_bound,
            "equality": projective_count == projective_bound,
            "components": {
                "exact_second_cluster": exact_in_g2,
                "killing_first_cluster": killing_in_g1,
                "second_cluster_total": g2.multiplicity,
            },
        },
    ]


def oracle_fields(n: int, r: float, seed: int):
    """(sphere, f1, f2, rot): the oracle battery's fields on S^n of radius r.

    f1 is a degree-1 harmonic, f2 a trace-free degree-2 harmonic and rot a
    rotation (Killing) form, all drawn from a generator seeded with
    ``seed + n``.
    """
    sph = sphere_oracle.SphereContext(n, r)
    rng = np.random.default_rng(seed + n)
    f1 = sphere_oracle.HarmonicPoly(1, sph, rng.standard_normal(n + 1))
    Q = rng.standard_normal((n + 1, n + 1))
    Q = 0.5 * (Q + Q.T)
    Q -= np.trace(Q) / (n + 1) * np.eye(n + 1)
    f2 = sphere_oracle.HarmonicPoly(2, sph, Q)
    A = rng.standard_normal((n + 1, n + 1))
    rot = sphere_oracle.RotationForm(0.5 * (A - A.T), sph)
    return sph, f1, f2, rot


def _oracle_records() -> list:
    """Exact sphere-oracle battery over n in {2, 3, 5} and r in {1, 2}.

    Each record carries the measured residual, the mathematically expected
    behaviour ("zero" or "nonzero"), and a pass flag against that
    expectation. The third-order rigidity system is also evaluated on first
    eigenfunctions, where it does not vanish (they satisfy the once-
    differentiated Obata identity, not the full symmetrized system); that
    record is expected "nonzero". Each Weitzenboeck identity is evaluated on
    all three fields, those of the families it lists first (expected "zero").
    """
    so = sphere_oracle
    records = []
    for n in ORACLE_DIMENSIONS:
        for r in ORACLE_RADII:
            sph, f1, f2, rot = oracle_fields(n, r, ORACLE_SEED)
            # (field, degree, family)
            forms = {"rot": (rot, None, "killing_rotation"), "f1": (f1, 1, "conformal_gradient"),
                     "f2": (f2, 2, "projective_gradient")}
            pts = sph.sample_points(seed=ORACLE_SEED)
            # the generalized system's k = mu / (2 (n + 1)) under the printed
            # sign normalization of phi; the flipped one gives -k
            k_phi = f2.eigenvalue / (2.0 * (n + 1))
            # (check, form, residual, keyword arguments, expected behaviour)
            battery = [
                ("obata", "f1", so.obata_residual, {}, "zero"),
                ("tanno_k_alpha", "f2", so.tanno_residual, {}, "zero"),
                ("tanno_k_alpha", "f1", so.tanno_residual, {}, "nonzero"),
                ("tanno_k_mismatch", "f2", so.tanno_residual, {"k": 2 * sph.alpha}, "nonzero"),
                ("generalized_tanno_printed_sign", "f2", so.tanno_residual, {"k": k_phi},
                 "zero"),
                ("generalized_tanno_flipped_sign", "f2", so.tanno_residual, {"k": -k_phi},
                 "nonzero"),
            ]
            # each identity on all three fields, those it holds for first; its
            # report check is the key's first word ("yano", "lichnerowicz")
            for which, identity in so.WEITZENBOECK.items():
                rows = [(which.split("_")[0], form, so.weitzenboeck_residual, {"which": which},
                         "zero" if family in identity.families else "nonzero")
                        for form, (_field, _degree, family) in forms.items()]
                battery += sorted(rows, key=lambda row: row[4] != "zero")
            for check, form, residual, kwargs, expect in battery:
                field, degree, _family = forms[form]
                value = max(residual(field, x, **kwargs) for x in pts)
                ok = value < ORACLE_EXACT_TOL if expect == "zero" else value > ORACLE_LARGE
                records.append({
                    "check": check, "n": n, "r": r, "degree": degree,
                    "residual": value, "expect": expect, "pass": bool(ok),
                })
    return records


def _clusters_match(groups, alpha: float, sizes, rtols) -> bool:
    """True if ``groups`` open with the first two round-sphere clusters.

    Their eigenvalues are n alpha and 2 (n + 1) alpha; ``sizes`` and
    ``rtols`` give each cluster's multiplicity and relative tolerance.
    """
    targets = (N_DIM * alpha, 2.0 * (N_DIM + 1) * alpha)
    return len(groups) >= 2 and all(
        abs(g.representative - target) <= rtol * target and g.multiplicity == size
        for g, target, size, rtol in zip(groups, targets, sizes, rtols)
    )


def _spectrum_json(result: SpectrumResult) -> dict:
    return {
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "groups": [
            {"eigenvalue": g.representative, "multiplicity": g.multiplicity}
            for g in result.groups
        ],
        "max_residual": float(result.residuals.max()),
        "next_estimate": result.next_estimate,
    }


def _round_alpha(surface) -> float | None:
    """alpha = 1 / r^2 if the surface is a round sphere of radius r, else None."""
    a, _, c = surface.axes
    return 1.0 / (a * a) if a == c else None


def _expected_class(spec, surface) -> str:
    """Construction-implied classification, aware of the surface symmetry.

    Rotations are Killing about every axis on the round sphere but only about
    the symmetry axis on a spheroid; any other projected rotation is neither
    closed nor coclosed.
    """
    if spec.kind != "killing_rotation":
        return "gradient"
    if _round_alpha(surface) is not None:
        return "killing"
    axis = np.asarray(spec.parameters["axis"], dtype=float)
    axis = axis / np.linalg.norm(axis)
    return "killing" if abs(abs(axis[2]) - 1.0) < 1e-12 else "mixed"


class _StageGuard:
    """Runs the suite's stages; the one place where a stage failure is caught.

    A stage returns ``(value, {check: outcome})``. ``run`` returns the value
    and ANDs the outcomes into ``checks``, so a check that several stages
    report (one per field) passes only if each of them passes. A stage that
    raises is recorded in ``failures`` as "<label>: <error>", the checks
    named in ``on_failure`` are set False, and its value is None. Each
    label's wall time accumulates in ``seconds``, and ``peak_rss_mb`` holds
    the process's peak resident memory (``ru_maxrss``) when the label last
    ended; each run logs both.
    """

    def __init__(self):
        self.checks: dict = {}
        self.failures: list = []
        self.seconds: dict = {}
        self.peak_rss_mb: dict = {}

    def run(self, label: str, on_failure: tuple, stage, *args):
        start = time.perf_counter()
        try:
            value, outcomes = stage(*args)
        except Exception as exc:  # noqa: BLE001 - every stage failure is reported
            self.failures.append(f"{label}: {exc}")
            value, outcomes = None, dict.fromkeys(on_failure, False)
        for name, ok in outcomes.items():
            self.checks[name] = self.checks.get(name, True) and ok
        seconds = time.perf_counter() - start
        self.seconds[label] = self.seconds.get(label, 0.0) + seconds
        self.peak_rss_mb[label] = peak = _peak_rss_mb()
        log.info("stage %s: %.3f s, peak RSS %.1f MB", label, seconds, peak)
        return value


def _peak_rss_mb() -> float:
    """The process's peak resident memory in MB (``ru_maxrss`` is in KB on
    Linux and in bytes on macOS)."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _mesh_stage(report, surface):
    mesh = mesh_mod.build_surface(surface)
    outcome = mesh_mod.validate(mesh)
    report["mesh"] = {
        "kind": surface.kind,
        "level": surface.level,
        "vertices": mesh.n_vertices,
        "edges": mesh.n_edges,
        "faces": mesh.n_faces,
        "genus": outcome.genus,
        "validation": outcome.checks,
    }
    return mesh, {"mesh_valid": outcome.ok}


def _curvature_stage(report, mesh, surface, alpha):
    """(rho, P) from angle defects, checked against the exact extrema."""
    bounds = curvature_mod.angle_defect_curvature(mesh)
    # the low part of 2 pi, added once for all V defects, so the error does
    # not grow with the vertex count
    defect_sum = curvature_mod.angle_defects(mesh).sum() + mesh.n_vertices * TWO_PI_LOW
    defect_err = abs(defect_sum - 4.0 * np.pi)
    entry = {"rho": bounds.rho, "P": bounds.P_max, "gauss_bonnet_error": float(defect_err)}
    checks = {"gauss_bonnet": bool(defect_err < 1e-10)}
    if alpha is not None:
        entry["rho_exact"] = entry["P_exact"] = alpha
        gate = BOUND_REL
    else:
        # a spheroid's curvature extrema sit at the pole and on the equator
        a, c = surface.a, surface.c
        extrema = sorted(curvature_mod.ellipsoid_curvature_exact(a, a, c, point)
                         for point in ((0.0, 0.0, c), (a, 0.0, 0.0)))
        entry["rho_exact"], entry["P_exact"] = extrema
        # the pole curvature extremum resolves at first order; gates
        # follow the measured convergence (1.5% at level 6, ~6% at 5)
        gate = 0.05 if surface.level >= 6 else 0.10
    rel_rho = abs(bounds.rho - entry["rho_exact"]) / entry["rho_exact"]
    rel_P = abs(bounds.P_max - entry["P_exact"]) / entry["P_exact"]
    entry["max_relative_error"] = float(max(rel_rho, rel_P))
    if alpha is not None or surface.level >= 5:
        checks["curvature_oracle"] = entry["max_relative_error"] <= gate
    else:
        report["notes"].append(
            "curvature extrema recorded but not gated below level 5 "
            "on spheroids (pole resolution)"
        )
    report["curvature"] = entry
    return (bounds.rho, bounds.P_max), checks


def _scalar_stage(report, mesh, config, alpha, solves):
    """The scalar spectrum, which seeds the Hodge split."""
    result = scalar_spectrum(mesh, EIGENPAIRS, SOLVER_TOL, seed=config.seed)
    solves.append(_solve_record("scalar", "first", result, SOLVER_TOL))
    report["spectra"]["scalar"] = _spectrum_json(result)
    if alpha is None:
        return result, {}
    return result, {"scalar_spectrum": _clusters_match(
        result.groups[1:], alpha, (N_DIM + 1, 2 * N_DIM + 1), SCALAR_CLUSTER_RTOL,
    )}


def _oneform_stage(report, mesh, config, alpha, scalar, solves):
    """(spectrum, exact flags) of the one-form Laplacian, from the Hodge split."""
    if scalar is None:
        raise VerifyError("no scalar spectrum to start the Hodge split from")
    result, flags = oneform_spectrum_hodge_split(mesh, EIGENPAIRS, SOLVER_TOL, scalar,
                                                 seed=config.seed, solves=solves)
    report["spectra"]["oneform"] = _spectrum_json(result)
    if alpha is None:
        return (result, flags), {}
    ok = _clusters_match(
        result.groups, alpha, (2 * (N_DIM + 1), 2 * (2 * N_DIM + 1)), ONEFORM_CLUSTER_RTOL,
    )
    no_harmonic = result.eigenvalues[0] > 0.5 * N_DIM * alpha
    return (result, flags), {"oneform_spectrum": bool(ok and no_harmonic)}


def _bounds_entry(kind: str, lam_hat: float, align: float, curv, round_sphere: bool):
    """(report entry, pass) of one field's eigenvalue against its bound theorem."""
    if align > HYPOTHESIS_TOL:
        return {
            "mode": None, "lower": None, "upper_printed": None,
            "upper_rederived": None, "satisfied_printed": None,
            "satisfied_rederived": None, "attainment": "none",
            "note": HYPOTHESIS_VIOLATED,
        }, True
    mode = "conformal" if kind == "conformal_gradient" else "projective"
    entry = check_bounds(lam_hat, *curv, N_DIM, mode, BOUND_REL)
    sat = (entry["satisfied_rederived"] if entry["satisfied_rederived"] is not None
           else entry["satisfied_printed"])
    # endpoint sharpness is a round-sphere statement; on other surfaces an
    # interior eigenvalue is legitimate
    endpoint = (entry["attainment"] in ("lower", "upper") if round_sphere
                else entry["attainment"] != "none")
    conformal_ok = True
    if kind == "killing_rotation" and round_sphere:
        conformal_ok = check_bounds(lam_hat, *curv, N_DIM, "conformal",
                                    BOUND_REL)["satisfied_printed"]
    return entry, sat and endpoint and conformal_ok


def _field_stage(report, spec, mesh, config, alpha, oneform, curv):
    """Sample one field into its report entry: class, eigenvalue, bounds, identities.

    The entry is appended first, so a field that fails keeps what it got.
    """
    entry = {
        "name": spec.name, "lambda": None, "eigenform_residual": None,
        "dstar_norm": None, "d_norm": None, "class": None,
        "bounds": None, "identities": {},
    }
    report["fields"].append(entry)
    omega = fields_mod.sample_oneform(spec.build(), mesh)
    nd, nw = exterior.codifferential_norm(mesh, omega)
    entry["dstar_norm"], entry["d_norm"] = nd, nw
    entry["class"] = classify_field(nd, nw, CLASS_TOL)
    checks = {"classification": entry["class"] == _expected_class(spec, config.surface)}
    spectrum, _flags = oneform
    # <w, Delta w> / |w|^2, the Rayleigh quotient of the one-form pencil
    lam_hat = nd * nd + nw * nw
    align = eigenform_alignment(spectrum, exterior.star1_values(mesh), omega.values, lam_hat)
    entry["lambda"], entry["eigenform_residual"] = lam_hat, align
    entry["bounds"], checks["field_bounds"] = _bounds_entry(
        spec.kind, lam_hat, align, curv, alpha is not None)
    entry["identities"] = values = discrete_identity_residual(mesh, omega)
    checks["discrete_identities"] = alpha is None or all(
        values[which] < IDENTITY_SMALL if spec.kind in identity.families
        else values[which] > IDENTITY_LARGE
        for which, identity in sphere_oracle.WEITZENBOECK.items())
    return None, checks


def _oracle_stage(report):
    report["oracle"] = _oracle_records()
    return None, {"oracle_exact": all(rec["pass"] for rec in report["oracle"])}


def _multiplicity_stage(report, oneform):
    spectrum, flags = oneform
    report["multiplicity"] = records = multiplicity_check(spectrum, N_DIM, flags)
    return None, {"multiplicity": all(rec["satisfied"] and rec["equality"] for rec in records)}


def run_suite(config: RunConfig) -> dict:
    """Run the verification stages on ``config.surface``; return the report.

    The stages run in the order of the module docstring, each under
    ``_StageGuard``, so a stage that raises is reported and the later stages
    still run. A stage is skipped when one it needs failed, below
    ``MIN_SPECTRAL_LEVEL`` (spectra and fields) and off the round sphere
    (multiplicity); the one-form stage fails if the scalar one did, its start.
    ``report["pass"]`` is True iff every mandatory check passed and no stage
    failed; ``report["run"]`` gives the elapsed time and each stage's, in
    seconds, the peak resident memory after each stage, every solve's
    record, the seed and the library versions.
    """
    start = time.perf_counter()
    surface = config.surface
    alpha = _round_alpha(surface)
    notes: list = []
    report: dict = {
        "mesh": None, "curvature": None,
        "spectra": {"scalar": None, "oneform": None},
        "fields": [], "oracle": [], "multiplicity": [],
        "pass": False, "notes": notes, "run": None,
    }
    guard = _StageGuard()
    solves: list = []

    mesh = guard.run("mesh", ("mesh_valid",), _mesh_stage, report, surface)
    curv = oneform = None
    if mesh is not None:
        curv = guard.run("curvature", ("curvature_oracle",), _curvature_stage,
                         report, mesh, surface, alpha)
        if surface.level < MIN_SPECTRAL_LEVEL:
            notes.append(
                "insufficient resolution: spectra, fields, and multiplicity "
                f"checks need level >= {MIN_SPECTRAL_LEVEL}"
            )
        else:
            scalar = guard.run("scalar spectrum", ("scalar_spectrum",), _scalar_stage,
                               report, mesh, config, alpha, solves)
            oneform = guard.run("one-form spectrum", ("oneform_spectrum",),
                                _oneform_stage, report, mesh, config, alpha, scalar, solves)
            del scalar  # the split's seed; release it before the fields run

    if oneform is not None and curv is not None:
        # each field can only clear these; an empty roster passes them
        guard.checks.update(dict.fromkeys(
            ("classification", "field_bounds", "discrete_identities"), True))
        for spec in config.fields:
            guard.run(f"field {spec.name}", ("classification",), _field_stage,
                      report, spec, mesh, config, alpha, oneform, curv)
        notes.append(
            "conformal identity (3.2-type): the d d* coefficient (1 - 2/n) "
            "vanishes at n = 2; the check degenerates to |Delta w - 2 Ric* w|"
        )

    guard.run("oracle", ("oracle_exact",), _oracle_stage, report)

    if alpha is None:
        notes.append("multiplicity bounds apply to the round sphere only")
    elif oneform is not None:
        guard.run("multiplicity", ("multiplicity",), _multiplicity_stage, report, oneform)

    if guard.failures:
        report["failures"] = guard.failures
    report["checks"] = guard.checks
    report["pass"] = bool(guard.checks) and all(guard.checks.values()) and not guard.failures
    report["run"] = {"elapsed_s": time.perf_counter() - start, "stages": guard.seconds,
                     "peak_rss_mb": guard.peak_rss_mb,
                     "solves": solves, "seed": config.seed,
                     "versions": {"python": platform.python_version(),
                                  "numpy": np.__version__, "scipy": scipy.__version__}}
    return report
