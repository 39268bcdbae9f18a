import copy
import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from hodgelab import exterior, fields, mesh, spectral, sphere_oracle, verify
from hodgelab.config import RunConfig, default_config
from hodgelab.mesh import SurfaceSpec
from hodgelab.spectral import SpectrumResult, group_multiplicities
from hodgelab.verify import (
    VerifyError,
    check_bounds,
    classify_field,
    discrete_identity_residual,
    eigenform_alignment,
    multiplicity_check,
    oneform_spectrum_hodge_split,
    run_suite,
)


def test_classify_field_cases():
    assert classify_field(1e-6, 0.8, 1e-3) == "killing"
    assert classify_field(0.9, 1e-7, 1e-3) == "gradient"
    assert classify_field(0.5, 0.5, 1e-3) == "mixed"
    assert classify_field(1e-6, 1e-7, 1e-3) == "mixed"
    with pytest.raises(VerifyError):
        classify_field(-1.0, 0.5, 1e-3)
    with pytest.raises(VerifyError):
        classify_field(0.1, 0.5, 0.0)


def test_check_bounds_conformal_sharp():
    out = check_bounds(2.0, 1.0, 1.0, 2, "conformal", 0.02)
    assert out["mode"] == "conformal"
    assert out["satisfied_printed"]
    assert out["satisfied_rederived"] is None
    assert out["attainment"] == "lower"  # degenerate interval: both ends
    assert out["lower"] == 2.0 and out["upper_printed"] == 2.0
    assert "note" not in out


def test_check_bounds_projective_printed_inconsistent():
    out = check_bounds(6.0, 1.0, 1.0, 2, "projective", 0.02)
    assert not out["satisfied_printed"]  # 6 > 2/3
    assert out["satisfied_rederived"]
    assert out["attainment"] == "upper"
    assert out["upper_printed"] == pytest.approx(2.0 / 3.0)
    assert out["upper_rederived"] == pytest.approx(6.0)
    assert out["note"] == "inconsistent as printed"


def test_check_bounds_projective_killing_lower():
    out = check_bounds(2.0, 1.0, 1.0, 2, "projective", 0.02)
    assert out["attainment"] == "lower"
    assert out["satisfied_rederived"]


def test_check_bounds_scale_covariance():
    keys = ("satisfied_printed", "satisfied_rederived", "attainment")
    for lam, mode in ((2.0, "conformal"), (6.0, "projective"), (2.0, "projective")):
        base = check_bounds(lam, 1.0, 1.0, 2, mode, 0.02)
        c2 = 5.5  # metric scaled by c^2 divides eigenvalues and curvature
        scaled = check_bounds(lam / c2, 1.0 / c2, 1.0 / c2, 2, mode, 0.02)
        assert [scaled[k] for k in keys] == [base[k] for k in keys]


def test_check_bounds_validation():
    with pytest.raises(Exception):
        check_bounds(2.0, 2.0, 1.0, 2, "conformal", 0.02)
    with pytest.raises(VerifyError):
        check_bounds(-1.0, 1.0, 1.0, 2, "conformal", 0.02)


@pytest.mark.parametrize("which,field_kind,small", [
    ("yano_2_2", "rotation", True),
    ("yano_2_2", "quadratic", True),
    ("yano_2_2", "linear", False),
    ("lichnerowicz_3_2", "rotation", True),
    ("lichnerowicz_3_2", "linear", True),
    ("lichnerowicz_3_2", "quadratic", False),
])
def test_discrete_identity_residuals_level5(which, field_kind, small, sphere_mesh):
    m = sphere_mesh(5)
    field = {
        "rotation": fields.KillingRotation([0, 0, 1]),
        "linear": fields.ConformalGradient([0, 0, 1]),
        "quadratic": fields.ProjectiveGradient(
            np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0.0]])),
    }[field_kind]
    w = fields.sample_oneform(field, m)
    value = discrete_identity_residual(m, w)[which]
    if small:
        assert value < 0.05
    else:
        assert value > 0.3


def test_discrete_identity_residual_decreases(sphere_mesh):
    values = []
    for level in (3, 4, 5):
        m = sphere_mesh(level)
        w = fields.sample_oneform(fields.KillingRotation([0, 0, 1]), m)
        values.append(discrete_identity_residual(m, w)["yano_2_2"])
    assert values[0] > values[1] > values[2]


def test_discrete_identity_residual_validation(sphere_mesh):
    m = sphere_mesh(2)
    w = fields.sample_oneform(fields.KillingRotation([0, 0, 1]), m)
    with pytest.raises(exterior.ExteriorError):
        discrete_identity_residual(sphere_mesh(1), w)


def test_hodge_split_matches_direct_solver(sphere_mesh):
    m = sphere_mesh(2)
    split, flags = oneform_spectrum_hodge_split(m, 12, 1e-8, verify.scalar_spectrum(m, 12, 1e-8))
    A1, B1 = exterior.laplacian1(m)
    direct = spectral.solve_lowest(A1, B1, 12, 1e-8, seed=0)
    assert np.abs(split.eigenvalues - direct.eigenvalues).max() < 1e-7
    # each side stops on its pairs' one-form residuals, so every merged pair
    # meets the split's own tol
    assert (split.residuals <= 1e-8).all()
    # exact forms are closed, coexact forms are coclosed
    for lam, vec, is_exact in zip(split.eigenvalues, split.eigenvectors.T, flags):
        nd, nw = exterior.codifferential_norm(m, exterior.Cochain(vec))
        if is_exact:
            assert nw < 1e-8 <= nd
        else:
            assert nd < 1e-8 <= nw


def _eigsh_reference(m, count):
    """Lowest ``count`` eigenvalues of (A1, B1) on the mesh ``m``.

    Shift-invert ARPACK on the one-form pencil itself is an independent
    reference; a seeded start and extra pairs keep it deterministic.
    """
    A1, B1 = exterior.laplacian1(m)
    v0 = np.random.default_rng(0).standard_normal(A1.shape[0])
    return np.sort(eigsh(A1.matrix, k=count + 4, M=B1.matrix, sigma=-0.1,
                         which="LM", v0=v0, return_eigenvectors=False))[:count]


@pytest.fixture(scope="module")
def spheroid_l4_reference(spheroid_mesh):
    """Lowest 16 eigenvalues of (A1, B1) on the level-4 (1,1,2) spheroid."""
    return _eigsh_reference(spheroid_mesh(4), 16)


def _scalar_spectrum(m):
    """The scalar spectrum, as verify solves it."""
    return verify.scalar_spectrum(m, verify.EIGENPAIRS, verify.SOLVER_TOL)


def _iterations(solves):
    return {(s["pencil"], s["why"]): s["iterations"] for s in solves}


def test_hodge_split_window_extension_matches_eigsh(monkeypatch, spheroid_mesh,
                                                    spheroid_l4_reference):
    # for 7 pairs on the level-4 (1,1,2) spheroid the face side's window
    # cuts the merge short by one value: the face side is solved again one
    # pair wider, from 4 to 5 pairs, and the vertex side once after it, three
    # solves in all
    m = spheroid_mesh(4)
    scalar = verify.scalar_spectrum(m, 7, verify.SOLVER_TOL)
    calls = []
    solve = verify.solve_lowest

    def counting(A, B, k, tol, **kwargs):
        calls.append((A.shape[0], k))
        return solve(A, B, k, tol, **kwargs)

    monkeypatch.setattr(verify, "solve_lowest", counting)
    split, _ = oneform_spectrum_hodge_split(m, 7, 1e-6, scalar)
    assert calls == [(m.n_faces, 4), (m.n_faces, 5), (m.n_vertices, 4)]
    reference = spheroid_l4_reference[:7]
    assert (np.abs(split.eigenvalues - reference) / reference).max() <= 1e-9


@pytest.mark.parametrize("count,first", [(3, 2), (13, 7), (19, 10)])
def test_hodge_split_re_solves_the_face_side_once_by_its_shortfall(monkeypatch, spheroid_mesh,
                                                                   count, first):
    # on the level-4 (1,1,3) spheroid the first face pass falls short for
    # these counts; the one re-solve is wider by the shortfall, the count of
    # the m lowest that the first pass's merge did not hold below its windows
    m = spheroid_mesh(4, 1.0, 3.0)
    scalar = verify.scalar_spectrum(m, verify.split_scalar_pairs(m, count), verify.SOLVER_TOL)
    results = []
    solve = verify.solve_lowest

    def keeping(A, B, k, tol, **kwargs):
        results.append((A.shape[0], k, solve(A, B, k, tol, **kwargs)))
        return results[-1][2]

    monkeypatch.setattr(verify, "solve_lowest", keeping)
    split, _ = oneform_spectrum_hodge_split(m, count, verify.SOLVER_TOL, scalar)
    faces = [(k, result) for n, k, result in results if n == m.n_faces]
    assert [k for k, _ in faces] == [first, first + 1]
    face = faces[0][1]
    window = min(scalar.next_estimate, face.next_estimate)
    merged = np.concatenate([scalar.eigenvalues[1:], face.eigenvalues[1:]])
    assert faces[1][0] - first == count - (merged <= window * (1 + 1e-9)).sum()
    reference = _eigsh_reference(m, count)
    assert (np.abs(split.eigenvalues - reference) / reference).max() <= 1e-9


def test_seeded_hodge_split_matches_eigsh(spheroid_mesh, spheroid_l4_reference):
    # the scalar eigenvectors seed the vertex side, which then needs about
    # one iteration, and their face averages the face side
    m = spheroid_mesh(4)
    solves = []
    seeded, _ = oneform_spectrum_hodge_split(m, 16, 1e-6, _scalar_spectrum(m),
                                             solves=solves)
    A2, B2 = exterior.laplacian2(m)
    cold_face = spectral.solve_lowest(A2, B2, 9, 1e-6, seed=0,
                                      known_kernel=np.ones(m.n_faces),
                                      residual_map=exterior.coexact_map(m))
    its = _iterations(solves)
    assert list(its) == [("face side", "first"), ("vertex side", "first")]
    assert all(s["seeded"] for s in solves)
    assert its["vertex side", "first"] <= 2
    assert its["face side", "first"] < cold_face.iterations
    reference = spheroid_l4_reference
    assert (np.abs(seeded.eigenvalues - reference) / reference).max() <= 1e-9
    assert (seeded.residuals <= 1e-6).all()


def test_hodge_split_fails_closed_on_a_loose_side(monkeypatch, spheroid_mesh):
    # the face side's first solve is made 30 times too loose for its one-form
    # pairs; the split does not re-solve it but fails, naming the worst
    # one-form residual
    m = spheroid_mesh(4)
    tol = 1e-6
    solve = verify.solve_lowest
    loosened = []

    def loose_first_face(A, B, k, side_tol, **kwargs):
        if A.shape[0] == m.n_faces and not loosened:
            loosened.append(side_tol)
            side_tol = 30.0 * side_tol
        return solve(A, B, k, side_tol, **kwargs)

    monkeypatch.setattr(verify, "solve_lowest", loose_first_face)
    solves = []
    with pytest.raises(VerifyError, match=r"residuals above 1e-06 \(worst ") as exc:
        oneform_spectrum_hodge_split(m, 16, tol, _scalar_spectrum(m), solves=solves)
    assert loosened == [tol]
    assert [(s["pencil"], s["why"]) for s in solves] == [
        ("face side", "first"), ("vertex side", "first")]
    worst = float(str(exc.value).split("worst ")[1].rstrip(")"))
    assert worst > tol
    assert worst == pytest.approx(solves[0]["max_residual"], rel=5e-3)


def test_hodge_split_next_estimate_keeps_a_computed_pair(spheroid_mesh):
    # on the level-3 (1,1,3) spheroid the 17th one-form eigenvalue is exact,
    # below both windows, and the scalar spectrum holds it; next_estimate is
    # that value
    m = spheroid_mesh(3, 1.0, 3.0)
    split, _ = oneform_spectrum_hodge_split(m, 16, 1e-6, _scalar_spectrum(m))
    seventeenth = spectral.dense_reference(*exterior.laplacian1(m), 17)[16]
    assert split.next_estimate == pytest.approx(seventeenth, rel=1e-9)


@pytest.mark.parametrize("level,c", [(2, 2.0), (3, 2.0), (3, 3.0)])
def test_hodge_split_next_estimate_bounds_the_next_pair(level, c, spheroid_mesh):
    # with one pair the merge takes no exact value and the vertex side
    # iterates nothing; next_estimate must still be an upper estimate of the
    # (m+1)-th one-form eigenvalue, for every count
    m = spheroid_mesh(level, 1.0, c)
    scalar = _scalar_spectrum(m)
    dense = spectral.dense_reference(*exterior.laplacian1(m), 4)
    for count in (1, 2, 3):
        split, _ = oneform_spectrum_hodge_split(m, count, 1e-6, scalar)
        assert split.next_estimate <= dense[count] * (1 + 1e-6)


def test_hodge_split_names_a_short_scalar_spectrum(sphere_mesh):
    m = sphere_mesh(3)
    scalar = _scalar_spectrum(m)
    with pytest.raises(VerifyError, match=r"needs max\(m, 4\) scalar pairs, got 16"):
        oneform_spectrum_hodge_split(m, 17, 1e-6, scalar)
    # a scalar window below the merge's 16th value cannot be widened here
    scalar.next_estimate = float(scalar.eigenvalues[3])
    with pytest.raises(VerifyError, match=r"the 15 exact eigenvalues below the scalar "
                                          r"window 1\.9\d* do not cover the 16 lowest"):
        oneform_spectrum_hodge_split(m, 16, 1e-6, scalar)


def test_hodge_split_one_re_solve_reaches_m_plus_one_pairs(sphere_mesh):
    # every nonkernel scalar value far above the coexact ones: the merge
    # needs 22 coexact values, the first face pass of 12 pairs holds 11, and
    # the one re-solve, 11 pairs wider, is m + 1 = 23 pairs, whose 22 coexact
    # values lie below its window
    m = sphere_mesh(2)
    scalar = verify.scalar_spectrum(m, 22, verify.SOLVER_TOL)
    scalar.eigenvalues[1:] = 1e6
    scalar.next_estimate = 2e6
    solves = []
    split, flags = oneform_spectrum_hodge_split(m, 22, verify.SOLVER_TOL, scalar,
                                                solves=solves)
    assert [s["m"] for s in solves if s["pencil"] == "face side"] == [12, 23]
    assert not any(flags)
    assert (split.residuals <= verify.SOLVER_TOL).all()


def test_hodge_split_checks_the_edge_mass_before_solving(monkeypatch, sphere_mesh):
    # plain axis scaling of an icosphere stretches angle pairs past pi, so
    # some star1 entries are nonpositive and B1 is not SPD
    base = sphere_mesh(4)
    stretched = mesh.TriangleMesh(vertices=base.vertices * np.array([1.0, 1.0, 2.0]),
                                  faces=base.faces)
    assert (exterior.star1_values(stretched) <= 0).any()
    scalar = _scalar_spectrum(base)  # the split reads only its size before the check

    def no_solve(*args, **kwargs):
        raise AssertionError("a side solve ran before the edge-mass check")

    monkeypatch.setattr(verify, "solve_lowest", no_solve)
    with pytest.raises(exterior.ExteriorError, match="mesh quality insufficient for "
                                                     "1-form mass"):
        oneform_spectrum_hodge_split(stretched, 16, 1e-6, scalar)


def test_hodge_split_working_set(traced_peak):
    # each face solve holds at most three n-row blocks and its start dies
    # once copied, and the gate forms one pair's residual at a time. The
    # traced peak above the memory held at entry, in blocks of n_faces x 14
    # doubles (the face solve's block), reads 6.11 on the level-5 sphere,
    # where the face solve's fullest step sets it; it read 6.25 with the
    # gate's E x m residual and V x m divergence blocks, 6.64 with four blocks
    # per face step and 9.4 with a new X per step, the face start kept and
    # the whole A1 x formed
    m = mesh.build_icosphere(5)
    scalar = verify.scalar_spectrum(m, verify.EIGENPAIRS, verify.SOLVER_TOL)
    solves = []
    _, peak = traced_peak(lambda: oneform_spectrum_hodge_split(
        m, verify.EIGENPAIRS, verify.SOLVER_TOL, scalar, solves=solves))
    block = solves[0]["block"]
    assert (solves[0]["pencil"], block) == ("face side", 14)
    assert peak / (m.n_faces * block * 8) < 6.2


def test_gauss_bonnet_error_does_not_grow_with_the_vertex_count(sphere_mesh):
    # each defect is formed from fl(2 pi), short of 2 pi by 2.4e-16; the
    # check adds that back once for all V, so on the level-6 sphere the
    # error is 2.4e-13, where the V copies made it 1.03e-11
    m = sphere_mesh(6)
    report = {"notes": []}
    surface = SurfaceSpec(kind="icosphere", level=6, radius=1.0)
    _, checks = verify._curvature_stage(report, m, surface, 1.0)
    assert report["curvature"]["gauss_bonnet_error"] < 1e-12
    assert checks["gauss_bonnet"]


def test_eigenform_alignment_mixture_oracle(sphere_mesh):
    # mixing eigenvectors of two clusters with equal weight puts the Rayleigh
    # quotient at the midpoint and the alignment residual at
    # (half the cluster distance) / midpoint
    m = sphere_mesh(3)
    s1 = exterior.star1_values(m)
    split, _ = oneform_spectrum_hodge_split(m, 16, 1e-8, verify.scalar_spectrum(m, 16, 1e-8))
    v2 = split.eigenvectors[:, 0]
    v6 = split.eigenvectors[:, 6]
    lam2, lam6 = split.eigenvalues[0], split.eigenvalues[6]
    mixed = v2 + v6

    def lam_hat_of(w):
        nd, nw = exterior.codifferential_norm(m, exterior.Cochain(w))
        return nd**2 + nw**2

    lam_hat = lam_hat_of(mixed)
    mid = 0.5 * (lam2 + lam6)
    assert lam_hat == pytest.approx(mid, rel=1e-10)
    res = eigenform_alignment(split, s1, mixed, lam_hat)
    assert res == pytest.approx((lam6 - lam2) / 2.0 / mid, rel=1e-6)
    # a pure eigenvector aligns to machine precision
    assert eigenform_alignment(split, s1, v6, lam_hat_of(v6)) < 1e-6


@pytest.mark.parametrize("build", [
    lambda: mesh.build_icosphere(3, 1.0),
    lambda: mesh.build_spheroid(3, 1.0, 2.0),
], ids=["sphere", "spheroid"])
def test_hodge_norms_are_the_weak_form_pairings(build):
    """|dw|^2 + |d*w|^2 is w.A1 w / w.B1 w, and the identity residual is the
    weak-form pairing |w.(A1 w - 2 star1 Ric w - c dd_weak)| / w.A1 w."""
    from hodgelab import curvature
    from hodgelab.config import builtin_fields

    m = build()
    A1, B1 = (op.matrix for op in exterior.laplacian1(m))
    s1 = exterior.star1_values(m)
    D0 = exterior.d0(m)
    K = curvature.angle_defect_curvature(m).per_vertex_K
    n = verify.N_DIM
    coeffs = {"yano_2_2": 2.0 / (n + 1), "lichnerowicz_3_2": -(1.0 - 2.0 / n)}
    forms = [exterior.Cochain(np.random.default_rng(0).standard_normal(m.n_edges))]
    forms += [fields.sample_oneform(spec.build(), m) for spec in builtin_fields()]
    for omega in forms:
        w = omega.values
        nd, nw = exterior.codifferential_norm(m, omega)
        delta_w = A1 @ w
        assert nd**2 + nw**2 == pytest.approx((w @ delta_w) / (w @ (B1 @ w)), rel=1e-12)
        dd_weak = s1 * (D0 @ ((D0.T @ (s1 * w)) / m.vertex_areas()))
        ric_w = curvature.ricci_apply(m, K, omega).values
        residuals = discrete_identity_residual(m, omega)
        assert list(residuals) == list(coeffs)
        for which, c in coeffs.items():
            weak = abs(w @ (delta_w - 2.0 * s1 * ric_w - c * dd_weak)) / (w @ delta_w)
            assert residuals[which] == pytest.approx(weak, abs=1e-12)


# (check, degree, expect) of the oracle battery's rows, for each (n, r)
ORACLE_ROWS = (
    ("obata", 1, "zero"),
    ("tanno_k_alpha", 2, "zero"),
    ("tanno_k_alpha", 1, "nonzero"),
    ("tanno_k_mismatch", 2, "nonzero"),
    ("generalized_tanno_printed_sign", 2, "zero"),
    ("generalized_tanno_flipped_sign", 2, "nonzero"),
    ("yano", None, "zero"),
    ("yano", 2, "zero"),
    ("yano", 1, "nonzero"),
    ("lichnerowicz", None, "zero"),
    ("lichnerowicz", 1, "zero"),
    ("lichnerowicz", 2, "nonzero"),
)


def test_oracle_records_keep_their_rows_and_order():
    # the battery's 72 records, in report order; rot has degree None
    records = verify._oracle_records()
    assert [(rec["check"], rec["n"], rec["r"], rec["degree"], rec["expect"])
            for rec in records] == [(check, n, r, degree, expect)
                                    for n in (2, 3, 5) for r in (1.0, 2.0)
                                    for check, degree, expect in ORACLE_ROWS]
    assert all(rec["pass"] for rec in records)


@pytest.mark.parametrize("owner,name,failing", [
    (sphere_oracle.SphereContext, "ricci_eigenvalue", {"yano", "lichnerowicz"}),
    (sphere_oracle, "laplace_eigenvalue",
     {"obata", "generalized_tanno_printed_sign", "yano", "lichnerowicz"}),
], ids=["ricci", "laplace"])
def test_oracle_exact_fails_on_a_wrong_closed_form(monkeypatch, owner, name, failing):
    # a closed form 1 % off breaks every identity that reads it on all six
    # spheres; only "zero"-expected rows fail, a "nonzero" one stays O(1)
    right = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: 1.01 * right(*args))
    report = {}
    _, checks = verify._oracle_stage(report)
    failed = [rec for rec in report["oracle"] if not rec["pass"]]
    assert {rec["check"] for rec in failed} == failing
    assert len(failed) == 6 * len(failing)
    assert all(rec["expect"] == "zero" for rec in failed)
    assert checks == {"oracle_exact": False}


def _synthetic_spectrum(values):
    ev = np.asarray(values, dtype=float)
    return SpectrumResult(
        eigenvalues=ev,
        eigenvectors=np.eye(len(ev)),
        residuals=np.zeros(len(ev)),
        groups=group_multiplicities(ev),
        next_estimate=float(ev[-1] * 2.0),
    )


def test_multiplicity_check_sphere_counts():
    ev = [2.0] * 6 + [6.0] * 10
    flags = [True] * 3 + [False] * 3 + [True] * 5 + [False] * 5
    records = multiplicity_check(_synthetic_spectrum(ev), 2, flags)
    conformal, projective = records
    assert conformal["count"] == 6 and conformal["bound"] == 6
    assert conformal["equality"] and conformal["satisfied"]
    assert projective["count"] == 8 and projective["bound"] == 8
    assert projective["equality"] and projective["satisfied"]
    assert projective["components"] == {
        "exact_second_cluster": 5,
        "killing_first_cluster": 3,
        "second_cluster_total": 10,
    }


def test_multiplicity_check_unresolved_groups():
    with pytest.raises(VerifyError, match="refine mesh: "):
        multiplicity_check(_synthetic_spectrum([2.0] * 16), 2, [True] * 16)
    # clusters at the wrong ratio are also rejected
    ev = [2.0] * 6 + [4.0] * 10
    with pytest.raises(VerifyError, match="refine mesh: "):
        multiplicity_check(_synthetic_spectrum(ev), 2, [True] * 16)


def test_run_suite_structure_and_determinism(sphere_mesh):
    cfg = RunConfig(surface=SurfaceSpec(kind="icosphere", level=3, radius=1.0))
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    for rep in (rep1, rep2):
        assert set(rep) >= {"mesh", "curvature", "spectra", "fields", "oracle",
                            "multiplicity", "pass", "run"}
        for f in rep["fields"]:
            assert set(f) == {"name", "lambda", "eigenform_residual",
                              "dstar_norm", "d_norm", "class", "bounds",
                              "identities"}
    a, b = copy.deepcopy(rep1), copy.deepcopy(rep2)
    a.pop("run")
    b.pop("run")
    assert json.dumps(a, default=float) == json.dumps(b, default=float)


def test_run_suite_level3_passes(sphere_mesh):
    cfg = RunConfig(surface=SurfaceSpec(kind="icosphere", level=3, radius=1.0))
    rep = run_suite(cfg)
    assert rep["pass"]
    assert rep["checks"]["multiplicity"]
    modes = {f["name"]: f["bounds"]["mode"] for f in rep["fields"]}
    assert modes["rotation_x"] == "projective"
    assert modes["gradient_x"] == "conformal"
    notes = [f["bounds"].get("note") for f in rep["fields"]]
    assert "inconsistent as printed" in notes
    # one record per solve; the scalar eigenvectors seed both split sides,
    # and the face side is solved before the vertex side
    solves = rep["run"]["solves"]
    assert [(s["pencil"], s["why"], s["seeded"]) for s in solves] == [
        ("scalar", "first", False), ("face side", "first", True),
        ("vertex side", "first", True)]
    assert [s["n"] for s in solves] == [rep["mesh"]["vertices"], rep["mesh"]["faces"],
                                        rep["mesh"]["vertices"]]
    assert all(0 < s["max_residual"] <= s["tol"] for s in solves)
    assert solves[2]["iterations"] <= 2 < solves[0]["iterations"]
    # the vertex pencil runs the V-cycle, the face pencil the LU; the block
    # is the requested pairs plus the padding
    assert [(s["preconditioner"], s["block"]) for s in solves] == [
        ("multigrid", verify.EIGENPAIRS + spectral.BLOCK_PADDING),
        ("lu", solves[1]["m"] + spectral.BLOCK_PADDING),
        ("multigrid", solves[2]["m"] + spectral.BLOCK_PADDING)]
    # only the cold scalar solve starts from the coarse levels (42 and 162
    # vertices hold its 21-column block)
    assert [[n for n, _its in s["coarse_levels"]] for s in solves] == [[42, 162], [], []]
    assert rep["spectra"]["oneform"]["max_residual"] <= verify.SOLVER_TOL
    assert rep["run"]["seed"] == cfg.seed
    assert set(rep["run"]["versions"]) == {"python", "numpy", "scipy"}


def test_run_suite_never_assembles_the_oneform_stiffness(monkeypatch):
    # the split's gate applies A1 through the side maps; laplacian1 is only
    # the reference pencil of the tests and the benchmark's frozen spectra
    def assembled(*args):
        raise AssertionError("laplacian1 assembled on the verify path")

    monkeypatch.setattr(exterior, "laplacian1", assembled)
    rep = run_suite(_level3_config())
    assert rep["pass"], rep["failures"]


def test_run_suite_records_peak_rss_per_stage(caplog):
    # ru_maxrss after each stage, keyed like run.stages; a peak never falls,
    # and each stage's log line carries the same value
    with caplog.at_level("INFO", logger="hodgelab.verify"):
        rep = run_suite(_level3_config())
    peaks = rep["run"]["peak_rss_mb"]
    assert list(peaks) == list(rep["run"]["stages"])
    values = list(peaks.values())
    assert values[0] > 0
    assert values == sorted(values)
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
    assert logged == [f"stage {label}: {seconds:.3f} s, peak RSS {peaks[label]:.1f} MB"
                      for label, seconds in rep["run"]["stages"].items()]


@pytest.mark.parametrize("fault", [False, True])
def test_scalar_gate_catches_a_uniform_vertex_mass(monkeypatch, fault):
    # the vertex mass replaced by its mean is an inconsistent discretization
    # whose first two scalar clusters still pass; its l = 3 cluster at
    # 12 alpha breaks into 11.46 x3 + 12.10 x4 on the level-3 sphere, which
    # only the gate's third cluster (multiplicity 7) catches
    m = mesh.build_icosphere(3)
    if fault:
        laplacian0 = exterior.laplacian0

        def uniform_mass(built):
            A, B = laplacian0(built)
            b = B.matrix.diagonal()
            return A, exterior.SparseOperator(np.mean(b) * sp.identity(b.size, format="csr"))

        monkeypatch.setattr(exterior, "laplacian0", uniform_mass)
    report = {"spectra": {}}
    result, checks = verify._scalar_stage(report, m, _level3_config(), 1.0, [])
    assert [g.multiplicity for g in result.groups[1:3]] == [3, 5]
    assert checks["scalar_spectrum"] is (not fault)


def test_run_suite_insufficient_resolution():
    cfg = RunConfig(surface=SurfaceSpec(kind="icosphere", level=0, radius=1.0))
    rep = run_suite(cfg)
    assert rep["spectra"]["scalar"] is None
    assert any("insufficient resolution" in note for note in rep["notes"])
    assert rep["mesh"]["vertices"] == 12
    assert rep["curvature"] is not None


def test_run_suite_radius_scaling(sphere_mesh):
    cfg = RunConfig(surface=SurfaceSpec(kind="icosphere", level=3, radius=2.0))
    rep = run_suite(cfg)
    assert rep["pass"]
    groups = rep["spectra"]["scalar"]["groups"]
    # alpha = 1/4: first nonzero cluster at n alpha = 0.5
    assert groups[1]["eigenvalue"] == pytest.approx(0.5, rel=0.01)


def _level3_config():
    return RunConfig(surface=SurfaceSpec(kind="icosphere", level=3, radius=1.0))


def test_run_suite_failing_solver_stage(monkeypatch, tmp_path):
    from hodgelab import cli

    def broken(*args, **kwargs):
        raise spectral.SpectralError("solver unavailable")

    monkeypatch.setattr(verify, "solve_lowest", broken)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "3", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    # the split starts from the scalar spectrum, so the one-form stage fails
    # without solving
    assert rep["failures"] == [
        "scalar spectrum: solver unavailable",
        "one-form spectrum: no scalar spectrum to start the Hodge split from"]
    assert rep["checks"]["scalar_spectrum"] is False
    assert rep["checks"]["oneform_spectrum"] is False
    assert rep["spectra"] == {"scalar": None, "oneform": None}
    assert rep["run"]["solves"] == []
    # the fields and multiplicity stages need the one-form spectrum
    assert rep["fields"] == [] and rep["multiplicity"] == []
    assert "classification" not in rep["checks"]
    assert "multiplicity" not in rep["checks"]
    # the oracle battery is mesh-independent and still runs
    assert rep["checks"]["oracle_exact"] is True
    assert len(rep["oracle"]) == 12 * len(verify.ORACLE_DIMENSIONS) * len(verify.ORACLE_RADII)
    assert rep["checks"]["mesh_valid"] and rep["checks"]["curvature_oracle"]
    assert rep["pass"] is False
    assert list(rep["run"]["stages"]) == ["mesh", "curvature", "scalar spectrum",
                                          "one-form spectrum", "oracle"]


def test_run_suite_failing_split_keeps_its_solves(monkeypatch, sphere_mesh):
    # the split raises at its face side, its first solve; the scalar solve
    # made before it still reaches run.solves
    n_faces = sphere_mesh(3).n_faces
    solve = verify.solve_lowest

    def face_side_fails(A, B, *args, **kwargs):
        if A.shape[0] == n_faces:
            raise spectral.SpectralError("face side unavailable")
        return solve(A, B, *args, **kwargs)

    monkeypatch.setattr(verify, "solve_lowest", face_side_fails)
    rep = run_suite(_level3_config())
    assert rep["failures"] == ["one-form spectrum: face side unavailable"]
    assert rep["checks"]["oneform_spectrum"] is False
    assert [(s["pencil"], s["why"]) for s in rep["run"]["solves"]] == [("scalar", "first")]


def test_run_suite_failing_field(monkeypatch):
    sample = fields.sample_oneform

    def broken_for_gradient_x(field, m):
        if isinstance(field, fields.ConformalGradient) and field.direction[0] == 1.0:
            raise fields.FieldError("cannot sample")
        return sample(field, m)

    monkeypatch.setattr(fields, "sample_oneform", broken_for_gradient_x)
    rep = run_suite(_level3_config())
    assert rep["failures"] == ["field gradient_x: cannot sample"]
    assert rep["checks"]["classification"] is False
    assert rep["pass"] is False
    assert [f["name"] for f in rep["fields"]] == [s.name for s in _level3_config().fields]
    for entry in rep["fields"]:
        if entry["name"] == "gradient_x":
            assert entry["class"] is None and entry["lambda"] is None
            assert entry["identities"] == {}
        else:
            assert entry["class"] is not None and entry["lambda"] is not None
            assert set(entry["identities"]) == {"yano_2_2", "lichnerowicz_3_2"}
    # the failing field does not drag the other checks down
    assert rep["checks"]["field_bounds"] and rep["checks"]["discrete_identities"]
    assert rep["checks"]["multiplicity"]
    assert list(rep["run"]["stages"]) == [
        "mesh", "curvature", "scalar spectrum", "one-form spectrum",
        *(f"field {entry['name']}" for entry in rep["fields"]), "oracle", "multiplicity",
    ]
    assert all(t >= 0 for t in rep["run"]["stages"].values())
    assert rep["run"]["elapsed_s"] >= sum(rep["run"]["stages"].values())
