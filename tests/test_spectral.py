import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from hodgelab import exterior, mesh, spectral, verify
from hodgelab.spectral import (
    GROUP_REL_GAP,
    ConvergenceError,
    SpectralError,
    dense_reference,
    group_multiplicities,
    solve_lowest,
)


def test_identity_pencil():
    eye = sp.identity(40, format="csr")
    result = solve_lowest(eye, eye, 5, tol=1e-12)
    assert np.allclose(result.eigenvalues, 1.0, atol=1e-12)


def test_m_out_of_range():
    eye = sp.identity(10, format="csr")
    with pytest.raises(SpectralError):
        solve_lowest(eye, eye, 11)
    with pytest.raises(SpectralError):
        solve_lowest(eye, eye, 0)


def test_b_must_be_spd():
    eye = sp.identity(5, format="csr")
    bad = sp.diags([1.0, 1.0, -1.0, 1.0, 1.0]).tocsr()
    with pytest.raises(SpectralError, match="SPD"):
        solve_lowest(eye, bad, 2)
    dense_b = sp.csr_matrix(np.full((5, 5), 0.5) + np.eye(5))
    with pytest.raises(SpectralError, match="diagonal"):
        solve_lowest(eye, dense_b, 2)


def test_unfactorable_shifted_pencil_is_a_spectral_error():
    # a zero diagonal gives a zero shift, so the preconditioner's LU is singular
    zero = sp.csr_matrix((30, 30))
    with pytest.raises(SpectralError, match="cannot be factored"):
        solve_lowest(zero, sp.identity(30, format="csr"), 3)


def test_nonconvergence_reports_residuals():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((60, 60))
    A = sp.csr_matrix(M @ M.T)
    B = sp.identity(60, format="csr")
    with pytest.raises(ConvergenceError) as err:
        solve_lowest(A, B, 6, tol=1e-14, maxiter=2)
    assert err.value.residuals.shape == (6,)
    assert err.value.iterations == 2
    # one (largest wanted residual, active columns) entry per residual
    # evaluation; the last is the state the residuals above describe
    history = err.value.history
    assert len(history) == err.value.iterations + 1
    assert history[-1][0] == err.value.residuals.max()
    block = 6 + spectral.BLOCK_PADDING
    assert all(res > 1e-14 and 1 <= active <= block for res, active in history)


def test_nonconvergence_on_a_coarse_level_names_it(sphere_mesh):
    # maxiter caps every level of a nested start; a coarse level that hits
    # it reports its own residuals, so the error names the level
    m = sphere_mesh(4)
    A, B = exterior.laplacian0(m)
    with pytest.raises(ConvergenceError,
                       match="^nested start, coarse level of 162 vertices: no convergence"
                       ) as err:
        solve_lowest(A, B, 16, 1e-6, known_kernel=np.ones(m.n_vertices),
                     hierarchy=m.vertex_prolongations(), maxiter=1)
    assert err.value.iterations == 1 and len(err.value.history) == 2


def test_stalled_solve_keeps_its_accuracy(scalar_pair_factory, sphere_mesh):
    # a tolerance below the rounding floor is never met; the iteration must
    # keep its blocks orthonormal while it stalls, not drift off the spectrum
    A, B = scalar_pair_factory(2)
    with pytest.raises(ConvergenceError) as err:
        solve_lowest(A, B, 6, tol=1e-15, seed=0, maxiter=60,
                     known_kernel=np.ones(sphere_mesh(2).n_vertices))
    assert err.value.residuals.max() < 1e-10
    assert max(res for res, _ in err.value.history[20:]) < 1e-10


def test_iterations_recorded(scalar_pair_factory, sphere_mesh):
    A, B = scalar_pair_factory(2)
    kernel = np.ones(sphere_mesh(2).n_vertices)
    result = solve_lowest(A, B, 6, tol=1e-8, seed=0, known_kernel=kernel)
    assert 1 <= result.iterations <= 1500
    # only the deflated kernel was asked for: no iteration runs
    assert solve_lowest(A, B, 1, known_kernel=kernel).iterations == 0


def test_next_estimate_is_none_for_a_whole_spectrum_or_no_iterated_pair(
        scalar_pair_factory, sphere_mesh):
    # None means "nothing above" when m = n and "no estimate" when only the
    # known kernel was asked for; in between it is the first unreturned value
    A, B = scalar_pair_factory(0)
    n = sphere_mesh(0).n_vertices
    kernel = np.ones(n)
    dense = dense_reference(A, B)
    whole = solve_lowest(A, B, n, tol=1e-9, seed=0, known_kernel=kernel)
    assert whole.next_estimate is None and whole.block == n - 1
    np.testing.assert_allclose(whole.eigenvalues, dense, rtol=1e-8, atol=1e-10)
    kernel_only = solve_lowest(A, B, 1, tol=1e-9, seed=0, known_kernel=kernel)
    assert kernel_only.next_estimate is None and kernel_only.block == 0
    assert kernel_only.eigenvalues.tolist() == [0.0]
    below_top = solve_lowest(A, B, n - 1, tol=1e-9, seed=0, known_kernel=kernel)
    assert below_top.next_estimate == pytest.approx(dense[-1], rel=1e-8)


@pytest.mark.parametrize("level,m", [(0, 9), (1, 9)])
def test_solver_matches_dense_scalar(level, m, sphere_mesh, scalar_pair_factory):
    A, B = scalar_pair_factory(level)
    result = solve_lowest(A, B, m, tol=1e-9, seed=1,
                          known_kernel=np.ones(sphere_mesh(level).n_vertices))
    dense = dense_reference(A, B, m)
    err = np.abs(result.eigenvalues - dense) / np.maximum(np.abs(dense), 1.0)
    assert err.max() < 1e-8


@pytest.mark.parametrize("level,m", [(0, 10), (1, 16)])
def test_solver_matches_dense_oneform(level, m, oneform_pair_factory):
    A, B = oneform_pair_factory(level)
    result = solve_lowest(A, B, m, tol=1e-9, seed=1)
    dense = dense_reference(A, B, m)
    err = np.abs(result.eigenvalues - dense) / np.maximum(np.abs(dense), 1.0)
    assert err.max() < 1e-8


def test_b_orthonormality(scalar_pair_factory, sphere_mesh):
    A, B = scalar_pair_factory(2)
    result = solve_lowest(A, B, 10, tol=1e-8, seed=0,
                          known_kernel=np.ones(sphere_mesh(2).n_vertices))
    V = result.eigenvectors
    gram = V.T @ (B.matrix @ V)
    assert np.abs(gram - np.eye(V.shape[1])).max() < 1e-8
    assert (result.residuals < 1e-8).all()
    assert np.all(np.diff(result.eigenvalues) >= 0)


def test_level4_cluster_values(scalar_pair_factory, sphere_mesh):
    A, B = scalar_pair_factory(4)
    result = solve_lowest(A, B, 10, tol=1e-6, seed=0,
                          known_kernel=np.ones(sphere_mesh(4).n_vertices))
    target = np.array([0, 2, 2, 2, 6, 6, 6, 6, 6, 12], dtype=float)
    err = np.abs(result.eigenvalues - target) / np.maximum(target, 1.0)
    assert err.max() < 0.01


def test_level4_cluster_multiplicities_through_l3(scalar_pair_factory, sphere_mesh):
    # l (l + 1) eigenvalues with multiplicity 2 l + 1 for l = 1, 2, 3
    A, B = scalar_pair_factory(4)
    result = solve_lowest(A, B, 16, tol=1e-6, seed=0,
                          known_kernel=np.ones(sphere_mesh(4).n_vertices))
    sizes = [g.multiplicity for g in result.groups]
    reps = [g.representative for g in result.groups]
    assert sizes == [1, 3, 5, 7]
    for rep, l in zip(reps[1:], (1, 2, 3)):
        assert abs(rep - l * (l + 1)) <= 0.01 * l * (l + 1)


def test_shift_invariance(scalar_pair_factory, sphere_mesh):
    A, B = scalar_pair_factory(1)
    n = sphere_mesh(1).n_vertices
    kernel = np.ones(n)
    # m = 9 ends exactly at a degenerate-cluster boundary, so every group is
    # a complete eigenspace and subspace comparison is well posed
    base = solve_lowest(A, B, 9, tol=1e-10, seed=3, known_kernel=kernel)
    c = 1.75
    shifted_A = (A.matrix + c * B.matrix).tocsr()
    shifted = solve_lowest(shifted_A, B, 9, tol=1e-10, seed=3)
    assert np.abs(shifted.eigenvalues - (base.eigenvalues + c)).max() < 1e-7
    # eigenvectors agree per degenerate group up to rotation: compare the
    # B-orthogonal projectors via principal angles
    d = B.matrix.diagonal()
    for group in base.groups:
        idx = list(group.indices)
        V1 = base.eigenvectors[:, idx]
        V2 = shifted.eigenvectors[:, idx]
        overlap = V1.T @ (V2 * d[:, None])
        sv = np.linalg.svd(overlap, compute_uv=False)
        assert sv.min() > 1 - 1e-6


def test_determinism(scalar_pair_factory, sphere_mesh):
    # with a hierarchy the seeded block is drawn on the coarsest level of the
    # nested start (level 0 holds the 11-column block)
    A, B = scalar_pair_factory(1)
    kernel = np.ones(sphere_mesh(1).n_vertices)
    for hierarchy in (None, sphere_mesh(1).vertex_prolongations()):
        r1, r2 = (solve_lowest(A, B, 6, tol=1e-8, seed=11, known_kernel=kernel,
                               hierarchy=hierarchy) for _ in range(2))
        assert r1.coarse_levels == r2.coarse_levels
        assert len(r1.coarse_levels) == (0 if hierarchy is None else 1)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True))
@settings(max_examples=10, deadline=None)
def test_seed_invariance(seeds):
    # different start blocks converge to the same spectrum and clustering
    A, B = exterior.laplacian0(mesh.build_icosphere(2, 1.0))
    tol = 1e-8
    r1, r2 = (solve_lowest(A, B, 9, tol=tol, seed=seed, known_kernel=np.ones(A.shape[0]))
              for seed in seeds)
    assert np.allclose(r1.eigenvalues, r2.eigenvalues, rtol=tol, atol=tol)
    assert [g.multiplicity for g in r1.groups] == [g.multiplicity for g in r2.groups]


def test_group_multiplicities_spec_cases():
    groups = group_multiplicities([0.0, 1.99, 2.00, 2.01, 6.1])
    assert [g.multiplicity for g in groups] == [1, 3, 1]
    assert groups[1].representative == pytest.approx(2.0)

    same = group_multiplicities([3.0] * 7)
    assert len(same) == 1 and same[0].multiplicity == 7

    assert group_multiplicities([]) == []


@given(values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_group_multiplicities_properties(values):
    ev = np.sort(np.asarray(values))
    groups = group_multiplicities(ev)
    # partition: every index exactly once, in order
    flat = [i for g in groups for i in g.indices]
    assert flat == list(range(len(ev)))
    for g in groups:
        member_vals = ev[list(g.indices)]
        assert g.multiplicity == len(g.indices)
        assert g.representative == pytest.approx(member_vals.mean())
    # consecutive groups are separated by at least the grouping gap
    for a, b in zip(groups, groups[1:]):
        lo = ev[a.indices[-1]]
        hi = ev[b.indices[0]]
        scale = max(abs(lo), abs(hi), 1e-8)
        assert (hi - lo) / scale >= GROUP_REL_GAP


def test_scalar_eigenvalue_monotone_convergence(scalar_pair_factory, sphere_mesh):
    errors_mu1 = []
    errors_mu2 = []
    for level in (3, 4, 5, 6):
        A, B = scalar_pair_factory(level)
        result = solve_lowest(A, B, 9, tol=1e-7, seed=0,
                              known_kernel=np.ones(sphere_mesh(level).n_vertices))
        groups = result.groups
        errors_mu1.append(abs(groups[1].representative - 2.0))
        errors_mu2.append(abs(groups[2].representative - 6.0))
    assert all(b < a for a, b in zip(errors_mu1, errors_mu1[1:]))
    assert all(b < a for a, b in zip(errors_mu2, errors_mu2[1:]))


# Full-size solver oracle: ARPACK (eigsh) in shift-invert mode is a code path
# independent of the LOBPCG, cheap enough to run on the production pencils.
# Each case is solved as the suite solves it: the scalar pencil at the CLI
# default tolerance (with the multigrid V-cycle, and with the LU a mesh
# without a hierarchy gets), the spheroid face pencil at the Hodge split's
# tolerance and stopping test (its one-form residual map), all with the
# constants deflated. ARPACK draws a random
# start vector by default and can then miss one copy of a degenerate
# eigenvalue; a seeded start and a few extra pairs keep the reference
# deterministic.
ORACLE_SHIFT = -0.1  # below the spectrum, so A - shift B is definite
ORACLE_PADDING = 4
FULL_SIZE_MAXITER = 1500
HEADROOM_ITERATIONS = 40


def _eigsh_reference(A, B, m):
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    return np.sort(eigsh(A.matrix, k=m + ORACLE_PADDING, M=B.matrix,
                         sigma=ORACLE_SHIFT, which="LM", v0=v0,
                         return_eigenvectors=False))[:m]


def _relative_error(values, reference):
    return (np.abs(values - reference) / np.maximum(np.abs(reference), 1e-3)).max()


@pytest.fixture(scope="module",
                params=["scalar-l5", "scalar-l5-multigrid", "spheroid-l4-face"])
def full_size_solve(request, scalar_pair_factory, sphere_mesh, spheroid_mesh):
    hierarchy = residual_map = None
    if request.param.startswith("scalar-l5"):
        A, B = scalar_pair_factory(5)
        m, tol = 16, 1e-6
        if request.param == "scalar-l5-multigrid":
            hierarchy = sphere_mesh(5).vertex_prolongations()
    else:
        A, B = exterior.laplacian2(spheroid_mesh(4))
        m, tol = 9, 1e-6
        residual_map = exterior.coexact_map(spheroid_mesh(4))
    result = solve_lowest(A, B, m, tol, seed=1, known_kernel=np.ones(A.shape[0]),
                          maxiter=FULL_SIZE_MAXITER, hierarchy=hierarchy,
                          residual_map=residual_map)
    assert result.preconditioner == ("lu" if hierarchy is None else "multigrid")
    return result, _eigsh_reference(A, B, m), B


def test_full_size_solver_matches_shift_invert_eigsh(full_size_solve):
    result, reference, _ = full_size_solve
    assert _relative_error(result.eigenvalues, reference) < 1e-9


def test_full_size_solver_headroom(full_size_solve):
    # the LU converges in about 12 iterations from a random start, the
    # V-cycle in about 7 from its nested start; a fallback to a weak
    # preconditioner takes hundreds and turns this red, and so does a V-cycle
    # on a wrong prolongation, which still converges to the right eigenvalues
    # (74 iterations with the midpoint rows in reverse order)
    result, _, _ = full_size_solve
    assert result.iterations <= HEADROOM_ITERATIONS < FULL_SIZE_MAXITER


def test_full_size_solver_b_orthonormal(full_size_solve):
    # X leaves each Rayleigh-Ritz step orthonormal and is never
    # re-orthonormalized; rounding must not accumulate over the iterations
    result, _, B = full_size_solve
    V = result.eigenvectors
    gram = V.T @ (B.matrix @ V)
    assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-12


def _svqb_reference(V, drop_tol=1e-12):
    """SVQB on explicitly normalized columns: the rank filter of the solver."""
    norms = np.linalg.norm(V, axis=0)
    V = V[:, norms > 0.0] / norms[norms > 0.0]
    if V.shape[1] == 0:
        return V
    w, U = np.linalg.eigh(V.T @ V)
    keep = w > drop_tol * w.max()
    return V @ (U[:, keep] / np.sqrt(w[keep]))


@pytest.mark.parametrize("case", ["independent", "zero", "duplicate",
                                  "near-duplicate", "tiny-independent", "all-zero"])
def test_orthonormalize_drops_what_the_normalized_filter_drops(case):
    rng = np.random.default_rng(5)
    V = rng.standard_normal((300, 6))
    extra = {
        "independent": rng.standard_normal(300),
        "zero": np.zeros(300),
        "duplicate": 1e-8 * V[:, 0],
        "near-duplicate": V[:, 1] + 1e-14 * rng.standard_normal(300),
        # a tiny but independent column (a nearly converged residual) stays
        "tiny-independent": 1e-10 * rng.standard_normal(300),
        "all-zero": None,
    }[case]
    V = np.zeros((300, 3)) if extra is None else np.column_stack([V, extra])
    Q = spectral._orthonormalize(V)
    ref = _svqb_reference(V)
    assert Q.shape == ref.shape
    assert Q.shape[1] == {"independent": 7, "tiny-independent": 7,
                          "all-zero": 0}.get(case, 6)
    if Q.shape[1]:
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]), 2) <= 1e-14
        # same span: the projectors agree
        assert np.abs(Q @ Q.T - ref @ ref.T).max() < 1e-10


def test_direction_coefficients_build_p_in_coefficient_space():
    # S = [X W P] orthonormal and C orthogonal, as in a Rayleigh-Ritz step:
    # P = S Z is orthonormal, orthogonal to X = S C[:, :nb], and spans with
    # X the same space as X and the classic directions S E of the active
    # Ritz vectors (their W and P coefficient rows)
    rng = np.random.default_rng(3)
    nb, nw, n_p = 7, 5, 4
    S, _ = np.linalg.qr(rng.standard_normal((400, nb + nw + n_p)))
    C, _ = np.linalg.qr(rng.standard_normal((nb + nw + n_p,) * 2))
    active = np.array([True, False, True, True, False, True, True])
    Z = spectral._direction_coefficients(C, nb, active)
    X, P = S @ C[:, :nb], S @ Z
    XP = np.hstack([X, P])
    assert P.shape[1] == active.sum()
    assert np.abs(XP.T @ XP - np.eye(XP.shape[1])).max() <= 1e-13
    E = C[:, :nb][:, active].copy()
    E[:nb] = 0.0
    Q, _ = np.linalg.qr(np.hstack([X, S @ E]))
    assert np.abs(XP @ XP.T - Q @ Q.T).max() < 1e-12


def test_soft_locking_narrows_the_block(monkeypatch, scalar_pair_factory, sphere_mesh):
    # converged columns get no preconditioned direction, so the LU solves
    # narrow below the block width before the solve ends; the result is as
    # accurate as the unlocked iteration's
    widths = []
    build = spectral._shifted_lu_preconditioner

    def recording(Atil):
        precond = build(Atil)

        def wrapped(R):
            widths.append(R.shape[1])
            return precond(R)

        return wrapped

    monkeypatch.setattr(spectral, "_shifted_lu_preconditioner", recording)
    A, B = scalar_pair_factory(4)
    m, tol = 16, 1e-6
    result = solve_lowest(A, B, m, tol, seed=0,
                          known_kernel=np.ones(sphere_mesh(4).n_vertices))
    block = m + spectral.BLOCK_PADDING
    assert len(widths) == result.iterations
    assert widths[0] == block and min(widths) < block
    assert (result.residuals <= tol).all()
    assert _relative_error(result.eigenvalues, _eigsh_reference(A, B, m)) < 1e-9


@pytest.mark.parametrize("start,message", [
    (np.ones((41, 3)), "41 rows, the pencil has 42"),
    (np.ones(42), "2-D block, got 1 dimension"),
    (np.ones((42, 3, 1)), "2-D block, got 3 dimension"),
    (np.full((42, 3), np.nan), "non-finite"),
    (np.full((42, 3), np.inf), "non-finite"),
])
def test_bad_start_is_a_spectral_error(start, message):
    eye = sp.identity(42, format="csr")
    with pytest.raises(SpectralError, match=message):
        solve_lowest(eye, eye, 3, start=start)


def test_converged_start_returns_at_once(scalar_pair_factory, sphere_mesh):
    # a start already converged to tol needs at most one expansion step and
    # lands on the cold solve's eigenvalues
    A, B = scalar_pair_factory(4)
    kernel = np.ones(sphere_mesh(4).n_vertices)
    m, tol = 16, 1e-8
    cold = solve_lowest(A, B, m, tol, seed=0, known_kernel=kernel)
    warm = solve_lowest(A, B, m, tol, seed=1, known_kernel=kernel,
                        start=cold.eigenvectors[:, 1:])
    assert cold.iterations > 5
    assert warm.iterations <= 1
    assert np.abs(warm.eigenvalues - cold.eigenvalues).max() <= 1e-10
    assert (warm.residuals <= tol).all()


def _transformed(A, B):
    """(B^-1/2 A B^-1/2, sqrt(b)): the standard problem the solver iterates on."""
    s = np.sqrt(B.matrix.diagonal())
    return (sp.diags(1.0 / s) @ A.matrix @ sp.diags(1.0 / s)).tocsr(), s


@pytest.mark.parametrize("surface", [
    lambda: mesh.build_icosphere(4, 1.0),
    lambda: mesh.build_spheroid(4, 1.0, 2.0),
])
def test_vcycle_is_symmetric_positive(surface):
    # the preconditioned iteration needs an SPD preconditioner: equal
    # Jacobi sweeps before and after the coarse correction make the cycle
    # symmetric up to float32 rounding
    m = surface()
    Atil, s = _transformed(*exterior.laplacian0(m))
    precond = spectral._multigrid_preconditioner(Atil, s, m.vertex_prolongations())
    rng = np.random.default_rng(7)
    X = rng.standard_normal((m.n_vertices, 12))
    Y = rng.standard_normal((m.n_vertices, 12))
    XMY, YMX = X.T @ precond(Y), Y.T @ precond(X)
    assert np.abs(XMY - YMX.T).max() <= 1e-5 * np.abs(XMY).max()
    XMX = X.T @ precond(X)
    assert np.linalg.eigvalsh(0.5 * (XMX + XMX.T)).min() > 0


def test_vcycle_is_the_coarse_cholesky_at_level_2(sphere_mesh):
    # at the direct level the cycle is an exact solve of Atil + shift I
    m = sphere_mesh(2)
    Atil, s = _transformed(*exterior.laplacian0(m))
    precond = spectral._multigrid_preconditioner(Atil, s, m.vertex_prolongations())
    R = np.random.default_rng(2).standard_normal((m.n_vertices, 4))
    shifted = spectral._shifted(Atil).toarray()
    np.testing.assert_allclose(shifted @ precond(R), R, atol=1e-8)


@pytest.mark.parametrize("surface", [
    lambda: mesh.build_icosphere(3, 1.0),
    lambda: mesh.build_icosphere(4, 1.0),
    lambda: mesh.build_spheroid(3, 1.0, 2.0),
    lambda: mesh.build_spheroid(4, 1.0, 2.0),
])
def test_multigrid_solve_matches_shift_invert_eigsh(surface):
    # a cold solve starts from the coarse levels that hold its 21-column
    # block, every level but level 0 (12 vertices); the fine solve keeps its
    # tol, so only the iteration count moves
    m = surface()
    A, B = exterior.laplacian0(m)
    hierarchy = m.vertex_prolongations()
    result = solve_lowest(A, B, 16, 1e-6, seed=0, known_kernel=np.ones(m.n_vertices),
                          hierarchy=hierarchy)
    assert (result.preconditioner, result.block) == ("multigrid", 16 + spectral.BLOCK_PADDING)
    assert [n for n, _its in result.coarse_levels] == [P.shape[1] for P in hierarchy[1:]]
    assert (result.residuals <= 1e-6).all()
    reference = _eigsh_reference(A, B, 16)
    assert _relative_error(result.eigenvalues, reference) < 1e-9
    assert ([g.multiplicity for g in result.groups]
            == [g.multiplicity for g in group_multiplicities(reference)])


def test_pencils_without_a_hierarchy_keep_the_lu(sphere_mesh):
    # a mesh not built by subdivision has no hierarchy, and the face pencil
    # is never given one
    m = sphere_mesh(3)
    raw = mesh.TriangleMesh(vertices=m.vertices, faces=m.faces, source=m.source)
    A, B = exterior.laplacian0(raw)
    scalar = solve_lowest(A, B, 6, 1e-6, known_kernel=np.ones(raw.n_vertices),
                          hierarchy=raw.vertex_prolongations())
    solves = []
    verify.oneform_spectrum_hodge_split(m, 8, 1e-6, verify.scalar_spectrum(m, 8, 1e-6),
                                        solves=solves)
    assert scalar.preconditioner == "lu"
    assert {s["pencil"]: s["preconditioner"] for s in solves} == {
        "vertex side": "multigrid", "face side": "lu"}


def test_hierarchy_of_another_mesh_is_a_spectral_error(sphere_mesh):
    A, B = exterior.laplacian0(sphere_mesh(3))
    with pytest.raises(SpectralError, match="hierarchy ends at 162 vertices"):
        solve_lowest(A, B, 4, hierarchy=sphere_mesh(2).vertex_prolongations())


def test_residual_map_measures_the_mapped_one_forms(spheroid_mesh):
    # with the face map, the solver stops on and returns the residuals of the
    # coexact one-forms w = star1^-1 d1^T g against (A1, B1)
    m = spheroid_mesh(4)
    A2, B2 = exterior.laplacian2(m)
    kernel = np.ones(m.n_faces)
    tol = 1e-6
    result = solve_lowest(A2, B2, 9, tol, seed=0, known_kernel=kernel,
                          residual_map=exterior.coexact_map(m))
    A1, B1 = exterior.laplacian1(m)
    W = (exterior.d1(m).T @ result.eigenvectors[:, 1:]) / B1.matrix.diagonal()[:, None]
    BW = B1.matrix @ W
    oneform = (np.linalg.norm(A1.matrix @ W - BW * result.eigenvalues[1:], axis=0)
               / np.linalg.norm(BW, axis=0))
    # applying A1 to w leaves a rounding-level d0^T star1 w of a few 1e-14,
    # which atol absorbs on the pairs that converged far below tol
    np.testing.assert_allclose(result.residuals[1:], oneform, rtol=1e-6, atol=1e-6 * tol)
    assert (result.residuals[1:] <= tol).all()
    # M sends the constants to 0, so the kernel pair keeps its own residual
    g = result.eigenvectors[:, 0]
    own = np.linalg.norm(A2.matrix @ g) / np.linalg.norm(B2.matrix @ g)
    assert result.residuals[0] == pytest.approx(own, rel=1e-12)


def test_no_residual_map_keeps_the_weighted_norm(monkeypatch, spheroid_mesh):
    # without a map the Gram operator is diag(b), whose norm is the diagonal
    # weighted norm the solver used before maps existed: the solve is
    # bit-identical under it
    A2, B2 = exterior.laplacian2(spheroid_mesh(4))
    kernel = np.ones(A2.shape[0])
    result = solve_lowest(A2, B2, 9, 1e-6, seed=0, known_kernel=kernel)

    def weighted_norms(R, X, G):
        w = G.diagonal()
        return (np.sqrt(np.einsum("ij,ij,i->j", R, R, w))
                / np.sqrt(np.einsum("ij,ij,i->j", X, X, w)))

    monkeypatch.setattr(spectral, "_residual_norms", weighted_norms)
    reference = solve_lowest(A2, B2, 9, 1e-6, seed=0, known_kernel=kernel)
    assert result.iterations == reference.iterations
    for got, want in [(result.eigenvalues, reference.eigenvalues),
                      (result.eigenvectors, reference.eigenvectors)]:
        assert np.array_equal(got, want)
    # the returned residuals are the norms themselves, so they agree only to
    # the rounding of the two formulas
    np.testing.assert_allclose(result.residuals, reference.residuals, rtol=1e-12, atol=0)


def _reference_residuals(A, B, result, residual_map=None):
    """Residuals of a solve, recomputed in the original variables.

    ||A x - lambda B x|| / ||B x|| per pair, or ||M (A x - lambda B x)|| /
    ||M B x|| for the iterated pairs (every pair but the leading kernel one)
    of a solve given a ``residual_map`` M; an independent reference for the
    residuals the stopping test read.
    """
    X = result.eigenvectors
    BX = B.matrix @ X
    R = A.matrix @ X - BX * result.eigenvalues
    residuals = np.linalg.norm(R, axis=0) / np.linalg.norm(BX, axis=0)
    if residual_map is not None:
        residuals[1:] = (np.linalg.norm(residual_map @ R[:, 1:], axis=0)
                         / np.linalg.norm(residual_map @ BX[:, 1:], axis=0))
    return residuals


@pytest.mark.parametrize("case", ["cold-nested-scalar", "lu-scalar", "mapped-face-side",
                                  "seeded-vertex-side"])
def test_returned_residuals_are_the_converged_ones(case, sphere_mesh, spheroid_mesh):
    tol = 1e-6
    m = spheroid_mesh(4) if case.endswith("side") else sphere_mesh(4)
    hierarchy = None if case in ("lu-scalar", "mapped-face-side") else m.vertex_prolongations()
    A, B = exterior.laplacian2(m) if case == "mapped-face-side" else exterior.laplacian0(m)
    start = residual_map = None
    if case == "mapped-face-side":
        residual_map = exterior.coexact_map(m)
    elif case == "seeded-vertex-side":
        start = verify.scalar_spectrum(m, 12, tol).eigenvectors[:, 1:]
        residual_map = exterior.exact_map(m)
    result = solve_lowest(A, B, 9, tol, seed=0, known_kernel=np.ones(A.shape[0]),
                          start=start, hierarchy=hierarchy, residual_map=residual_map)
    assert bool(result.coarse_levels) == (case == "cold-nested-scalar")
    assert result.preconditioner == ("lu" if hierarchy is None else "multigrid")
    np.testing.assert_allclose(result.residuals, _reference_residuals(A, B, result, residual_map),
                               rtol=1e-5, atol=1e-6 * tol)
    assert (result.residuals[1:] <= tol).all()


def _cold_vertex_solve(m, seed=0, **kwargs):
    A, B = exterior.laplacian0(m)
    return solve_lowest(A, B, 16, 1e-6, seed=seed, known_kernel=np.ones(m.n_vertices),
                        hierarchy=m.vertex_prolongations(), **kwargs)


def test_nested_start_fine_iterations(sphere_mesh):
    # the level-5 sphere's cold solve took 13 iterations from a random block;
    # from the prolonged level-4 Ritz block it takes 7 with one BLAS thread
    # and 8 with two (the threads' rounding moves a residual across tol)
    result = _cold_vertex_solve(sphere_mesh(5))
    assert [n for n, _its in result.coarse_levels] == [42, 162, 642, 2562]
    assert result.iterations <= 8


def test_seeded_or_flat_solves_have_no_coarse_levels(sphere_mesh):
    # a start replaces the cascade, and a pencil without a hierarchy has no
    # coarse levels to start from
    m = sphere_mesh(4)
    cold = _cold_vertex_solve(m)
    warm = _cold_vertex_solve(m, start=cold.eigenvectors[:, 1:])
    A, B = exterior.laplacian0(m)
    flat = solve_lowest(A, B, 16, 1e-6, known_kernel=np.ones(m.n_vertices))
    assert cold.coarse_levels
    assert warm.coarse_levels == () and flat.coarse_levels == ()
    assert warm.preconditioner == "multigrid" and flat.preconditioner == "lu"


def test_scalar_solve_working_set(sphere_mesh):
    # every n-row block of the solve dies at its last use: the start block
    # once rotated, A X once the residual overwrites it, the float64 residual
    # before the preconditioner runs, and A W and A P after their Gram
    # products. The traced peak above the memory held at entry (operators
    # and hierarchy already built), in n x block doubles, reads 6.91 at
    # level 4; keeping all of them alive read 10.11.
    m = sphere_mesh(4)
    exterior.laplacian0(m)
    m.vertex_prolongations()
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = verify.scalar_spectrum(m, 16, 1e-6)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.block == 16 + spectral.BLOCK_PADDING
    assert peak / (m.n_vertices * result.block * 8) < 8.0


def test_scalar_solve_working_set_level5(sphere_mesh, traced_peak):
    # every step holds at most four n-row blocks: X is updated in place, W
    # dies once SVQB has formed its basis, and the V-cycle smooths in place.
    # The traced peak above the memory held at entry, in n x block doubles,
    # reads 5.9 at level 5; it read 6.7 with a new X per step
    m = sphere_mesh(5)
    exterior.laplacian0(m)
    m.vertex_prolongations()
    result, peak = traced_peak(lambda: verify.scalar_spectrum(m, 16, 1e-6))
    assert result.block == 16 + spectral.BLOCK_PADDING
    assert peak / (m.n_vertices * result.block * 8) < 6.3


@pytest.mark.parametrize("case", ["generic", "near the span"])
def test_orthonormalize_against_empties_its_list(case):
    # the block is handed over in a list that the call empties; the result is
    # orthonormal and orthogonal to the given blocks, also when the block lies
    # almost in their span and one pass leaves too large an overlap
    rng = np.random.default_rng(11)
    S, _ = np.linalg.qr(rng.standard_normal((500, 12)))
    kernel, X, P = S[:, :1], S[:, 1:8], S[:, 8:]
    W = rng.standard_normal((500, 5))
    if case == "near the span":
        W = X @ rng.standard_normal((7, 5)) + 1e-10 * W
    held = [W]
    del W
    Q = spectral._orthonormalize_against(held, (kernel, X, None, P))
    assert held == []
    assert Q.shape == (500, 5)
    assert np.abs(Q.T @ Q - np.eye(5)).max() <= spectral.ORTHO_TOL
    assert np.abs(S.T @ Q).max() <= spectral.ORTHO_TOL
