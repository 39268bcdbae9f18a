import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hodgelab import exterior, mesh
from hodgelab.exterior import (
    Cochain,
    ExteriorError,
    codifferential_norm,
    d0,
    d1,
    exact_map,
    laplacian0,
    laplacian1,
    star1_values,
)


def test_d0_shape_and_rows(sphere_mesh):
    m = sphere_mesh(0)
    op = d0(m)
    assert op.shape == (30, 12)
    dense = op.toarray()
    for row, (i, j) in zip(dense, m.edges):
        assert row[i] == -1 and row[j] == 1
        assert np.count_nonzero(row) == 2


def test_d0_of_constant(sphere_mesh):
    m = sphere_mesh(2)
    assert np.all(d0(m) @ np.ones(m.n_vertices) == 0)


def test_d0_of_coordinate(sphere_mesh):
    m = sphere_mesh(1)
    z = m.vertices[:, 2]
    vals = d0(m) @ z
    expected = z[m.edges[:, 1]] - z[m.edges[:, 0]]
    assert np.array_equal(vals, expected)


def test_d1_shape_and_rows(sphere_mesh):
    m = sphere_mesh(0)
    op = d1(m)
    assert op.shape == (20, 30)
    dense = op.toarray()
    assert np.all(np.abs(dense).sum(axis=1) == 3)
    assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("build", [
    lambda: mesh.build_icosphere(2, 1.0),
    lambda: mesh.build_spheroid(2, 1.0, 2.0),
    lambda: mesh.build_spheroid(1, 2.0, 0.5),
])
def test_d1_d0_zero_exactly(build):
    m = build()
    prod = d1(m) @ d0(m)
    assert prod.nnz == 0 or np.abs(prod.data).max() == 0.0


@given(a=st.floats(0.3, 3.0), c=st.floats(0.3, 3.0), level=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_d1_d0_zero_exactly_drawn(a, c, level):
    m = mesh.build_spheroid(level, a, c)
    prod = d1(m) @ d0(m)
    assert prod.nnz == 0 or np.abs(prod.data).max() == 0.0


def test_star0_partitions_area(sphere_mesh):
    m = sphere_mesh(2)
    diag = laplacian0(m)[1].matrix.diagonal()
    assert (diag > 0).all()
    assert abs(diag.sum() - m.face_areas().sum()) < 1e-12


def test_star0_converges_to_sphere_area(sphere_mesh):
    total = laplacian0(sphere_mesh(5))[1].matrix.diagonal().sum()
    assert abs(total - 4 * np.pi) / (4 * np.pi) < 1e-3


def test_star1_equilateral(sphere_mesh):
    vals = star1_values(sphere_mesh(0))
    assert np.allclose(vals, 1 / np.sqrt(3), atol=1e-14)


def test_star1_right_angle_pair():
    # square bipyramid with apex height chosen so both angles opposite an
    # equatorial edge are 45 degrees: cot 45 = 1
    h = np.sqrt(1 + np.sqrt(2.0))
    verts = np.array([
        [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, h], [0, 0, -h],
    ], dtype=float)
    faces = np.array([
        [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
        [1, 0, 5], [2, 1, 5], [3, 2, 5], [0, 3, 5],
    ])
    m = mesh.TriangleMesh(vertices=verts, faces=faces)
    vals = star1_values(m)
    equatorial = [
        k for k, (i, j) in enumerate(m.edges)
        if verts[i, 2] == 0 and verts[j, 2] == 0
    ]
    assert len(equatorial) == 4
    assert np.allclose(vals[equatorial], 1.0, atol=1e-12)


@pytest.mark.parametrize("level", [0, 2, 4, 6])
def test_star1_positive_on_icospheres(level, sphere_mesh):
    assert (star1_values(sphere_mesh(level)) > 0).all()


def test_star1_positive_on_spheroid(spheroid_mesh):
    assert (star1_values(spheroid_mesh(5)) > 0).all()


def test_laplacian0_kernel_and_symmetry(sphere_mesh):
    m = sphere_mesh(2)
    A, B = laplacian0(m)
    assert np.abs(A.matrix @ np.ones(m.n_vertices)).max() < 1e-12
    assert (A.matrix - A.matrix.T).nnz == 0
    assert (B.matrix - B.matrix.T).nnz == 0


@pytest.mark.parametrize("pair_of", ["scalar", "oneform"])
def test_laplacians_positive_semidefinite(pair_of, rng, sphere_mesh):
    m = sphere_mesh(2)
    A, _ = laplacian0(m) if pair_of == "scalar" else laplacian1(m)
    for _ in range(20):
        v = rng.standard_normal(A.shape[0])
        quad = v @ (A.matrix @ v)
        assert quad / (v @ v) > -1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_galerkin_consistency(seed):
    m = mesh.build_icosphere(2, 1.0)
    v = np.random.default_rng(seed).standard_normal(m.n_vertices)
    A, _ = laplacian0(m)
    lhs = v @ (A.matrix @ v)
    diffs = v[m.edges[:, 1]] - v[m.edges[:, 0]]
    rhs = float(star1_values(m) @ diffs**2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian1_rejects_indefinite_mass(sphere_mesh):
    # plain axis scaling of an icosphere stretches angle pairs past pi
    base = sphere_mesh(4)
    stretched = mesh.TriangleMesh(
        vertices=base.vertices * np.array([1.0, 1.0, 2.0]), faces=base.faces
    )
    assert (star1_values(stretched) <= 0).any()
    with pytest.raises(ExteriorError, match="mesh quality insufficient"):
        laplacian1(stretched)


def test_codifferential_norm_classifies(sphere_mesh):
    from hodgelab import fields

    m = sphere_mesh(5)
    rot = fields.KillingRotation([0, 0, 1])
    w = fields.sample_oneform(rot, m)
    nd, nw = codifferential_norm(m, w)
    assert nd < 1e-3
    assert nw > 0.1


def test_codifferential_norm_exact_gradient(sphere_mesh):
    m = sphere_mesh(3)
    f = m.vertices[:, 0] - 2 * m.vertices[:, 2]
    w = Cochain(d0(m) @ f)
    nd, nw = codifferential_norm(m, w)
    assert nw < 1e-12
    assert nd > 0.1


def test_codifferential_norm_zero_form_error(sphere_mesh):
    m = sphere_mesh(1)
    with pytest.raises(ExteriorError, match="zero form"):
        codifferential_norm(m, Cochain(np.zeros(m.n_edges)))


def test_cochain_validation(sphere_mesh):
    m = sphere_mesh(0)
    with pytest.raises(ExteriorError):
        Cochain(np.array([1.0, np.nan]))
    c = Cochain(np.zeros(7))
    with pytest.raises(ExteriorError):
        c.check_mesh(m)


@pytest.mark.parametrize("build", [
    lambda: mesh.build_icosphere(3, 2.0),
    lambda: mesh.build_spheroid(4, 1.0, 2.0),
])
def test_pencils_are_exactly_symmetric(build):
    # each pencil is built symmetric to the last bit where it is assembled
    m = build()
    for pencil in (laplacian0, laplacian1, exterior.laplacian2):
        for op in pencil(m):
            assert (op.matrix != op.matrix.T).nnz == 0


def test_coboundaries_are_csr(spheroid_mesh):
    m = spheroid_mesh(2)
    assert sp.isspmatrix_csr(d0(m)) and sp.isspmatrix_csr(d1(m))


@pytest.mark.parametrize("build", [
    lambda: mesh.build_icosphere(3, 2.0),
    lambda: mesh.build_spheroid(4, 1.0, 2.0),
])
def test_laplacian1_stiffness_is_the_inline_formula(build):
    # the maps add the two halves in the order and sparse formats of the
    # inline d1^T star2 d1 + star1 d0 star0^-1 d0^T star1, bit for bit
    m = build()
    D0, D1 = d0(m), d1(m)
    S1 = sp.diags(star1_values(m))
    curl = D1.T @ sp.diags(1.0 / m.face_areas()) @ D1
    div = S1 @ D0 @ sp.diags(1.0 / m.vertex_areas()) @ D0.T @ S1
    inline = (curl + div).tocsr()
    inline = (inline + inline.T) * 0.5
    A1 = laplacian1(m)[0].matrix
    for got, want in [(A1.indptr, inline.indptr), (A1.indices, inline.indices),
                      (A1.data, inline.data)]:
        assert np.array_equal(got, want)


def test_exact_map_measures_the_exact_one_forms(rng, spheroid_mesh):
    # A1 d0 U = exact_map A0 U, because d1 d0 = 0, and B1 d0 U = exact_map B0 U:
    # the vertex-side twin of the face side's coexact_map identity
    m = spheroid_mesh(4)
    U = rng.standard_normal((m.n_vertices, 5))
    M = exact_map(m)
    for vertex_op, edge_op in zip(laplacian0(m), laplacian1(m)):
        lhs = edge_op.matrix @ (d0(m) @ U)
        rhs = M @ (vertex_op.matrix @ U)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()
