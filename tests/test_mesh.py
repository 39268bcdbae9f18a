import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hodgelab import curvature, exterior, fields, mesh
from hodgelab.mesh import (
    MeshError,
    ResourceGuardError,
    SurfaceSpec,
    TriangleMesh,
    build_icosphere,
    build_spheroid,
    export_off,
    validate,
)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_icosphere_counts(level, sphere_mesh):
    m = sphere_mesh(level)
    assert m.n_vertices == 10 * 4**level + 2
    assert m.n_edges == 30 * 4**level
    assert m.n_faces == 20 * 4**level
    assert m.n_vertices - m.n_edges + m.n_faces == 2


def test_icosahedron_exact():
    m = build_icosphere(0, 1.0)
    assert (m.n_vertices, m.n_edges, m.n_faces) == (12, 30, 20)


def test_level2_counts():
    m = build_icosphere(2, 1.0)
    assert (m.n_vertices, m.n_edges, m.n_faces) == (162, 480, 320)


@given(level=st.integers(0, 3), radius=st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_icosphere_radii_exact(level, radius):
    m = build_icosphere(level, radius)
    radii = np.linalg.norm(m.vertices, axis=1)
    assert np.abs(radii - radius).max() <= 1e-14 * radius


@pytest.mark.parametrize("build,args", [
    (build_icosphere, (1.0,)),
    (build_spheroid, (1.0, 2.0)),
    (build_spheroid, (2.0, 0.7)),
])
def test_validation_passes(build, args):
    m = build(2, *args)
    outcome = validate(m)
    assert outcome.ok
    assert outcome.genus == 0


def test_outward_orientation(sphere_mesh):
    m = sphere_mesh(1)
    p = m.vertices[m.faces]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    centroids = p.mean(axis=1)
    assert (np.einsum("ij,ij->i", normals, centroids) > 0).all()


@pytest.mark.parametrize("builder", [
    lambda lv: build_icosphere(lv, 1.0),
    lambda lv: build_spheroid(lv, 1.0, 2.0),
])
def test_refinement_shrinks_max_edge(builder):
    lengths = [builder(lv).edge_lengths().max() for lv in range(4)]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_flipped_face_detected(sphere_mesh):
    m = sphere_mesh(0)
    faces = m.faces.copy()
    faces[0] = faces[0][::-1]
    outcome = validate(TriangleMesh(vertices=m.vertices, faces=faces))
    assert not outcome.ok
    assert not outcome.checks["consistent_orientation"]


def test_duplicated_face_detected(sphere_mesh):
    m = sphere_mesh(0)
    faces = np.concatenate([m.faces, m.faces[:1]])
    with pytest.raises(MeshError, match="edge with >2 incident faces"):
        TriangleMesh(vertices=m.vertices, faces=faces)


def test_boundary_detected(sphere_mesh):
    m = sphere_mesh(0)
    with pytest.raises(MeshError, match="boundary edge"):
        TriangleMesh(vertices=m.vertices, faces=m.faces[:-1])


def test_degenerate_face_detected(sphere_mesh):
    m = sphere_mesh(0)
    verts = m.vertices.copy()
    # collapse one vertex onto a neighbour: incident faces become slivers
    verts[0] = verts[m.faces[0][1]]
    outcome = validate(TriangleMesh(vertices=verts, faces=m.faces))
    assert not outcome.checks["no_degenerate_faces"]


def test_bad_indices_detected(sphere_mesh):
    m = sphere_mesh(0)
    faces = m.faces.copy()
    faces[0, 0] = 99
    with pytest.raises(MeshError, match=r"face index outside \[0, 12\)"):
        TriangleMesh(vertices=m.vertices, faces=faces)
    # two faces that repeat a vertex still give every edge two incident faces
    pinched = TriangleMesh(vertices=m.vertices[:3], faces=np.array([[0, 0, 1], [0, 0, 2]]))
    outcome = validate(pinched)
    assert not outcome.checks["indices_valid"]
    assert outcome.genus is None


def test_level_guard():
    with pytest.raises(ResourceGuardError):
        build_icosphere(9, 1.0)
    with pytest.raises(MeshError):
        build_icosphere(-1, 1.0)
    with pytest.raises(MeshError):
        build_icosphere(2, -1.0)
    with pytest.raises(MeshError):
        build_spheroid(2, 0.0, 1.0)


def test_spheroid_degenerates_to_sphere():
    a = build_spheroid(3, 1.0, 1.0)
    b = build_icosphere(3, 1.0)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_spheroid_pole_maps_exactly():
    m = build_spheroid(0, 1.0, 2.0)
    assert any(np.array_equal(v, [0.0, 0.0, 2.0]) for v in m.vertices)
    assert any(np.array_equal(v, [0.0, 0.0, -2.0]) for v in m.vertices)


@pytest.mark.parametrize("a,c", [(1.0, 2.0), (2.0, 1.0), (1.0, 3.0), (3.0, 1.0), (1.0, 1.5)])
def test_spheroid_latitude_is_the_conformal_one(a, c):
    # the spheroid latitude t of each vertex must have the isometric latitude
    # of its unit-sphere preimage: the integral of
    # sqrt(a^2 sin^2 + c^2 cos^2) / (a cos) from 0 to t equals atanh(|z|),
    # here by adaptive quadrature of the integral itself
    z = build_icosphere(3).vertices[:, 2]
    t = np.arcsin(np.abs(build_spheroid(3, a, c).vertices[:, 2]) / c)
    picked = np.unique(np.round(np.abs(z), 12), return_index=True)[1]
    picked = picked[np.abs(z[picked]) < 0.99]
    assert picked.size > 20

    def integrand(s):
        return np.sqrt(a * a * np.sin(s) ** 2 + c * c * np.cos(s) ** 2) / (a * np.cos(s))

    for i in picked:
        q, _err = quad(integrand, 0.0, t[i], epsabs=1e-14, epsrel=1e-13)
        assert q == pytest.approx(np.arctanh(abs(z[i])), rel=1e-12, abs=1e-13)


def test_spheroid_combinatorics_match_icosphere():
    a = build_spheroid(2, 1.0, 2.0)
    b = build_icosphere(2, 1.0)
    assert np.array_equal(a.faces, b.faces)
    assert validate(a).ok


@given(a=st.floats(0.3, 3.0), c=st.floats(0.3, 3.0), level=st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_spheroid_vertices_on_surface(a, c, level):
    m = build_spheroid(level, a, c)
    level_set = (m.vertices[:, 0] ** 2 + m.vertices[:, 1] ** 2) / a**2 \
        + m.vertices[:, 2] ** 2 / c**2
    assert np.abs(level_set - 1.0).max() < 1e-12


@pytest.mark.parametrize("builder", [
    lambda lv: build_icosphere(lv, 2.0),
    lambda lv: build_spheroid(lv, 1.0, 2.0),
])
def test_vertex_prolongations_are_averaging(builder):
    # rows sum to 1 (so constants map to constants), and the shapes chain
    # from the icosahedron to the mesh
    m = builder(4)
    prolongations = m.vertex_prolongations()
    assert [P.shape for P in prolongations] == [
        (10 * 4**k + 2, 10 * 4**(k - 1) + 2) for k in range(1, 5)]
    for P in prolongations:
        assert np.array_equal(P.sum(axis=1).A1, np.ones(P.shape[0]))
        assert np.array_equal(P @ np.ones(P.shape[1]), np.ones(P.shape[0]))
    assert builder(0).vertex_prolongations() == ()


def test_vertex_prolongations_give_the_midpoints():
    # on the unprojected coarse unit-icosphere vertices each prolongation is
    # the subdivision step itself: old vertices stay, new ones are the
    # midpoints, which project radially onto the fine vertices
    fine = build_icosphere(4, 1.0)
    for level, P in enumerate(fine.vertex_prolongations()):
        coarse = build_icosphere(level, 1.0).vertices
        mid = P @ coarse
        assert np.array_equal(mid[:coarse.shape[0]], coarse)
        projected = mid / np.linalg.norm(mid, axis=1, keepdims=True)
        assert np.abs(projected - build_icosphere(level + 1, 1.0).vertices).max() <= 1e-15


# every per-mesh quantity, each after the ones it is built from
PER_MESH = [
    TriangleMesh.face_areas, TriangleMesh.vertex_areas, TriangleMesh.vertex_prolongations,
    exterior.d0, exterior.d1, exterior.star1_values, exterior.laplacian0,
    exterior.laplacian1, curvature.angle_defects, curvature.angle_defect_curvature,
    fields._edge_quadrature,
]


@pytest.mark.parametrize("index", range(len(PER_MESH)),
                         ids=[f.__qualname__ for f in PER_MESH])
def test_per_mesh_quantity_is_built_once_and_kept(index):
    m = build_spheroid(2, 1.0, 2.0)
    for earlier in PER_MESH[:index]:
        earlier(m)
    before = dict(m._memo)
    value = PER_MESH[index](m)
    added = m._memo.keys() - before.keys()
    assert len(added) == 1 and m._memo[added.pop()] is value
    assert PER_MESH[index](m) is value
    assert len(m._memo) == len(before) + 1


def test_raw_mesh_has_no_prolongations():
    m = build_icosphere(2, 1.0)
    assert TriangleMesh(vertices=m.vertices, faces=m.faces,
                        source=m.source).vertex_prolongations() is None


def _parse_off(data: bytes):
    lines = data.decode().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = (int(tok) for tok in lines[1].split())
    verts = [tuple(float(t) for t in lines[2 + i].split()) for i in range(nv)]
    faces = []
    for i in range(nf):
        toks = lines[2 + nv + i].split()
        assert toks[0] == "3"
        faces.append(tuple(int(t) for t in toks[1:]))
    return verts, faces, ne


def test_off_export_header():
    m = build_icosphere(0, 1.0)
    data = export_off(m)
    assert data.startswith(b"OFF\n12 20 0\n")


def test_off_roundtrip_counts():
    m = build_icosphere(1, 1.0)
    verts, faces, ne = _parse_off(export_off(m))
    assert len(verts) == m.n_vertices
    assert len(faces) == m.n_faces
    assert ne == 0
    assert np.allclose(np.array(verts), m.vertices)
    assert np.array_equal(np.array(faces), m.faces)


def test_off_spheroid_pole_line():
    m = build_spheroid(0, 1.0, 2.0)
    assert b"\n0 0 2\n" in export_off(m)


def test_surface_sizes_end_where_their_squares_leave_float32():
    lo, hi = mesh.SIZE_RANGE
    assert np.float32(lo * lo) == np.finfo(np.float32).tiny == np.float32(1 / (hi * hi))
    for size in (lo, 1.0, hi):
        SurfaceSpec(kind="icosphere", level=1, radius=size)
        SurfaceSpec(kind="spheroid", level=1, a=size, c=size)
    for size in (np.nextafter(lo, 0), np.nextafter(hi, np.inf)):
        with pytest.raises(MeshError, match="where its square and inverse square"):
            SurfaceSpec(kind="icosphere", level=1, radius=size)
        with pytest.raises(MeshError, match="spheroid c"):
            SurfaceSpec(kind="spheroid", level=1, a=1.0, c=size)


def test_surface_spec_validation():
    with pytest.raises(MeshError):
        SurfaceSpec(kind="torus", level=1)
    with pytest.raises(MeshError):
        SurfaceSpec(kind="icosphere", level=1)  # no radius
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(MeshError, match="finite radius"):
            SurfaceSpec(kind="icosphere", level=1, radius=bad)
        with pytest.raises(MeshError, match="finite semi-axes"):
            SurfaceSpec(kind="spheroid", level=1, a=bad, c=1.0)
        with pytest.raises(MeshError, match="finite semi-axes"):
            SurfaceSpec(kind="spheroid", level=1, a=1.0, c=bad)
    # parameters of the other kind are rejected, not ignored
    with pytest.raises(MeshError, match="icosphere takes a radius, not semi-axes"):
        SurfaceSpec(kind="icosphere", level=1, radius=1.0, a=0.0)
    with pytest.raises(MeshError, match="icosphere takes a radius, not semi-axes"):
        SurfaceSpec(kind="icosphere", level=1, radius=1.0, c=2.0)
    with pytest.raises(MeshError, match="spheroid takes semi-axes a, c, not a radius"):
        SurfaceSpec(kind="spheroid", level=1, radius=1.0, a=1.0, c=2.0)
    spec = SurfaceSpec(kind="icosphere", level=1, radius=2.0)
    assert spec.axes == SurfaceSpec(kind="icosphere", level=4, radius=2.0).axes
    assert spec.axes != SurfaceSpec(kind="icosphere", level=1, radius=1.0).axes
    # an a == c spheroid has the axes of the sphere of that radius
    assert spec.axes == SurfaceSpec(kind="spheroid", level=2, a=2.0, c=2.0).axes
    assert spec.axes == (2.0, 2.0, 2.0)
    assert SurfaceSpec(kind="spheroid", level=2, a=1.0, c=3.0).axes == (1.0, 1.0, 3.0)


def test_mesh_constructor_rejects_open_surface():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MeshError):
        TriangleMesh(vertices=verts, faces=np.array([[0, 1, 2]]))


def test_mesh_constructor_rejects_out_of_range_indices():
    m = build_icosphere(0, 1.0)
    # -1 for every use of the last vertex keeps the surface closed and would
    # wrap around to that vertex; one corner at 10**6 would show only as a
    # "boundary edge"
    wrapped = np.where(m.faces == 11, -1, m.faces)
    too_large = m.faces.copy()
    too_large[0, 0] = 10**6
    for faces in (wrapped, too_large):
        with pytest.raises(MeshError, match=r"face index outside \[0, 12\)"):
            TriangleMesh(vertices=m.vertices, faces=faces)


@given(pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                      min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_unique_edges_matches_row_unique(pairs):
    he = np.array(pairs, dtype=np.int64)
    canon = np.sort(he, axis=1)
    expected_edges, expected_inverse = np.unique(canon, axis=0, return_inverse=True)
    for half_edges in (canon, he):
        edges, inverse = mesh._unique_edges(half_edges)
        assert edges.dtype == expected_edges.dtype
        np.testing.assert_array_equal(edges, expected_edges)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))


def _row_unique_incidence(faces):
    """Edge incidence from a row-wise np.unique: the reference for the mesh."""
    n_faces = faces.shape[0]
    he = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges, inverse = np.unique(np.sort(he, axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sign = np.where(he[:, 0] < he[:, 1], 1, -1).astype(np.int8)
    return {
        "edges": edges,
        "face_edges": inverse.reshape(3, n_faces).T,
        "face_edge_signs": sign.reshape(3, n_faces).T,
    }


@pytest.mark.parametrize("level", range(6))
def test_incidence_matches_row_unique_reference(level, sphere_mesh):
    m = sphere_mesh(level)
    for name, expected in _row_unique_incidence(m.faces).items():
        np.testing.assert_array_equal(getattr(m, name), expected, err_msg=name)
