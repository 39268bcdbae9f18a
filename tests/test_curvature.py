import numpy as np
import pytest

from hodgelab import exterior, mesh, verify
from hodgelab.config import RunConfig
from hodgelab.curvature import (
    CurvatureError,
    angle_defect_curvature,
    angle_defects,
    ellipsoid_curvature_exact,
    ricci_apply,
    voronoi_vertex_areas,
)
from hodgelab.exterior import Cochain
from hodgelab.mesh import SurfaceSpec


@pytest.mark.parametrize("build", [
    lambda: mesh.build_icosphere(0, 1.0),
    lambda: mesh.build_icosphere(3, 2.0),
    lambda: mesh.build_spheroid(3, 1.0, 2.0),
    lambda: mesh.build_spheroid(2, 2.0, 0.5),
])
def test_gauss_bonnet_exact(build):
    m = build()
    assert abs(angle_defects(m).sum() - 4 * np.pi) < 1e-10


def test_angle_defects_are_computed_once_per_mesh(monkeypatch):
    # the Gauss-Bonnet check and the curvature bounds read one memoized array
    m = mesh.build_icosphere(1)
    assert angle_defects(m) is angle_defects(m)
    calls = []
    corner_angles = mesh.TriangleMesh.corner_angles

    def counting(self):
        calls.append(self.n_vertices)
        return corner_angles(self)

    monkeypatch.setattr(mesh.TriangleMesh, "corner_angles", counting)
    verify.run_suite(RunConfig(surface=SurfaceSpec(kind="icosphere", level=3, radius=1.0)))
    assert calls == [642]


def test_sphere_curvature_level5(sphere_mesh):
    bounds = angle_defect_curvature(sphere_mesh(5))
    assert bounds.rho <= bounds.P_max
    assert abs(bounds.rho - 1.0) < 0.02
    assert abs(bounds.P_max - 1.0) < 0.02


def test_sphere_curvature_scales(sphere_mesh):
    bounds = angle_defect_curvature(mesh.build_icosphere(4, 2.0))
    assert abs(bounds.rho - 0.25) < 0.005
    assert abs(bounds.P_max - 0.25) < 0.005


def test_spheroid_level6_extrema_against_oracle(spheroid_mesh):
    bounds = angle_defect_curvature(spheroid_mesh(6))
    assert 0.2375 <= bounds.rho <= 0.2625
    assert 3.8 <= bounds.P_max <= 4.2


def test_pointwise_convergence_on_spheres(sphere_mesh):
    errors = []
    for level in (3, 4, 5, 6):
        K = angle_defect_curvature(sphere_mesh(level)).per_vertex_K
        errors.append(np.abs(K - 1.0).max())
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_pointwise_convergence_on_spheroids(spheroid_mesh):
    errors = []
    for level in (4, 5, 6):
        m = spheroid_mesh(level)
        K = angle_defect_curvature(m).per_vertex_K
        exact = np.array([ellipsoid_curvature_exact(1.0, 1.0, 2.0, p)
                          for p in m.vertices])
        errors.append(np.abs((K - exact) / exact).max())
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_voronoi_areas_partition(sphere_mesh):
    m = sphere_mesh(3)
    assert voronoi_vertex_areas(m).sum() == pytest.approx(m.face_areas().sum(),
                                                          rel=1e-12)


def test_ellipsoid_oracle_values():
    assert ellipsoid_curvature_exact(2, 2, 2, (0, 0, 2)) == pytest.approx(0.25)
    assert ellipsoid_curvature_exact(1, 1, 2, (0, 0, 2)) == pytest.approx(4.0)
    assert ellipsoid_curvature_exact(1, 1, 2, (1, 0, 0)) == pytest.approx(0.25)
    with pytest.raises(CurvatureError, match="not on the ellipsoid"):
        ellipsoid_curvature_exact(1, 1, 2, (1, 1, 1))


def test_ricci_apply_identity_and_scaling(sphere_mesh, rng):
    m = sphere_mesh(2)
    w = Cochain(rng.standard_normal(m.n_edges))
    assert np.array_equal(ricci_apply(m, np.ones(m.n_vertices), w).values, w.values)
    scaled = ricci_apply(m, np.full(m.n_vertices, 2.5), w)
    assert np.allclose(scaled.values, 2.5 * w.values)


def test_ricci_apply_killing_form_near_identity(sphere_mesh):
    from hodgelab import fields

    m = sphere_mesh(5)
    rot = fields.KillingRotation([0, 0, 1])
    w = fields.sample_oneform(rot, m)
    K = angle_defect_curvature(m).per_vertex_K
    out = ricci_apply(m, K, w)
    s1 = exterior.star1_values(m)
    diff = out.values - w.values
    rel = np.sqrt(diff @ (s1 * diff)) / np.sqrt(w.values @ (s1 * w.values))
    assert rel < 0.01


def test_ricci_apply_self_adjoint(sphere_mesh, rng):
    m = sphere_mesh(2)
    K = angle_defect_curvature(m).per_vertex_K
    s1 = exterior.star1_values(m)
    w = Cochain(rng.standard_normal(m.n_edges))
    e = Cochain(rng.standard_normal(m.n_edges))
    lhs = e.values @ (s1 * ricci_apply(m, K, w).values)
    rhs = w.values @ (s1 * ricci_apply(m, K, e).values)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_ricci_apply_size_mismatch(sphere_mesh):
    m = sphere_mesh(1)
    w = Cochain(np.zeros(m.n_edges))
    with pytest.raises(CurvatureError):
        ricci_apply(m, np.ones(m.n_vertices + 1), w)
    # a vertex-sized cochain is not a one-form on this mesh
    with pytest.raises(exterior.ExteriorError):
        ricci_apply(m, np.ones(m.n_vertices), Cochain(np.zeros(m.n_vertices)))
