import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgelab import exterior, fields, mesh
from hodgelab.fields import (
    ConformalGradient,
    FieldError,
    KillingRotation,
    ProjectiveGradient,
    sample_oneform,
)
from hodgelab.config import builtin_fields
from hodgelab.mesh import SurfaceSpec

UNIT_SPHERE = SurfaceSpec(kind="icosphere", level=5, radius=1.0)


def evaluate(field, surface, points):
    """Tangential projection of the field's ambient formula at points of ``surface``."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    fields._check_on_surface(surface, pts)
    grad = pts / np.square(surface.axes)
    normals = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    vals = field.ambient(pts)
    vals = vals - normals * np.einsum("ij,ij->i", normals, vals)[:, None]
    return vals[0] if single else vals


def test_evaluate_rotation():
    rot = KillingRotation([0, 0, 1])
    assert np.allclose(evaluate(rot, UNIT_SPHERE, [1, 0, 0]), [0, 1, 0], atol=1e-15)


def test_evaluate_gradient_at_pole_and_equator():
    grad = ConformalGradient([0, 0, 1])
    assert np.allclose(evaluate(grad, UNIT_SPHERE, [0, 0, 1]), [0, 0, 0], atol=1e-15)
    assert np.allclose(evaluate(grad, UNIT_SPHERE, [1, 0, 0]), [0, 0, 1], atol=1e-15)


def test_evaluate_off_surface_errors():
    rot = KillingRotation([0, 0, 1])
    with pytest.raises(FieldError, match="off the surface"):
        evaluate(rot, UNIT_SPHERE, [1.1, 0, 0])


def test_evaluate_tangential(rng):
    surf = SurfaceSpec(kind="spheroid", level=3, a=1.0, c=2.0)
    quad = ProjectiveGradient(np.diag([1.0, 1.0, -2.0]))
    u = rng.standard_normal((50, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * np.array([1.0, 1.0, 2.0])
    vals = evaluate(quad, surf, pts)
    normals = pts / np.array([1.0, 1.0, 4.0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    assert np.abs(np.einsum("ij,ij->i", vals, normals)).max() < 1e-12


def test_field_parameter_validation():
    with pytest.raises(FieldError):
        KillingRotation([0, 0, 0])
    with pytest.raises(FieldError):
        ConformalGradient([0, 0, 0])
    with pytest.raises(FieldError):
        ProjectiveGradient(np.eye(3))  # not traceless
    with pytest.raises(FieldError):
        ProjectiveGradient(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))  # not symmetric
    # NaN passes every comparison-based check, so finiteness is tested first
    for bad in (np.nan, np.inf):
        with pytest.raises(FieldError, match="rotation axis must be finite"):
            KillingRotation([bad, 0, 0])
        with pytest.raises(FieldError, match="gradient direction must be finite"):
            ConformalGradient([0, bad, 1])
        Q = np.zeros((3, 3))
        Q[0, 0] = bad
        with pytest.raises(FieldError, match="quadratic coefficients must be finite"):
            ProjectiveGradient(Q)
    # an axis or direction is a 3-vector whose norm is finite and nonzero
    for cls, what in ((KillingRotation, "rotation axis"),
                      (ConformalGradient, "gradient direction")):
        for short_or_long in ([1, 0], [1, 0, 0, 0], [[1, 0, 0]]):
            with pytest.raises(FieldError, match=f"{what} must be a 3-vector"):
                cls(short_or_long)
        with pytest.raises(FieldError, match=f"{what} must have a finite norm"):
            cls([1e300, 1e300, 0])


def _traceless_symmetric(rng):
    Q = rng.standard_normal((3, 3))
    Q = 0.5 * (Q + Q.T)
    return Q - np.trace(Q) / 3.0 * np.eye(3)


def test_sampling_zero_field(sphere_mesh):
    m = sphere_mesh(2)
    zero = ProjectiveGradient(np.zeros((3, 3)))
    assert not np.any(sample_oneform(zero, m).values)


def test_sampling_linearity(sphere_mesh, rng):
    m = sphere_mesh(2)
    Q1 = _traceless_symmetric(rng)
    Q2 = _traceless_symmetric(rng)
    a, b = 1.7, -0.4
    combo = sample_oneform(ProjectiveGradient(a * Q1 + b * Q2), m).values
    parts = (
        a * sample_oneform(ProjectiveGradient(Q1), m).values
        + b * sample_oneform(ProjectiveGradient(Q2), m).values
    )
    assert np.allclose(combo, parts, atol=1e-14)


def test_sampling_gradient_matches_d0(sphere_mesh):
    m = sphere_mesh(5)
    grad = ConformalGradient([0, 0, 1])
    w = sample_oneform(grad, m).values
    f = m.vertices[:, 2]
    d0f = exterior.d0(m) @ f
    assert np.abs(w - d0f).max() < 1e-6


@pytest.mark.parametrize("a, c", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)],
                         ids=["sphere", "spheroid_112", "spheroid_221"])
def test_sampling_needs_no_tangential_projection(sphere_mesh, spheroid_mesh, a, c):
    # the chord's velocity is tangent to the mesh's surface, so pairing it
    # with the ambient formula gives the cochain of the projected field
    m = sphere_mesh(4) if a == c else spheroid_mesh(4, a, c)
    points, dgamma = fields._edge_quadrature(m)
    for spec in builtin_fields():
        field = spec.build()
        w = sample_oneform(field, m).values
        tangent = evaluate(field, m.source, points).reshape(dgamma.shape)
        projected = np.einsum("eti,eti->et", tangent, dgamma) @ fields._GL_WEIGHTS
        assert np.abs(w - projected).max() <= 1e-14 * np.abs(w).max(), spec.name


def test_rotation_antipodal_symmetry(sphere_mesh):
    # the rotation field is odd under x -> -x while the antipodal map also
    # reverses curve directions, so oriented edge integrals are even: the
    # stored canonical values match up to the canonical-orientation sign of
    # the image edge
    m = sphere_mesh(2)
    rot = KillingRotation([0, 0, 1])
    w = sample_oneform(rot, m).values
    from scipy.spatial import cKDTree

    tree = cKDTree(m.vertices)
    dist, mapped = tree.query(-m.vertices)
    assert dist.max() < 1e-12
    edge_index = {(i, j): k for k, (i, j) in enumerate(map(tuple, m.edges))}
    for k, (i, j) in enumerate(map(tuple, m.edges)):
        mi, mj = int(mapped[i]), int(mapped[j])
        canon = (min(mi, mj), max(mi, mj))
        sign = 1.0 if mi < mj else -1.0
        assert w[edge_index[canon]] * sign == pytest.approx(w[k], abs=1e-13)


def test_sampled_rayleigh_quotients(sphere_mesh):
    # the one-form Rayleigh quotient <w, Delta w> / |w|^2 is |d*w|^2 + |dw|^2
    m = sphere_mesh(5)
    cases = [
        (KillingRotation([0, 0, 1]), 2.0),
        (ConformalGradient([1, 0, 0]), 2.0),
        (ProjectiveGradient(np.diag([1.0, -1.0, 0.0])), 6.0),
    ]
    for field, target in cases:
        nd, nw = exterior.codifferential_norm(m, sample_oneform(field, m))
        assert abs(nd**2 + nw**2 - target) / target < 0.01


def test_six_low_fields_linearly_independent(sphere_mesh):
    m = sphere_mesh(3)
    s1 = exterior.star1_values(m)
    samples = []
    for axis in np.eye(3):
        samples.append(sample_oneform(KillingRotation(axis), m).values)
    for direction in np.eye(3):
        samples.append(sample_oneform(ConformalGradient(direction), m).values)
    V = np.stack(samples, axis=1)
    gram = V.T @ (V * s1[:, None])
    cond = np.linalg.cond(gram)
    assert cond < 100


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_codifferential_classification_families(seed):
    m = mesh.build_icosphere(3, 1.0)
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    rot_w = sample_oneform(KillingRotation(axis), m)
    nd, _ = exterior.codifferential_norm(m, rot_w)
    assert nd < 0.02
    Q = _traceless_symmetric(rng)
    if np.abs(Q).max() > 1e-3:
        quad_w = sample_oneform(ProjectiveGradient(Q), m)
        _, nw = exterior.codifferential_norm(m, quad_w)
        assert nw < 1e-8
