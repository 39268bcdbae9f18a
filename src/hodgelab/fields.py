"""Analytic tangent vector fields on the built-in surfaces and their sampling.

Supported field families (named by their construction):

- ``KillingRotation(axis)``: x -> axis x x, the rotation generator. On a
  round sphere (and, for the z-axis, on a spheroid) this is a Killing field.
- ``ConformalGradient(direction)``: surface gradient of the linear function
  f(x) = direction . x. On the round sphere these span the first scalar
  eigenspace; their duals are conformal Killing one-forms.
- ``ProjectiveGradient(Q)``: surface gradient of the quadratic harmonic
  f(x) = x^T Q x, Q symmetric traceless. On the round sphere these span the
  second eigenspace; their duals attain the projective upper bound.

Fields that are deliberately neither Killing nor conformal need no family of
their own: on a spheroid, a rotation about any axis but the symmetry axis is
neither closed nor coclosed.

Sampling a field into an edge cochain integrates the dual one-form along the
surface-projected chord of each canonical edge with 4-point Gauss-Legendre
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import Cochain
from .mesh import SurfaceSpec, TriangleMesh

ON_SURFACE_TOL = 1e-10

# Gauss-Legendre nodes/weights on [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


class FieldError(Exception):
    pass


def _finite(value, what: str) -> np.ndarray:
    """``value`` as a float array; FieldError unless every entry is finite."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise FieldError(f"{what} must be finite")
    return arr


def _unit_vector(value, what: str) -> np.ndarray:
    """``value`` over its norm.

    FieldError unless it is a finite 3-vector with a finite, nonzero norm.
    """
    v = _finite(value, what)
    if v.shape != (3,):
        raise FieldError(f"{what} must be a 3-vector")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = np.linalg.norm(v)
    if norm == 0:
        raise FieldError(f"{what} must be nonzero")
    if not np.isfinite(norm):
        raise FieldError(f"{what} must have a finite norm")
    return v / norm


def _check_on_surface(surface: SurfaceSpec, points: np.ndarray) -> None:
    level = np.sum((points / surface.axes) ** 2, axis=-1)
    worst = np.abs(level - 1.0).max()
    if worst > ON_SURFACE_TOL:
        raise FieldError(f"point off the surface (level-set residual {worst:.2e})")


def _unit_normals(surface: SurfaceSpec, points: np.ndarray) -> np.ndarray:
    grad = points / np.square(surface.axes)
    return grad / np.linalg.norm(grad, axis=-1, keepdims=True)


@dataclass(frozen=True)
class KillingRotation:
    axis: np.ndarray
    surface: SurfaceSpec

    def __post_init__(self):
        object.__setattr__(self, "axis", _unit_vector(self.axis, "rotation axis"))

    def ambient(self, points):
        return np.cross(np.broadcast_to(self.axis, points.shape), points)


@dataclass(frozen=True)
class ConformalGradient:
    direction: np.ndarray
    surface: SurfaceSpec

    def __post_init__(self):
        object.__setattr__(self, "direction",
                           _unit_vector(self.direction, "gradient direction"))

    def ambient(self, points):
        return np.broadcast_to(self.direction, points.shape).copy()


@dataclass(frozen=True)
class ProjectiveGradient:
    coefficients: np.ndarray
    surface: SurfaceSpec

    def __post_init__(self):
        Q = _finite(self.coefficients, "quadratic coefficients")
        if Q.shape != (3, 3):
            raise FieldError("quadratic coefficients must be a 3x3 matrix")
        if np.abs(Q - Q.T).max() > 1e-12 or abs(np.trace(Q)) > 1e-12:
            raise FieldError("quadratic coefficients must be symmetric traceless")
        object.__setattr__(self, "coefficients", Q)

    def ambient(self, points):
        return 2.0 * points @ self.coefficients


AnalyticField = KillingRotation | ConformalGradient | ProjectiveGradient


def _tangential(vals: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """``vals`` minus their components along the unit ``normals``."""
    return vals - normals * np.einsum("ij,ij->i", normals, vals)[:, None]


def evaluate(field: AnalyticField, points) -> np.ndarray:
    """Tangential projection of the field's ambient formula at surface points."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    _check_on_surface(field.surface, pts)
    vals = _tangential(field.ambient(pts), _unit_normals(field.surface, pts))
    return vals[0] if single else vals


def _projected_chord(surface: SurfaceSpec, p0, p1, t):
    """Points and velocities of the chord projected to the surface at times t.

    The chord is mapped through the unit-sphere domain: u = y / axes scaled
    back after radial normalization, which keeps the curve exactly on the
    surface and yields a closed-form velocity.
    """
    axes = surface.axes
    y = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    u = y / axes
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    uhat = u / norm
    gamma = axes * uhat
    du = (p1 - p0)[:, None, :] / axes
    dproj = (du - uhat * np.einsum("eti,eti->et", uhat, du)[:, :, None]) / norm
    dgamma = axes * dproj
    return gamma, dgamma


def _edge_quadrature(mesh: TriangleMesh):
    """(points, unit normals, velocities) at the edge quadrature nodes.

    Points and normals are flattened to (n_edges * nodes, 3); velocities keep
    the (n_edges, nodes, 3) shape. They depend on the mesh alone, so they are
    computed, and the points checked on the surface, once per mesh.
    """
    def build():
        p0 = mesh.vertices[mesh.edges[:, 0]]
        p1 = mesh.vertices[mesh.edges[:, 1]]
        gamma, dgamma = _projected_chord(mesh.source, p0, p1, _GL_NODES)
        points = gamma.reshape(-1, 3)
        _check_on_surface(mesh.source, points)
        return points, _unit_normals(mesh.source, points), dgamma

    return mesh.memoized("edge_quadrature", build)


def sample_oneform(field: AnalyticField, mesh: TriangleMesh) -> Cochain:
    """Integrate the field's dual one-form over every canonical edge.

    Uses 4-point Gauss-Legendre quadrature along the surface-projected chord,
    oriented low index -> high index.
    """
    if mesh.source is None:
        raise FieldError("mesh does not carry a surface description")
    # levels may differ; an a == c spheroid is the sphere of that radius
    if mesh.source.axes != field.surface.axes:
        raise FieldError(
            f"field surface {field.surface} does not match mesh surface "
            f"{mesh.source}"
        )
    points, normals, dgamma = _edge_quadrature(mesh)
    vals = _tangential(field.ambient(points), normals).reshape(dgamma.shape)
    integrand = np.einsum("eti,eti->et", vals, dgamma)
    return Cochain(integrand @ _GL_WEIGHTS)

