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
chord of each canonical edge projected to the mesh's own surface
(``mesh.source``), with 4-point Gauss-Legendre quadrature; a field carries
only its parameter. The integrand <V, gamma'> needs no tangential projection
of V: the chord's velocity gamma' is tangent (n . gamma' = 0 by construction,
see _projected_chord), so the normal part of V pairs to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import Cochain
from .mesh import SurfaceSpec, TriangleMesh, per_mesh

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


@dataclass(frozen=True)
class KillingRotation:
    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _unit_vector(self.axis, "rotation axis"))

    def ambient(self, points):
        return np.cross(self.axis, points)


@dataclass(frozen=True)
class ConformalGradient:
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction",
                           _unit_vector(self.direction, "gradient direction"))

    def ambient(self, points):
        return np.broadcast_to(self.direction, points.shape)


@dataclass(frozen=True)
class ProjectiveGradient:
    coefficients: np.ndarray

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


def _projected_chord(surface: SurfaceSpec, p0, p1, t):
    """Points and velocities of the chord projected to the surface at times t.

    The chord is mapped through the unit-sphere domain: u = y / axes scaled
    back after radial normalization, which keeps the curve exactly on the
    surface and yields a closed-form velocity. The velocity axes * dproj,
    with dproj orthogonal to uhat, is tangent: the normal at axes * uhat is
    parallel to uhat / axes.
    """
    axes = surface.axes
    dp = (p1 - p0)[:, None, :]
    # u = y / axes and uhat = u / norm, in the buffer of y
    uhat = p0[:, None, :] + t[None, :, None] * dp
    uhat /= axes
    norm = np.linalg.norm(uhat, axis=-1, keepdims=True)
    uhat /= norm
    gamma = axes * uhat
    du = dp / axes
    # dproj = (du - uhat (uhat . du)) / norm and dgamma = axes * dproj, in
    # the buffer of uhat
    dgamma = uhat
    dgamma *= np.einsum("eti,eti->et", uhat, du)[:, :, None]
    np.subtract(du, dgamma, out=dgamma)
    dgamma /= norm
    dgamma *= axes
    return gamma, dgamma


@per_mesh
def _edge_quadrature(mesh: TriangleMesh):
    """(points, velocities) at the edge quadrature nodes of the mesh's surface.

    Points are flattened to (n_edges * nodes, 3); velocities keep the
    (n_edges, nodes, 3) shape. They depend on the mesh alone, so they are
    computed, and the points checked on the surface, once per mesh.
    """
    p0 = mesh.vertices[mesh.edges[:, 0]]
    p1 = mesh.vertices[mesh.edges[:, 1]]
    gamma, dgamma = _projected_chord(mesh.source, p0, p1, _GL_NODES)
    points = gamma.reshape(-1, 3)
    _check_on_surface(mesh.source, points)
    return points, dgamma


def sample_oneform(field: AnalyticField, mesh: TriangleMesh) -> Cochain:
    """Integrate the field's dual one-form over every canonical edge.

    Uses 4-point Gauss-Legendre quadrature along the chord projected to
    ``mesh.source``, oriented low index -> high index. The chord's velocity
    is tangent, so the ambient formula is paired with it unprojected.
    """
    if mesh.source is None:
        raise FieldError("mesh does not carry a surface description")
    points, dgamma = _edge_quadrature(mesh)
    vals = field.ambient(points).reshape(dgamma.shape)
    return Cochain(np.einsum("eti,eti->et", vals, dgamma) @ _GL_WEIGHTS)
