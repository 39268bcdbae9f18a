"""Exact verification engine on round spheres S^n(r), any intrinsic n >= 2.

Restrictions of harmonic polynomials of degree 1 and 2 are the first and
second eigenfunctions of the (positive, Delta = d* d) Laplace-Beltrami
operator, with eigenvalues l (l + n - 1) / r^2. Their covariant derivatives up
to third order have closed forms obtained from ambient partial derivatives by
tangential projection plus second-fundamental-form corrections (with the
convention II = -(g / r) n for the outward unit normal n):

    (grad f)      = P df~
    (hess f)(X,Y) = X^T H Y - (g(X,Y)/r) (n . df~)
    (D3 f)(X;Y,Z) = -(l/r^2) df(X) g(Y,Z)
                    - (1/r) [ g(X,Y) u(Z) + g(X,Z) u(Y) ],   u = P H n

where df~ and H are the ambient gradient and Hessian, P = I - n n^T, and the
first slot of D3 is the differentiation direction (so D3 is symmetric in its
last two slots). Three residuals evaluate the defining equations and the
Weitzenboeck-type identities of conformal/projective Killing forms pointwise
in an orthonormal tangent frame: ``obata_residual``, ``tanno_residual`` (the
rigidity system below, for any k) and ``weitzenboeck_residual`` (each
identity of the ``WEITZENBOECK`` table, which gives its d d* coefficient and
the field families that satisfy it). They vanish to machine precision
exactly on the field classes that satisfy them and are O(1) on the others.

Each residual is evaluated in closed form, with O(n) vector operations per
point and neither the frame matrix nor a tensor. The frame is the Householder
reflection H that maps the last basis vector to the normal, so frame^T y is
H y without its last entry, and there g = I. The Obata matrix is a scalar
times g, and each term of a Weitzenboeck identity a scalar times w. The
rigidity residual below is p(Z) g(X,Y) + g(Z,X) q(Y) + g(Z,Y) q(X) with
p = (2k - l/r^2) df and q = k df - u/r. Its entries are p_i + 2 q_i (Z = X =
Y = i), p_Z (X = Y != Z), q_Y or q_X (Z equal to one of X, Y) and 0; as
2q = (p + 2q) - p, its max-norm is that of (p + 2q, p), 3 alpha max_i |df_i|
for l = 1, k = alpha (u = 0). ``covariant_derivatives`` keeps the ambient
tensors, the tests' reference for finite differences and these closed forms.

Third-order conventions: the classical rigidity system

    (D3 f)(Z;X,Y) + k [ 2 df(Z) g(X,Y) + df(X) g(Z,Y) + df(Y) g(X,Z) ] = 0

binds the differentiation slot to the coefficient-2 term; with that binding
the second eigenfunctions satisfy it exactly for k = 1/r^2. (First
eigenfunctions satisfy the differentiated Obata identity
(D3 f)(Z;X,Y) + (1/r^2) df(Z) g(X,Y) = 0 instead, which has the first term
only; they are not solutions of the full symmetrized system.)
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

POINT_TOL = 1e-10
DEFAULT_SAMPLES = 100


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class Weitzenboeck:
    """Delta w = 2 Ric* w + coefficient(n) d d* w, exact for the ``families``."""

    coefficient: Callable[[int], float]
    families: frozenset


# the one place each identity is written; the oracle and discrete residuals,
# the oracle battery and the field stage all read it
WEITZENBOECK = {
    # projective Killing forms (Yano)
    "yano_2_2": Weitzenboeck(lambda n: 2.0 / (n + 1),
                             frozenset({"killing_rotation", "projective_gradient"})),
    # conformal Killing forms (Lichnerowicz)
    "lichnerowicz_3_2": Weitzenboeck(lambda n: -(1.0 - 2.0 / n),
                                     frozenset({"killing_rotation", "conformal_gradient"})),
}


@dataclass(frozen=True)
class SphereContext:
    """Round sphere S^n(r) embedded in R^(n+1); alpha = 1/r^2."""

    n: int
    r: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise OracleError("intrinsic dimension must be >= 2")
        if self.r <= 0:
            raise OracleError("radius must be positive")

    @property
    def alpha(self) -> float:
        return 1.0 / (self.r * self.r)

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    def ricci_eigenvalue(self) -> float:
        return (self.n - 1) * self.alpha

    def sample_points(self, count: int = DEFAULT_SAMPLES, seed: int = 7) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, self.ambient_dim))
        return self.r * g / np.linalg.norm(g, axis=1, keepdims=True)


def laplace_eigenvalue(degree: int, n: int, r: float = 1.0) -> float:
    """Eigenvalue l (l + n - 1) / r^2 of degree-l spherical harmonics."""
    if degree < 0 or n < 2 or r <= 0:
        raise OracleError("need degree >= 0, n >= 2, r > 0")
    return degree * (degree + n - 1) / (r * r)


@dataclass(frozen=True)
class HarmonicPoly:
    """Restriction to S^n(r) of a degree-1 or degree-2 harmonic polynomial.

    degree 1: f = d . x with coefficient vector d in R^(n+1);
    degree 2: f = x^T Q x with Q symmetric traceless (harmonicity).
    """

    degree: int
    sphere: SphereContext
    coefficients: np.ndarray

    def __post_init__(self):
        dim = self.sphere.ambient_dim
        if self.degree == 1:
            d = np.asarray(self.coefficients, dtype=float)
            if d.shape != (dim,) or not np.any(d):
                raise OracleError(f"degree-1 coefficients must be a nonzero {dim}-vector")
            object.__setattr__(self, "coefficients", d)
            return
        if self.degree == 2:
            Q = np.asarray(self.coefficients, dtype=float)
            if Q.shape != (dim, dim):
                raise OracleError(f"degree-2 coefficients must be {dim}x{dim}")
            if np.abs(Q - Q.T).max() > 1e-12:
                raise OracleError("coefficient matrix must be symmetric")
            if abs(np.trace(Q)) > 1e-12:
                raise OracleError("coefficient matrix must be traceless")
            if not np.any(Q):
                raise OracleError("coefficient matrix must be nonzero")
            object.__setattr__(self, "coefficients", Q)
            return
        raise OracleError("degree must be 1 or 2")

    @cached_property
    def eigenvalue(self) -> float:
        return laplace_eigenvalue(self.degree, self.sphere.n, self.sphere.r)

    def value(self, x: np.ndarray) -> float:
        if self.degree == 1:
            return float(self.coefficients @ x)
        return float(x @ self.coefficients @ x)

    def ambient_gradient(self, x: np.ndarray) -> np.ndarray:
        if self.degree == 1:
            return self.coefficients.copy()
        return 2.0 * (self.coefficients @ x)

    def ambient_hessian(self, x: np.ndarray) -> np.ndarray:
        dim = self.sphere.ambient_dim
        if self.degree == 2:
            return 2.0 * self.coefficients
        return np.zeros((dim, dim))


def _check_point(sphere: SphereContext, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sphere.ambient_dim,):
        raise OracleError(f"point must live in R^{sphere.ambient_dim}")
    # sqrt(x . x) is np.linalg.norm(x) without its dispatch; `not <=` rejects NaN
    if not abs(math.sqrt(x @ x) - sphere.r) <= POINT_TOL * max(sphere.r, 1.0):
        raise OracleError("point not on the sphere")
    return x


def tangent_frame(sphere: SphereContext, x: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frame at x (columns), via a Householder reflection."""
    x = _check_point(sphere, x)
    return _frame_coordinates(x / sphere.r, np.eye(sphere.ambient_dim))


def _frame_coordinates(nhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """frame^T y for a vector y, or for each row of a matrix y.

    H = I - 2 v v^T / (v . v), v = nhat - e with e the last basis vector,
    maps e to nhat; its remaining columns are the frame. H is symmetric, so
    frame^T y is H y without its last entry. Applied to the rows of I, this
    gives the frame itself.
    """
    v = nhat.copy()
    v[-1] -= 1.0
    nv = v @ v
    if nv > 1e-30:
        y = y - ((2.0 / nv) * (y @ v))[..., None] * v
    return y[..., :-1]


def _tangential(nhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P v with P = I - n n^T, without forming P; v a vector or rows."""
    return v - (v @ nhat)[..., None] * nhat


def _combination(a: np.ndarray, b: np.ndarray, g: np.ndarray, c: float) -> np.ndarray:
    """T[z, x, y] = c a(Z) g(X,Y) + g(Z,X) b(Y) + g(Z,Y) b(X).

    Both D3 f and the rigidity systems have this shape; ``g`` is the metric
    in the basis of the covectors ``a`` and ``b``.
    """
    return c * a[:, None, None] * g + g[:, :, None] * b + g[:, None, :] * b[:, None]


def covariant_derivatives(f: HarmonicPoly, x) -> tuple:
    """(df, hess, third) as fully tangential ambient tensors at x.

    third[a, b, c] has the differentiation direction in slot a and is
    symmetric in (b, c).
    """
    sphere = f.sphere
    x = _check_point(sphere, x)
    r = sphere.r
    nhat = x / r
    P = np.eye(sphere.ambient_dim) - np.outer(nhat, nhat)
    grad = f.ambient_gradient(x)
    H = f.ambient_hessian(x)

    df = P @ grad
    phi = nhat @ grad  # normal derivative; = l f / r by Euler's relation
    hess = P @ H @ P - (phi / r) * P

    u = P @ (H @ nhat)
    third = _combination(df, -u / r, P, -f.degree / r**2)
    return df, hess, third


def obata_residual(f: HarmonicPoly, x) -> float:
    """Max-norm residual of hess f + (mu/n) f g = 0 over a tangent frame.

    Defined for first eigenfunctions (mu = n alpha); normalized by
    max(|f|, |df|). A linear f has hess f = -(n . grad f / r) g.
    """
    if f.degree != 1:
        raise OracleError("Obata residual defined for first-eigenvalue functions")
    sphere = f.sphere
    x = _check_point(sphere, x)
    nhat = x / sphere.r
    grad = f.ambient_gradient(x)
    value = f.value(x)
    res = (f.eigenvalue / sphere.n) * value - (nhat @ grad) / sphere.r
    df = _tangential(nhat, grad)
    return float(abs(res) / max(abs(value), math.sqrt(df @ df)))


def tanno_residual(f: HarmonicPoly, x, k: float | None = None) -> float:
    """Max-norm residual of the third-order rigidity system, normalized by |df|.

    The system is (D3 f)(Z;X,Y) + k (2 df(Z) g(X,Y) + df(X) g(Z,Y)
    + df(Y) g(X,Z)) = 0 with the differentiation slot on the coefficient-2
    term. ``k`` defaults to alpha = 1/r^2, the constant for which non-constant
    solutions characterize the sphere of radius 1/sqrt(k). For eigenfunctions
    the generalized system, phi = (2(n+1))^-1 d(Delta f) in place of k df, is
    this one with k = mu / (2(n+1)), or -k under phi's opposite sign.
    """
    sphere = f.sphere
    x = _check_point(sphere, x)
    r = sphere.r
    k = sphere.alpha if k is None else k
    nhat = x / r
    ambient = np.array((f.ambient_gradient(x), f.ambient_hessian(x) @ nhat))
    dfr, ur = _frame_coordinates(nhat, _tangential(nhat, ambient))
    p = (2.0 * k - f.degree / r**2) * dfr  # p and q of the module docstring
    q = k * dfr - ur / r
    res = float(np.abs(np.concatenate((p + 2.0 * q, p))).max())
    norm_df = math.sqrt(dfr @ dfr)
    if norm_df == 0.0:
        return 0.0 if res == 0.0 else float("inf")
    return res / norm_df


@dataclass(frozen=True)
class RotationForm:
    """Killing one-form dual to the rotation field x -> A x, A skew."""

    generator: np.ndarray
    sphere: SphereContext

    def __post_init__(self):
        A = np.asarray(self.generator, dtype=float)
        dim = self.sphere.ambient_dim
        if A.shape != (dim, dim) or np.abs(A + A.T).max() > 1e-12:
            raise OracleError(f"generator must be a skew {dim}x{dim} matrix")
        if not np.any(A):
            raise OracleError("generator must be nonzero")
        object.__setattr__(self, "generator", A)

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.generator @ x


def weitzenboeck_residual(form, x, which: str) -> float:
    """Pointwise residual of the identity ``WEITZENBOECK[which]``, over alpha |w|.

    The identity is Delta w = 2 Ric* w + c d d* w with the table's c; it
    holds exactly for the field families (``FieldSpec.kind``) the table lists
    and fails by O(1) for the others. Its terms have closed forms, with
    Ric* w = (n-1) alpha w: for w = df with Delta f = mu f, Delta w =
    d d* w = mu w (d* w = Delta f); for a rotation Killing form,
    Delta w = 2 (n-1) alpha w and d* w = 0. Each is a multiple of w.
    """
    identity = WEITZENBOECK.get(which)
    if identity is None:
        raise OracleError(f"unknown identity {which!r}")
    if not isinstance(form, (HarmonicPoly, RotationForm)):
        raise OracleError(f"unsupported one-form kind {type(form).__name__}")
    sphere = form.sphere
    x = _check_point(sphere, x)
    ric = sphere.ricci_eigenvalue()
    if isinstance(form, HarmonicPoly):
        w = _tangential(x / sphere.r, form.ambient_gradient(x))
        delta = ddstar = form.eigenvalue
    else:
        w = form.value(x)
        delta, ddstar = 2.0 * ric, 0.0
    if w @ w == 0.0:
        raise OracleError("one-form vanishes at the sample point")
    # the residual vector is coefficient * w: its norm over alpha |w| is below
    coefficient = delta - (2.0 * ric + identity.coefficient(sphere.n) * ddstar)
    return abs(coefficient) / sphere.alpha


@dataclass(frozen=True)
class BoundSet:
    """Eigenvalue interval of one of the two bound theorems.

    For the projective mode the printed upper constant 2 (n-1) P / (n+1)
    contradicts the attained eigenvalue 2 (n+1) alpha of second-eigenfunction
    gradients; eliminating d d* w from the Weitzenboeck identity and pairing
    with w yields 2 (n+1) P / (n-1) instead. Both are reported;
    ``consistent`` records whether the printed interval is nonempty.
    """

    mode: str
    lower: float
    upper_printed: float
    upper_rederived: float | None
    consistent: bool


def theorem_bounds(n: int, rho: float, P: float, mode: str) -> BoundSet:
    """Bound interval for eigenvalues of conformal/projective Killing forms.

    conformal:  n/(n-1) rho <= lambda <= 2 P
    projective: 2 rho <= lambda <= 2 (n-1)/(n+1) P (printed),
                with the rederived upper constant 2 (n+1)/(n-1) P.
    """
    if n < 2:
        raise OracleError("n must be >= 2")
    if not 0 < rho <= P:
        raise OracleError("need 0 < rho <= P")
    if mode == "conformal":
        lower = n / (n - 1) * rho
        upper = 2.0 * P
        return BoundSet("conformal", lower, upper, None, lower <= upper)
    if mode == "projective":
        lower = 2.0 * rho
        upper_printed = 2.0 * (n - 1) / (n + 1) * P
        upper_rederived = 2.0 * (n + 1) / (n - 1) * P
        return BoundSet(
            "projective", lower, upper_printed, upper_rederived,
            lower <= upper_printed,
        )
    raise OracleError(f"unknown bound mode {mode!r}")
