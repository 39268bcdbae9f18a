"""Discrete exterior calculus on triangle meshes.

A ``Cochain`` is a discrete one-form: the integrals of a smooth one-form over
the oriented edges (de Rham map). The coboundary operators d0 and d1 are
exact integer csr matrices, so the identity d1 @ d0 = 0 holds at integer
precision. Hodge stars are diagonal: barycentric lumped areas on vertices
(star0), cotangent weights (cot a + cot b)/2 on edges (``star1_values``),
inverse face areas on faces (star2). This module owns the three weak-form
pencils, each a ``SparseOperator`` pair (stiffness, diagonal mass):
``laplacian0`` on vertices, ``laplacian1`` on edges and ``laplacian2`` on
faces, and the two maps the one-form stiffness is built from:
``exact_map`` (star1 d0 star0^-1) and ``coexact_map`` (d1^T star2), with
A1 = coexact_map d1 + exact_map d0^T star1. The same two maps send a vertex-
or face-pencil residual to the residual of its one-form against (A1, B1),
and apply A1 without assembling it. ``edge_mass`` is star1 checked
positive, the one check that B1 is SPD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriangleMesh, per_mesh


class ExteriorError(Exception):
    """Invalid cochain/operator input or insufficient mesh quality."""


@dataclass(frozen=True)
class Cochain:
    """Discrete one-form: one real value per canonically oriented edge."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ExteriorError("cochain values must be a 1-d array")
        if not np.isfinite(vals).all():
            raise ExteriorError("cochain contains non-finite values")
        object.__setattr__(self, "values", vals)

    def check_mesh(self, mesh: TriangleMesh) -> None:
        if self.values.shape[0] != mesh.n_edges:
            raise ExteriorError(
                f"one-form has {self.values.shape[0]} values, mesh has "
                f"{mesh.n_edges} edges"
            )


@dataclass(frozen=True)
class SparseOperator:
    """Pencil matrix as csr, duplicates summed; each pencil is built exactly symmetric."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix)
        m.sum_duplicates()
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self):
        return self.matrix.shape


@per_mesh
def d0(mesh: TriangleMesh) -> sp.csr_matrix:
    """Coboundary on 0-cochains: row per canonical edge (i, j), -1 at i, +1 at j."""
    ne = mesh.n_edges
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edges.reshape(-1)
    vals = np.tile(np.array([-1.0, 1.0]), ne)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ne, mesh.n_vertices))


@per_mesh
def d1(mesh: TriangleMesh) -> sp.csr_matrix:
    """Coboundary on 1-cochains: +-1 per boundary edge of each face."""
    nf = mesh.n_faces
    rows = np.repeat(np.arange(nf), 3)
    cols = mesh.face_edges.reshape(-1)
    vals = mesh.face_edge_signs.reshape(-1).astype(float)
    return sp.csr_matrix((vals, (rows, cols)), shape=(nf, mesh.n_edges))


def _cotangents(mesh: TriangleMesh) -> np.ndarray:
    """cot of the angle opposite each face corner's edge, shape (n_faces, 3).

    Entry [f, k] is the cotangent at corner k, which faces the edge joining
    corners k+1 and k+2.
    """
    cross, dot = mesh.corner_cross_dot()
    return dot / cross


@per_mesh
def star1_values(mesh: TriangleMesh) -> np.ndarray:
    """Diagonal edge star: (cot a + cot b)/2 over the two opposite angles.

    Negative entries are permitted here; consumers that need an SPD edge mass
    (the 1-form Laplacian) read it through ``edge_mass``, which checks them.
    """
    cots = _cotangents(mesh)
    vals = np.zeros(mesh.n_edges)
    # corner k of face f is opposite the edge stored in face_edges[f, k+1]
    for k in range(3):
        np.add.at(vals, mesh.face_edges[:, (k + 1) % 3], 0.5 * cots[:, k])
    return vals


def edge_mass(mesh: TriangleMesh) -> np.ndarray:
    """``star1_values``, checked positive: the diagonal of the SPD edge mass B1.

    ``laplacian1`` builds B1 from it, and the Hodge split calls it before its
    first solve, so a mesh too poor for the one-form pencil fails before any
    solve.
    """
    s1 = star1_values(mesh)
    if (s1 <= 0).any():
        bad = int((s1 <= 0).sum())
        raise ExteriorError(
            f"mesh quality insufficient for 1-form mass ({bad} nonpositive "
            "edge star entries)"
        )
    return s1


def exact_map(mesh: TriangleMesh):
    """star1 d0 star0^-1: the exact half of A1 is exact_map @ d0^T star1.

    It sends a vertex-pencil residual A0 u - lam B0 u to the residual
    A1 w - lam B1 w of the exact one-form w = d0 u, because d1 d0 = 0
    removes the other half of A1.
    """
    return (sp.diags(star1_values(mesh)) @ d0(mesh)
            @ sp.diags(1.0 / mesh.vertex_areas()))


def coexact_map(mesh: TriangleMesh):
    """d1^T star2: the coexact half of A1 is coexact_map @ d1.

    It sends a face-pencil residual A2 g - lam B2 g to the residual
    A1 w - lam B1 w of the coexact one-form w = star1^-1 d1^T g, because
    d0^T d1^T = 0 removes the other half of A1 and B2 = star2^-1.
    """
    return d1(mesh).T @ sp.diags(1.0 / mesh.face_areas())


@per_mesh
def laplacian0(mesh: TriangleMesh):
    """Weak-form 0-form Hodge Laplacian pair (A, B).

    A = d0^T star1 d0 (symmetric positive semidefinite, constants in the
    kernel), B = star0, the barycentric lumped vertex areas (SPD diagonal
    mass). Generalized pencil for the scalar spectrum.
    """
    D0 = d0(mesh)
    S1 = sp.diags(star1_values(mesh))
    A = (D0.T @ S1 @ D0).tocsr()
    areas = mesh.vertex_areas()
    if (areas <= 0).any():
        raise ExteriorError("vertex with nonpositive lumped area")
    return SparseOperator(A), SparseOperator(sp.diags(areas).tocsr())


@per_mesh
def laplacian1(mesh: TriangleMesh):
    """Weak-form 1-form Hodge Laplacian pair (A, B).

    A = coexact_map d1 + exact_map d0^T star1, i.e. d1^T star2 d1 +
    star1 d0 star0^-1 d0^T star1, and B = star1. Requires all star1 entries
    positive so that B is SPD (``edge_mass``). The Hodge split never
    assembles it: its gate applies A1 through the two maps; this pair is the
    reference pencil that dense solves compare against.
    """
    S1 = sp.diags(edge_mass(mesh))
    A = (coexact_map(mesh) @ d1(mesh) + exact_map(mesh) @ d0(mesh).T @ S1).tocsr()
    # the products round asymmetrically; their mean is exactly symmetric
    return SparseOperator((A + A.T) * 0.5), SparseOperator(S1.tocsr())


def laplacian2(mesh: TriangleMesh):
    """Face pencil (A2, B2) = (d1 star1^-1 d1^T, diag(face areas)).

    Its eigenpairs (lambda, g) map through star1^-1 d1^T to the coexact
    one-form eigenpairs; its kernel is the constants.
    """
    D1 = d1(mesh)
    # each off-diagonal entry is one product, so A2 is exactly symmetric
    A2 = SparseOperator((D1 @ sp.diags(1.0 / star1_values(mesh)) @ D1.T).tocsr())
    return A2, SparseOperator(sp.diags(mesh.face_areas()).tocsr())


def codifferential_norm(mesh: TriangleMesh, omega: Cochain):
    """Mass-weighted norms (|d* w|, |d w|), both normalized by |w|_star1.

    d* w is the 0-cochain star0^-1 d0^T star1 w measured in the star0 norm;
    d w is the 2-cochain d1 w measured in the star2 norm. Their squares sum
    to the Rayleigh quotient w.A1 w / w.B1 w of ``laplacian1``, because A1
    is the sum of the two pairings.
    """
    omega.check_mesh(mesh)
    w = omega.values
    s1 = star1_values(mesh)
    norm_w = float(np.sqrt(w @ (s1 * w)))
    if norm_w == 0.0:
        raise ExteriorError("cannot normalize zero form")
    D0 = d0(mesh)
    areas_v = mesh.vertex_areas()
    x = (D0.T @ (s1 * w)) / areas_v
    norm_dstar = float(np.sqrt(x @ (areas_v * x))) / norm_w
    D1 = d1(mesh)
    y = D1 @ w
    norm_d = float(np.sqrt(y @ (y / mesh.face_areas()))) / norm_w
    return norm_dstar, norm_d
