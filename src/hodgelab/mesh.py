"""Oriented closed triangle meshes approximating round spheres and spheroids.

Meshes are generated by midpoint subdivision of an icosahedron whose poles sit
on the z-axis; after every subdivision step new vertices are projected back to
the target surface. All derived combinatorics (canonical edges, edge-to-face
incidence) are computed once at construction and the resulting mesh is
immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np
import scipy.sparse as sp

MAX_SUBDIVISION_LEVEL = 8

# Face area is declared degenerate below this fraction of the mean area.
DEGENERATE_AREA_FRACTION = 1e-12

# The sizes (radius, semi-axes) for which every power of a size that the
# pipeline forms is a finite, normal number: 2^-63 to 2^63. The bound comes
# from the squares held in float32: the solver's preconditioners store the
# B-scaled pencil, whose entries scale as size^-2, and its approximate
# inverse, which scales as size^2. The largest power in float64, the sixth
# (a*a*b*b*c*c in curvature.ellipsoid_curvature_exact), stays normal over a
# wider range, 5.3e-52 to 2.4e51.
SIZE_RANGE = (float(np.finfo(np.float32).tiny) ** 0.5,
              float(np.finfo(np.float32).tiny) ** -0.5)


class MeshError(Exception):
    """Invalid mesh topology, geometry, or generator arguments."""


class ResourceGuardError(MeshError):
    """Requested refinement level exceeds the memory guard."""


@dataclass(frozen=True)
class SurfaceSpec:
    """Description of a built-in surface: a round sphere or a spheroid.

    ``kind`` is ``"icosphere"`` or ``"spheroid"``. For an icosphere, ``radius``
    is set; for a spheroid the semi-axes are ``(a, a, c)``.
    """

    kind: str
    level: int
    radius: float | None = None
    a: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("icosphere", "spheroid"):
            raise MeshError(f"unknown surface kind {self.kind!r}")
        if self.level < 0:
            raise MeshError("subdivision level must be >= 0")
        if self.level > MAX_SUBDIVISION_LEVEL:
            raise ResourceGuardError(
                f"level {self.level} exceeds guard ({MAX_SUBDIVISION_LEVEL}); "
                f"a level-{self.level} mesh would not fit the memory budget"
            )
        # the chained comparisons are False for NaN and inf as well as for <= 0
        if self.kind == "icosphere":
            if self.a is not None or self.c is not None:
                raise MeshError("icosphere takes a radius, not semi-axes a, c")
            if self.radius is None or not 0 < self.radius < np.inf:
                raise MeshError("icosphere needs a finite radius > 0")
        elif self.radius is not None:
            raise MeshError("spheroid takes semi-axes a, c, not a radius")
        elif (self.a is None or self.c is None
              or not (0 < self.a < np.inf and 0 < self.c < np.inf)):
            raise MeshError("spheroid needs finite semi-axes a, c > 0")
        lo, hi = SIZE_RANGE
        for name in ("radius", "a", "c"):
            size = getattr(self, name)
            if size is not None and not lo <= size <= hi:
                raise MeshError(f"{self.kind} {name} {size:g} is outside "
                                f"[{lo:.3g}, {hi:.3g}], where its square and inverse "
                                "square are normal float32 values")

    @property
    def axes(self) -> tuple:
        """Semi-axes (x, y, z): (r, r, r) for an icosphere, (a, a, c) for a spheroid."""
        if self.kind == "icosphere":
            return (self.radius,) * 3
        return (self.a, self.a, self.c)


def per_mesh(build):
    """Cache ``build(mesh)`` on the mesh, keyed by the function's module and qualname.

    Memory policy: a mesh never changes, so each quantity decorated here is
    built at its first call and kept for the mesh's lifetime: the
    coboundaries, star1, the vertex and one-form pencils, the areas, the
    subdivision prolongations, the angle defects and curvature bounds, and
    the edge quadrature. What only the Hodge split reads is built per use
    and released with the split: the face pencil (``exterior.laplacian2``)
    and the two residual maps (``exterior.exact_map``,
    ``exterior.coexact_map``). ``TriangleMesh.memoized`` is looked up at
    each call, so a tracer that replaces it counts every attempt.
    """
    key = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def cached(mesh):
        return mesh.memoized(key, lambda: build(mesh))

    return cached


@dataclass(frozen=True)
class TriangleMesh:
    """Oriented closed triangulated surface embedded in R^3.

    ``faces`` are index triples with counterclockwise orientation as seen from
    outside. ``edges`` are canonical vertex pairs (i, j) with i < j, sorted
    lexicographically; the canonical edge orientation is low index -> high
    index. ``face_edges`` holds, per face, the indices of its three edges in
    traversal order, and ``face_edge_signs`` the agreement (+1/-1) of each
    canonical edge direction with the face's traversal.

    ``coarse_edges`` holds, for a mesh built by midpoint subdivision, the
    canonical edges of every coarser mesh of the hierarchy, coarsest first;
    it is None for any other mesh.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray = field(init=False)
    face_edges: np.ndarray = field(init=False)
    face_edge_signs: np.ndarray = field(init=False)
    source: SurfaceSpec | None = None
    coarse_edges: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise MeshError(f"face index outside [0, {v.shape[0]})")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        edges, f_edges, f_signs = _edge_incidence(f)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "face_edges", f_edges)
        object.__setattr__(self, "face_edge_signs", f_signs)
        object.__setattr__(self, "_memo", {})
        v.setflags(write=False)
        f.setflags(write=False)

    def memoized(self, key, build):
        """``build()``, computed once per ``key`` and mesh; see ``per_mesh``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @per_mesh
    def face_areas(self) -> np.ndarray:
        p = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)

    @per_mesh
    def vertex_areas(self) -> np.ndarray:
        """Barycentric lumped vertex areas: one third of incident face areas."""
        areas = self.face_areas()
        out = np.zeros(self.n_vertices)
        for k in range(3):
            np.add.at(out, self.faces[:, k], areas / 3.0)
        return out

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.linalg.norm(d, axis=1)

    def corner_cross_dot(self) -> tuple:
        """(|u x w|, u . w) at each face corner, each of shape (n_faces, 3).

        At corner k, u and w are the edge vectors to corners k+1 and k+2.
        """
        p = self.vertices[self.faces]
        cross = np.empty((self.n_faces, 3))
        dot = np.empty((self.n_faces, 3))
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            w = p[:, (k + 2) % 3] - p[:, k]
            cross[:, k] = np.linalg.norm(np.cross(u, w), axis=1)
            dot[:, k] = np.einsum("ij,ij->i", u, w)
        return cross, dot

    def corner_angles(self) -> np.ndarray:
        """Interior angle at each face corner, shape (n_faces, 3)."""
        return np.arctan2(*self.corner_cross_dot())

    @per_mesh
    def vertex_prolongations(self) -> tuple | None:
        """Vertex prolongations of the subdivision hierarchy, coarsest first.

        The k-th maps values on the vertices of level k to level k + 1: the
        identity on the old vertices (subdivision keeps their indices) and
        the mean of the two endpoints on the midpoint of each coarse edge,
        appended in canonical edge order. Rows sum to 1, so constants map to
        constants. None for a mesh not built by subdivision.
        """
        if self.coarse_edges is None:
            return None
        prolongations = []
        n_fine = self.n_vertices
        for edges in reversed(self.coarse_edges):
            n_mid = edges.shape[0]
            n_old = n_fine - n_mid
            indptr = np.concatenate([np.arange(n_old), n_old + 2 * np.arange(n_mid + 1)])
            indices = np.concatenate([np.arange(n_old), edges.ravel()])
            data = np.concatenate([np.ones(n_old), np.full(2 * n_mid, 0.5)])
            prolongations.append(sp.csr_matrix((data, indices, indptr),
                                               shape=(n_fine, n_old)))
            n_fine = n_old
        return tuple(reversed(prolongations))


def _half_edges(faces: np.ndarray) -> np.ndarray:
    """Half-edges in face traversal order: all (0,1), then (1,2), then (2,0)."""
    return np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0
    )


def _unique_edges(he: np.ndarray):
    """Canonical edges of the half-edges ``he`` and each half-edge's edge index.

    Equal to ``np.unique(np.sort(he, axis=1), axis=0, return_inverse=True)``.
    The key lo * (max + 1) + hi orders pairs of non-negative indices
    lexicographically, so a 1-D unique of it replaces the row-wise sort.
    """
    lo = np.minimum(he[:, 0], he[:, 1])
    hi = np.maximum(he[:, 0], he[:, 1])
    base = hi.max(initial=0) + 1
    keys, inverse = np.unique(lo * base + hi, return_inverse=True)
    return np.stack(np.divmod(keys, base), axis=1), inverse


def _edge_incidence(faces: np.ndarray):
    """Canonical edge list plus face->edge incidence with orientation signs."""
    n_faces = faces.shape[0]
    he = _half_edges(faces)
    he_face = np.tile(np.arange(n_faces), 3)
    he_slot = np.repeat(np.arange(3), n_faces)
    sign = np.where(he[:, 0] < he[:, 1], 1, -1).astype(np.int8)
    edges, inverse = _unique_edges(he)
    n_edges = edges.shape[0]

    counts = np.bincount(inverse, minlength=n_edges)
    if counts.max(initial=0) > 2:
        raise MeshError("edge with >2 incident faces")
    if counts.min(initial=2) < 2:
        raise MeshError("boundary edge (exactly 2 incident faces required)")

    face_edges = np.empty((n_faces, 3), dtype=np.int64)
    face_signs = np.empty((n_faces, 3), dtype=np.int8)
    face_edges[he_face, he_slot] = inverse
    face_signs[he_face, he_slot] = sign
    return edges, face_edges, face_signs


@dataclass
class ValidationOutcome:
    """Per-invariant pass/fail report for a TriangleMesh."""

    checks: dict
    genus: int | None

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _icosahedron():
    """Icosahedron inscribed in the unit sphere with poles on the z-axis."""
    lat = np.arctan(0.5)
    upper = [
        (np.cos(lat) * np.cos(2 * np.pi * k / 5),
         np.cos(lat) * np.sin(2 * np.pi * k / 5),
         np.sin(lat))
        for k in range(5)
    ]
    lower = [
        (np.cos(lat) * np.cos(2 * np.pi * (k + 0.5) / 5),
         np.cos(lat) * np.sin(2 * np.pi * (k + 0.5) / 5),
         -np.sin(lat))
        for k in range(5)
    ]
    verts = np.array([(0.0, 0.0, 1.0)] + upper + lower + [(0.0, 0.0, -1.0)])

    faces = []
    for k in range(5):
        u0, u1 = 1 + k, 1 + (k + 1) % 5
        l0, l1 = 6 + k, 6 + (k + 1) % 5
        faces.append((0, u0, u1))
        faces.append((u0, l0, u1))
        faces.append((u1, l0, l1))
        faces.append((11, l1, l0))
    return verts, np.array(faces, dtype=np.int64)


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    """One 4-to-1 midpoint split; midpoints are not yet projected.

    Returns the new vertices and faces and the coarse canonical edges, whose
    midpoints follow the old vertices in that order.
    """
    edges, inverse = _unique_edges(_half_edges(faces))
    mid = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
    new_verts = np.concatenate([verts, mid], axis=0)

    n_faces = faces.shape[0]
    m = verts.shape[0] + inverse.reshape(3, n_faces).T  # midpoint indices per face
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    mab, mbc, mca = m[:, 0], m[:, 1], m[:, 2]
    new_faces = np.concatenate(
        [
            np.stack([a, mab, mca], axis=1),
            np.stack([b, mbc, mab], axis=1),
            np.stack([c, mca, mbc], axis=1),
            np.stack([mab, mbc, mca], axis=1),
        ]
    )
    return new_verts, new_faces, edges


def _build_unit_icosphere(level: int):
    """Vertices, faces and the coarse edges of each subdivision step."""
    verts, faces = _icosahedron()
    coarse_edges = []
    for _ in range(level):
        verts, faces, edges = _subdivide(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
        coarse_edges.append(edges)
    return verts, faces, tuple(coarse_edges)


def build_icosphere(level: int, radius: float = 1.0) -> TriangleMesh:
    """Icosahedron subdivided ``level`` times, vertices projected to ``radius``.

    Counts follow the closed forms V = 10*4^level + 2, E = 30*4^level,
    F = 20*4^level.
    """
    spec = SurfaceSpec(kind="icosphere", level=level, radius=float(radius))
    verts, faces, coarse_edges = _build_unit_icosphere(level)
    return TriangleMesh(vertices=radius * verts, faces=faces, source=spec,
                        coarse_edges=coarse_edges)


def _spheroid_latitude(z: np.ndarray, a: float, c: float) -> np.ndarray:
    """|t| of the conformal map of unit-sphere height z to spheroid latitude t.

    The map matches isometric latitudes: atanh(|z|) on the unit sphere, and
    on the spheroid (a cos t, c sin t), with u = sin t and B = c^2 - a^2,
    q(u) = atanh(a u / sqrt(c^2 - B u^2)) + (sqrt(B) / a) asin(sqrt(B) u / c)
    (the last term is -(sqrt(-B) / a) asinh(sqrt(-B) u / c) for B < 0), with
    q' = sqrt(c^2 - B u^2) / (a (1 - u^2)). Newton steps solve q(u) = atanh(|z|)
    inside a bracket on [0, 1], bisecting when one leaves it, so 64 steps
    converge even by bisection; they stop after a step of at most 1e-12,
    whose quadratic error is below rounding (7 to 11 steps). Poles map to pi/2.
    """
    pole = np.abs(z) == 1.0
    u = np.where(pole, 0.0, np.abs(z))
    target = np.arctanh(u)
    lo, hi = np.zeros_like(u), np.ones_like(u)
    B = c * c - a * a
    s = np.sqrt(abs(B))
    for _ in range(64):
        root = np.sqrt(c * c - B * u * u)
        second = np.arcsin(s * u / c) if B > 0 else -np.arcsinh(s * u / c)
        f = np.arctanh(a * u / root) + (s / a) * second - target
        above = f > 0.0
        lo, hi = np.where(above, lo, u), np.where(above, u, hi)
        newton = u - f * (a * (1.0 - u * u)) / root
        u, last = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi)), u
        if np.abs(u - last).max() <= 1e-12:
            break
    return np.where(pole, 0.5 * np.pi, np.arcsin(u))


def build_spheroid(level: int, a: float, c: float) -> TriangleMesh:
    """Unit icosphere mapped onto the spheroid with semi-axes (a, a, c).

    Subdivision happens in the unit-sphere domain (radial projection there),
    so the combinatorics match :func:`build_icosphere`. For a == c the map is
    the plain scaling by a. For a != c the longitude is kept and the latitude
    follows the conformal reparameterization between the two surfaces of
    revolution; since conformal maps preserve angles in the fine-mesh limit,
    triangle angles stay close to the icosphere's and the cotangent edge star
    remains positive (a plain axis scaling produces obtuse opposite-angle
    pairs and an indefinite 1-form mass already at moderate aspect ratios).
    Poles map to (0, 0, +-c); all vertices lie exactly on the surface.
    """
    spec = SurfaceSpec(kind="spheroid", level=level, a=float(a), c=float(c))
    verts, faces, coarse_edges = _build_unit_icosphere(level)
    if a == c:
        return TriangleMesh(vertices=verts * a, faces=faces, source=spec,
                            coarse_edges=coarse_edges)

    t = _spheroid_latitude(np.clip(verts[:, 2], -1.0, 1.0), a, c)
    rho = np.linalg.norm(verts[:, :2], axis=1)
    safe = np.where(rho == 0.0, 1.0, rho)
    dir2 = np.where(rho[:, None] > 0.0, verts[:, :2] / safe[:, None], 0.0)
    mapped = np.empty_like(verts)
    mapped[:, :2] = a * np.cos(t)[:, None] * dir2
    mapped[:, 2] = np.sign(verts[:, 2]) * c * np.sin(t)
    return TriangleMesh(vertices=mapped, faces=faces, source=spec,
                        coarse_edges=coarse_edges)


def build_surface(spec: SurfaceSpec) -> TriangleMesh:
    if spec.kind == "icosphere":
        return build_icosphere(spec.level, spec.radius)
    return build_spheroid(spec.level, spec.a, spec.c)


def validate(mesh: TriangleMesh) -> ValidationOutcome:
    """Check the invariants the TriangleMesh constructor does not enforce.

    The constructor already rejects out-of-range indices and any edge
    without exactly two incident faces, so ``closed_two_manifold`` always
    holds; it is reported with the other checks. Diagnostic, never raises.
    """
    faces = mesh.faces
    checks: dict = {}

    checks["indices_valid"] = bool(
        (faces[:, 0] != faces[:, 1]).all()
        and (faces[:, 1] != faces[:, 2]).all()
        and (faces[:, 0] != faces[:, 2]).all()
    )
    if not checks["indices_valid"]:
        return ValidationOutcome(checks, None)
    checks["closed_two_manifold"] = True

    # opposite induced orientations <=> each edge's two half-edge signs cancel
    signs = np.bincount(mesh.face_edges.ravel(), weights=mesh.face_edge_signs.ravel(),
                        minlength=mesh.n_edges)
    oriented = bool((signs == 0).all())
    checks["consistent_orientation"] = oriented

    areas = mesh.face_areas()
    mean_area = areas.mean() if areas.size else 0.0
    nondegenerate = bool((areas > DEGENERATE_AREA_FRACTION * mean_area).all())
    checks["no_degenerate_faces"] = nondegenerate

    chi = mesh.n_vertices - mesh.n_edges + mesh.n_faces
    euler_ok = chi % 2 == 0 and chi <= 2
    checks["euler_formula"] = euler_ok
    genus = (2 - chi) // 2 if euler_ok else None
    return ValidationOutcome(checks, genus)


def export_off(mesh: TriangleMesh) -> bytes:
    """Serialize to OFF text: 'OFF', counts line 'V F 0', vertices, faces."""
    buf = BytesIO()
    buf.write(b"OFF\n")
    buf.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n".encode())
    for x, y, z in mesh.vertices:
        buf.write(f"{x:.17g} {y:.17g} {z:.17g}\n".encode())
    for a, b, c in mesh.faces:
        buf.write(f"3 {a} {b} {c}\n".encode())
    return buf.getvalue()
