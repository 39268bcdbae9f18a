"""Lowest eigenpairs of the sparse symmetric pencil A x = lambda B x.

B must be SPD diagonal, so the pencil is transformed to a standard problem
Atil = B^(-1/2) A B^(-1/2); transformed orthonormality is exactly
B-orthonormality of the returned eigenvectors. A known kernel (the constants
of the 0-form Laplacian) can be deflated.

The solver is a blocked locally optimal preconditioned conjugate gradient
(LOBPCG) iteration. Each iteration does one Rayleigh-Ritz step over the
orthonormal basis [X | W | P]: the current Ritz vectors X, the preconditioned
residuals W and the conjugate directions P. Two standard techniques cut the
n-row block work:

- soft locking (Duersch, Shao, Yang and Gu, SISC 2018): a column whose
  residual is at most the tolerance gets no new W or P column, but stays in
  the Rayleigh-Ritz basis, so it keeps improving and keeps being tested;
- P in coefficient space (Hetmaniuk and Lehoucq, J. Comput. Phys. 2006): P
  is formed from the small Rayleigh-Ritz eigenvector matrix, already
  orthonormal and orthogonal to the next X, so it needs no n-row projection
  or orthonormalization.

Locking drops the directions of converged columns, which also helped the
others a little: on the verify pencils a solve sometimes takes one more
iteration, but each iteration is cheaper.

Memory is set by how many n-row blocks are live at once, so each dies at
its last use, and every other n-row product is written over a block that
dies with it or formed a block of rows at a time (_lobpcg lists what each
step holds):

- SVQB writes Q, then its refinement, over the block it is handed (the
  start block or the preconditioned W, each handed over in a one-element
  list, so no caller keeps it);
- the residual overwrites A X, and X theta and every projection Q c are
  subtracted UPDATE_ROWS rows at a time;
- the float64 residual dies once converted to float32, and the float32
  one is handed to the preconditioner, which drops it before it forms its
  float64 result;
- A W, A P and a residual map's G V are formed PRODUCT_ROWS rows at a
  time, each row block entering its Gram products at once; each operator
  is cut into row blocks once per solve, and the blocks share its nonzeros;
- each update writes the next X over X and the next P over the dying P
  (or W), a block of rows at a time.

Every step then holds at most three n-row blocks, X, W and P, beside the
preconditioner's float32 blocks and row-block temporaries. The scalar
solve's traced peak, above the memory held before it (the pencil and
hierarchy), is 6.3 blocks of n x 21 doubles on the level-4 sphere and 5.3
on the level-5 sphere, the standard form and the preconditioner included;
at level 5 the V-cycle's fine level sets it. With four blocks in the
fullest steps it was 6.9 and 5.9, with five 7.4 and 6.7, and 10.1 at level
4 when every block lived to the end of its step.

The preconditioner approximates the inverse of the shifted matrix
Atil + shift I. The shift, 1e-6 times the mean |diagonal| of Atil, makes it
nonsingular even when Atil has a kernel (the constants of the 0-form
Laplacian); the iteration count barely depends on its size. A vertex pencil
given the mesh's subdivision hierarchy gets one multigrid V-cycle (Galerkin
coarse operators, damped-Jacobi smoothing, a dense solve at level 2; see
_multigrid_preconditioner), whose setup and application grow linearly with
the mesh. Any other pencil (the face pencil, a mesh not built by
subdivision) gets a sparse LU factorization, whose fill grows faster: on
the face pencil a 4-to-1 aggregation V-cycle took 17 to 32 iterations
against the LU's 11 to 13. Both work in float32: they only steer the search
directions, and single precision halves the storage of their values.
Residuals, convergence tests, the Rayleigh-Ritz step and the returned
vectors stay in float64, so the preconditioner changes the number of
iterations, never the accuracy of a converged pair (multigrid-preconditioned
eigensolvers: Knyazev and Neymeyr, ETNA 15, 2003). The sparse-LU stack
(``scipy.sparse.linalg``, which loads ``scipy.linalg``) is imported at the
first LU, not with this module, and nothing else here uses scipy's dense
linear algebra: the V-cycle's coarse solve and ``dense_reference`` use
``numpy.linalg``. So a run whose pencils all carry a subdivision hierarchy
(``spectrum`` and ``converge`` on 0-forms, ``mesh``) loads neither module,
and ``verify``, the face pencil and ``--form 1`` load both when they first
factor.

A caller that already holds approximate eigenvectors (the Hodge split holds
the scalar spectrum's) passes them as ``start``; they replace the leading
random columns of the starting block (a warm start; Knyazev and Neymeyr,
ETNA 15, 2003).

A cold solve (no ``start``) given a subdivision hierarchy starts coarse to
fine instead (nested starts, as in cascadic multigrid: Bornemann and
Deuflhard, Numer. Math. 75, 1996). While the next coarser level has room for
the whole block, the Galerkin coarse pencil (P^T A P, P^T b) is solved first,
recursively; only the coarsest level draws the seeded random block. Rows of P
sum to 1, so the constants stay the coarse pencil's exact kernel and P^T b
is its lumped mass. Each coarse solve stops at max(tol, NESTED_TOL): its
eigenvectors are only as close to the fine ones as the discretization error
(about 2.5 * 4^-L relative in the eigenvalues), so a tighter coarse solve
buys nothing. Its whole Ritz block, padding columns included, is prolonged
to start the next finer solve, and its operators and preconditioner are
released before that solve begins. The fine solve keeps its own ``tol``, so
a nested start changes the number of iterations, not the accuracy: at level
5 on the unit sphere the fine solve takes 7 iterations instead of 13.

Eigenvectors inside a degenerate cluster are unique only up to rotation;
comparisons across solves must therefore compare subspaces, not vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exterior import SparseOperator

GROUP_FLOOR = 1e-8
GROUP_REL_GAP = 0.02
BLOCK_PADDING = 5
PRECOND_SHIFT = 1e-6
ORTHO_PASSES = 3
# largest |Q^T W| entry accepted after a pass; a second pass brings it to
# about 1e-16, so this stops the growth long before it matters
ORTHO_TOL = 1e-14
# V-cycle of the vertex pencil: damped-Jacobi weight, sweeps before and after
# each coarse correction, and the hierarchy level factored densely (162
# vertices on the subdivided icosahedron)
MG_OMEGA = 0.8
MG_SWEEPS = 2
MG_DIRECT_LEVEL = 2
# rows per block of every dense n-row product written in place or
# subtracted (the update, SVQB, the projections): 512 rows of about 60
# columns is about 260 KB, which stays in a core's L2 cache
UPDATE_ROWS = 512
# rows of the sparse operator per block of its product with an n-row block
# (A W, A P and a map Gram's G V); a pencil of at most this many rows runs
# as one block. It is the largest power of two at which the product's
# temporary no longer sets the scalar solve's traced peak: in blocks of
# n x 21 doubles, the level-5 sphere (n = 10242; coarse levels of 42, 162,
# 642 and 2562 vertices) reads 5.33 at 1024 and 2048 rows, 5.51 at 4096 and
# 5.69 with whole products, and level 6 reads 5.19 from 1024 to 4096 rows
# and 5.54 whole. Fewer, larger blocks mean fewer sparse product calls. The
# row count also moves the rounding of the Gram sums: at 1024 rows the
# level-5 fine solve takes 8 iterations, against 7 at the other counts
PRODUCT_ROWS = 2048
# residual at which each coarse level of a nested start stops (or at the
# fine tol, if that is looser)
NESTED_TOL = 1e-2

log = logging.getLogger(__name__)


class SpectralError(Exception):
    """Invalid eigenproblem input."""


class ConvergenceError(SpectralError):
    """Iteration cap reached; carries the best residuals, the iterations and
    the history.

    ``history[k]`` is (largest wanted residual, active columns) at the
    residual evaluation after expansion step k, so it has iterations + 1
    entries. A stall shows as a residual that stops falling while columns
    stay active.
    """

    def __init__(self, message, residuals, iterations, history):
        super().__init__(message)
        self.residuals = residuals
        self.iterations = iterations
        self.history = history


@dataclass(frozen=True)
class SpectrumGroup:
    representative: float
    multiplicity: int
    indices: tuple


@dataclass
class SpectrumResult:
    """Ascending eigenvalues with B-orthonormal eigenvectors.

    ``residuals`` holds ||A x - lambda B x|| / ||B x|| per pair, or
    ||M (A x - lambda B x)|| / ||M B x|| for the iterated pairs of a solve
    given a ``residual_map`` M; an iterated pair's is the one the stopping
    test read (see ``solve_lowest``). ``groups`` clusters near-degenerate
    eigenvalues at ``GROUP_REL_GAP``.
    ``next_estimate`` is the first unreturned Ritz value (an upper estimate of
    eigenvalue m+1 from the padding block); it witnesses that the last
    returned group is complete when it sits well above the group. It is None
    in two cases that a caller must tell apart itself: the solve returned
    the pencil's whole spectrum (m = n), so no eigenvalue lies above, or it
    iterated no pair (m equal to the known kernel's size), so there is no
    estimate.
    ``iterations`` is the number of LOBPCG expansion steps the solve took (0
    when only the known kernel was requested; None for a spectrum merged from
    several solves). ``preconditioner`` (``"multigrid"`` or ``"lu"``) and
    ``block`` (the LOBPCG block width) describe the iteration; they are None
    and 0 when no iteration ran. ``coarse_levels`` holds the (size,
    iterations) of each coarse solve of a nested start, coarsest first; it
    is empty when the solve started from ``start`` or a random block.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    groups: list
    next_estimate: float | None = None
    iterations: int | None = None
    preconditioner: str | None = None
    block: int = 0
    coarse_levels: tuple = ()


def _as_matrix(op) -> sp.csr_matrix:
    if isinstance(op, SparseOperator):
        return op.matrix
    return sp.csr_matrix(op)


def _diagonal_spd(B) -> np.ndarray:
    mat = _as_matrix(B)
    d = mat.diagonal()
    off = mat - sp.diags(d)
    if off.nnz and np.abs(off.tocoo().data).max() > 0:
        raise SpectralError("B must be diagonal")
    if (d <= 0).any():
        raise SpectralError("B not SPD")
    return d


def group_multiplicities(eigenvalues):
    """Merge consecutive eigenvalues whose relative gap is below GROUP_REL_GAP.

    The gap is measured against max(|lambda|, floor) with floor 1e-8 so that
    a zero eigenvalue never absorbs its neighbours.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.size == 0:
        return []
    groups = []
    start = 0
    for k in range(1, ev.size):
        scale = max(abs(ev[k]), abs(ev[k - 1]), GROUP_FLOOR)
        if (ev[k] - ev[k - 1]) / scale >= GROUP_REL_GAP:
            groups.append(
                SpectrumGroup(float(ev[start:k].mean()), k - start,
                              tuple(range(start, k)))
            )
            start = k
    groups.append(
        SpectrumGroup(float(ev[start:].mean()), ev.size - start,
                      tuple(range(start, ev.size)))
    )
    return groups


def _row_blocks(n, step):
    """Consecutive slices of at most ``step`` rows that cover n rows."""
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _leading_view(V, k):
    """An n x k C-ordered view of the first n k entries of the C-ordered
    n-row block V's buffer.

    For k at most V's width, row i of the view ends at or before row i of
    V ends, so a product written into it a block of rows at a time, each
    block formed in full before it is written, overwrites only rows of V
    that it has already read.
    """
    return V.reshape(-1)[:V.shape[0] * k].reshape(V.shape[0], k)


def _product_in_place(V, M):
    """V @ M, written over the buffer of the C-ordered block V, which it
    spends, UPDATE_ROWS rows at a time; M has at most V's columns (see
    _leading_view)."""
    out = _leading_view(V, M.shape[1])
    for rows in _row_blocks(V.shape[0], UPDATE_ROWS):
        out[rows] = V[rows] @ M
    return out


def _subtract_product(V, Q, c):
    """V -= Q @ c in place, UPDATE_ROWS rows at a time, so that Q @ c is
    never formed whole."""
    for rows in _row_blocks(V.shape[0], UPDATE_ROWS):
        V[rows] -= Q[rows] @ c


def _orthonormalize(V, drop_tol=1e-12):
    """SVQB orthonormalization of a C-ordered copy of the block V (see
    _svqb), which the caller keeps; returns Q."""
    return _svqb([np.array(V, dtype=float, order="C")], drop_tol)


def _svqb(held, drop_tol=1e-12):
    """SVQB orthonormalization with rank dropping of the block that the
    one-element list ``held`` hands over; returns Q.

    The block, V, is taken out of the list and spent: both n-row products,
    Q and its refinement, are written over its buffer (_product_in_place),
    so the orthonormalization allocates no n-row block of its own when V is
    C-ordered. The Gram matrix is scaled to unit diagonal (not the columns
    of V, which would cost an n x k copy) so that the rank filter measures
    angles only; otherwise the refinement directions of nearly converged
    pairs (tiny residual columns) would be dropped next to unconverged ones.
    """
    V = np.ascontiguousarray(held.pop())
    G = V.T @ V
    nonzero = G.diagonal() > 0.0
    if not nonzero.all():
        V, G = np.compress(nonzero, V, axis=1), G[np.ix_(nonzero, nonzero)]
    if V.shape[1] == 0:
        return V
    scale = 1.0 / np.sqrt(G.diagonal())
    G = G * scale[:, None] * scale
    G = 0.5 * (G + G.T)
    w, U = np.linalg.eigh(G)
    keep = w > drop_tol * max(w.max(), 0.0)
    if not keep.any():
        return V[:, :0]
    Q = _product_in_place(V, U[:, keep] * (scale[:, None] / np.sqrt(w[keep])))
    del V
    # one refinement pass keeps orthogonality near machine precision
    G2 = Q.T @ Q
    G2 = 0.5 * (G2 + G2.T)
    w2, U2 = np.linalg.eigh(G2)
    keep2 = w2 > drop_tol
    return _product_in_place(Q, U2[:, keep2] / np.sqrt(w2[keep2]))


def _project_out(V, Q):
    """Remove from V, in place, its component in the span of orthonormal Q."""
    if Q is not None and Q.shape[1]:
        _subtract_product(V, Q, Q.T @ V)
    return V


def _orthonormalize_against(held, blocks):
    """The block that the one-element list ``held`` hands over, made
    orthogonal to the orthonormal, mutually orthogonal ``blocks`` and
    orthonormalized (SVQB).

    The list is emptied, and each pass hands the projected block on to
    _svqb, so the unprojected block dies once SVQB has formed Q.

    One projection leaves a component of relative size eps ||W|| / ||W'||
    in the span of the blocks, where W' is the projected W, and the SVQB
    scaling keeps it. Near convergence the preconditioned residuals lie
    almost in that span, so the leftover grows, and through P it feeds the
    next iteration's overlap: a solve stalled at the rounding floor lost
    about a factor 20 of orthogonality per iteration and drifted off the
    spectrum. The pass is therefore repeated until the overlap is at
    rounding level (Duersch, Shao, Yang and Gu, SISC 2018); one pass is
    usually enough.
    """
    blocks = [Q for Q in blocks if Q is not None and Q.shape[1]]
    overlaps = [Q.T @ held[0] for Q in blocks]
    for _ in range(ORTHO_PASSES):
        for Q, c in zip(blocks, overlaps):
            _subtract_product(held[0], Q, c)
        held.append(_svqb(held))
        overlaps = [Q.T @ held[0] for Q in blocks]
        if all(np.abs(c).max(initial=0.0) <= ORTHO_TOL for c in overlaps):
            break
    return held.pop()


def _row_split(A):
    """[(rows, A[rows])] over consecutive blocks of PRODUCT_ROWS rows of the
    CSR matrix A, or [(all rows, A)] for A of at most PRODUCT_ROWS rows.

    Each block shares A's column indices and values, and only its row
    pointers are new, so a solve cuts each operator once and copies none of
    its nonzeros (A[rows] would copy them at every product). The arrays are
    set on an empty block, because the (data, indices, indptr) constructor
    copies an array that is a small view of a larger one.
    """
    n = A.shape[0]
    if n <= PRODUCT_ROWS:
        return [(slice(None), A)]
    split = []
    for rows in _row_blocks(n, PRODUCT_ROWS):
        lo, hi = A.indptr[rows.start], A.indptr[rows.stop]
        block = sp.csr_matrix((rows.stop - rows.start, A.shape[1]), dtype=A.dtype)
        block.data, block.indices = A.data[lo:hi], A.indices[lo:hi]
        block.indptr = A.indptr[rows.start:rows.stop + 1] - lo
        split.append((rows, block))
    return split


def _image_grams(A_rows, V, blocks):
    """[S^T (A V) for S in blocks], with A V formed a block of rows at a time
    from A's _row_split."""
    grams = [np.zeros((S.shape[1], V.shape[1])) for S in blocks]
    for rows, A in A_rows:
        AV = A @ V
        for gram, S in zip(grams, blocks):
            gram += S[rows].T @ AV
    return grams


def _quadratic_forms(G_rows, V):
    """v^T G v per column of V, with G V formed a block of rows at a time
    from G's _row_split."""
    return sum(np.einsum("ij,ij->j", V[rows], G @ V) for rows, G in G_rows)


def _residual_norms(R, X, gram):
    """sqrt(r^T G r) / sqrt(x^T G x) per column, for a Gram operator G = N^T N.

    That is ||N r|| / ||N x||, evaluated without forming the N-images, whose
    rows may outnumber those of R (the Hodge split's maps land on the edges).
    ``gram`` is either G's _row_split or, for a diagonal G (the mass of a
    solve without a residual map), its diagonal vector, which the solve
    holds anyway: one einsum reads it, with no temporary. Passing the mass
    as a CSR diagonal through the row-block path instead raised the level-5
    scalar solve's traced peak from 5.33 to 5.43 blocks of n x 21 doubles,
    and the peak RSS of ``spectrum --level 5 --form 0`` by 0.12 MB, higher
    in each of six alternating fresh-process pairs.
    """
    if isinstance(gram, np.ndarray):
        return np.sqrt(np.einsum("ij,ij,i->j", R, R, gram)
                       / np.einsum("ij,ij,i->j", X, X, gram))
    return np.sqrt(_quadratic_forms(gram, R) / _quadratic_forms(gram, X))


def _shifted(Atil):
    """Atil + shift I, with the shift PRECOND_SHIFT times the mean |diagonal|."""
    shift = PRECOND_SHIFT * np.abs(Atil.diagonal()).mean()
    return (Atil + shift * sp.identity(Atil.shape[0], format="csr")).tocsr()


def _shifted_lu_preconditioner(Atil):
    """Approximate inverse of Atil: float32 sparse LU of Atil + shift I.

    The preconditioner of every pencil solved without a subdivision
    hierarchy: the face pencil and any pencil of a mesh not built by
    subdivision.
    """
    # imported here, not at module top: a run whose every pencil has a
    # subdivision hierarchy never factors, and so never loads the LU stack
    from scipy.sparse.linalg import splu

    try:
        lu = splu(_shifted(Atil).tocsc().astype(np.float32),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SpectralError(f"shifted pencil cannot be factored: {exc}") from exc

    def precond(R):
        x = lu.solve(R.astype(np.float32, copy=False))
        del R  # a block the caller handed over dies before the float64 copy
        # SuperLU returns a Fortran-ordered block; the solver writes in place
        # into C-ordered ones
        return x.astype(np.float64, order="C")

    return precond


def _level_residual(A, r, x):
    """r - A x, in the one temporary that A x allocates."""
    t = A @ x
    np.subtract(r, t, out=t)
    return t


def _jacobi_sweeps(A, wdinv, r, x, sweeps):
    """``sweeps`` damped-Jacobi sweeps x += wdinv (r - A x), in place."""
    for _ in range(sweeps):
        t = _level_residual(A, r, x)
        t *= wdinv
        x += t
        del t  # before the next sweep's A x, so one temporary is live


def _multigrid_preconditioner(Atil, s, hierarchy):
    """Approximate inverse of Atil: one float32 V(2,2) cycle on Atil + shift I.

    ``hierarchy`` holds the vertex prolongations of the subdivision
    hierarchy, coarsest first; ``s`` is sqrt(b), so diag(s) P is the finest
    prolongation in the B-scaled variables of Atil and the coarser ones are
    the plain P. Each coarse operator is the Galerkin product P^T A P of the
    next finer one. Every level above MG_DIRECT_LEVEL is smoothed by
    MG_SWEEPS damped-Jacobi sweeps (weight MG_OMEGA) before and after its
    coarse correction; the operator at MG_DIRECT_LEVEL (or the pencil
    itself, on a mesh that coarse or coarser) is solved exactly, in float64,
    by one product with its inverse, formed once from its Cholesky factor
    (162 x 162 on the subdivided icosahedron). Equal pre- and post-smoothing
    make the cycle a symmetric positive operator (Briggs, Henson and
    McCormick, A Multigrid Tutorial, SIAM 2000).

    The cycle smooths in place: each sweep updates x through one float32
    temporary, r - A x, and each level's (r, x) is released after its
    ascent, so the finest level holds r, x and one temporary. The finest r
    is the argument itself, and it is released before the float64 copy of
    the result, so an argument that the caller handed over dies there.

    The cycle is a loop over a flat list of levels, not a recursive
    closure: a closure that refers to itself is a reference cycle and would
    keep the whole hierarchy alive after the solve.
    """
    A = _shifted(Atil)
    levels = []
    for k, P in enumerate(reversed(hierarchy[MG_DIRECT_LEVEL:])):
        if k == 0:
            P = (sp.diags(s) @ P).tocsr()
        Pt = P.T.tocsr()
        levels.append((A.astype(np.float32), P.astype(np.float32),
                       Pt.astype(np.float32),
                       (MG_OMEGA / A.diagonal()).astype(np.float32)[:, None]))
        A = (Pt @ A @ P).tocsr()
    # A^-1 = L^-T L^-1 for the Cholesky factor L, which raises LinAlgError
    # when the coarse operator is not SPD
    Linv = np.linalg.inv(np.linalg.cholesky(A.toarray()))
    coarse_inverse = Linv.T @ Linv

    def precond(R):
        r = R.astype(np.float32, copy=False)
        del R  # r holds it: a block the caller handed over dies with r
        descent = []
        for A, P, Pt, wdinv in levels:
            x = wdinv * r
            _jacobi_sweeps(A, wdinv, r, x, MG_SWEEPS - 1)
            descent.append((r, x))
            r = Pt @ _level_residual(A, r, x)
        x = coarse_inverse @ r.astype(np.float64)
        for A, P, Pt, wdinv in reversed(levels):
            r, x_fine = descent.pop()
            x_fine += P @ x.astype(np.float32, copy=False)
            x = x_fine
            _jacobi_sweeps(A, wdinv, r, x, MG_SWEEPS)
        del r
        return x.astype(np.float64)

    return precond


def _direction_coefficients(C, nb, active):
    """Coefficients over S = [X W P] of the next P, from the Ritz coefficients C.

    C is the orthogonal eigenvector matrix of the Rayleigh-Ritz step over the
    orthonormal S, whose first nb rows belong to X; the next X is S C[:, :nb].
    The conjugate directions of the ``active`` Ritz vectors are S E, where E
    holds the W and P rows of their coefficient columns. E is projected off
    C[:, :nb] through the orthogonal complement C[:, nb:] and orthonormalized
    in the small space, so P = S Z is orthonormal, orthogonal to the next X,
    and span{X, P} = span{X, S E} (Hetmaniuk and Lehoucq, J. Comput. Phys.
    2006).
    """
    rest = C[:, nb:]
    return _orthonormalize(rest @ (rest[nb:].T @ C[nb:, :nb][:, active]))


def _update_in_place(X, W, P, Cx, Z):
    """Write X <- S Cx over X and return the new P = S Z, for S = [X W P].

    Row i of S Cx and of S Z depends only on row i of S, so S is copied
    UPDATE_ROWS rows at a time into one fixed buffer and both products are
    written straight into their rows. The new P is written over the buffer
    of the dying P (see _leading_view) when P has at least as many
    columns, else over W's, and only when neither has is it a new n-row
    block. Since the active columns rarely grow, P keeps one buffer from
    the second iteration on, and the short-lived blocks of each step (the
    residual, the preconditioner's, W) come and go around it. Writing it
    over the wider of the two instead, W on a tie, so that P's buffer
    changed with W's, read 599 MB peak RSS for level-7 ``verify`` in one
    run against 549-566 MB in six, with the same traced peaks. The row blocks
    round differently in the last bit from whole-block products for some
    widths (the BLAS picks its kernel by shape), which moves eigenvalues
    well within ``tol``.
    """
    n, k = X.shape[0], Z.shape[1]
    dying = P if k <= P.shape[1] else W
    P_next = _leading_view(dying, k) if k <= dying.shape[1] else np.empty((n, k))
    buffer = np.empty((min(UPDATE_ROWS, n), Cx.shape[0]))
    for r in _row_blocks(n, UPDATE_ROWS):
        rows = buffer[:r.stop - r.start]
        np.concatenate((X[r], W[r], P[r]), axis=1, out=rows)
        np.matmul(rows, Z, out=P_next[r])
        np.matmul(rows, Cx, out=X[r])
    return P_next


def _lobpcg(Amat, start, n_wanted, tol, maxiter, precond, gram,
            constraints=None):
    """Standard-problem LOBPCG with soft locking and one Rayleigh-Ritz step
    per iteration.

    ``start`` is a one-element list holding the n x nb starting block. The
    block is taken out of the list and handed on to the SVQB, so no frame
    keeps it once its orthonormal basis is formed.

    Returns (theta, X, residuals, iterations), where ``residuals`` are the
    ``_residual_norms(R, X, gram)`` of every column of X, read by the
    stopping test that ended the loop, and ``iterations`` counts the
    expansion steps taken; raises ConvergenceError at the iteration cap.

    Only the start block gets a Rayleigh-Ritz step of its own. The blocks
    [X | W | P] are kept mutually orthonormal so the Rayleigh-Ritz problem
    over them stays a plain symmetric eigenproblem; its lowest Ritz pairs
    are the next (theta, X), already orthonormal (Duersch, Shao, Yang and
    Gu, SISC 2018). Its Gram matrix is assembled from the block products
    Si^T (A Sj), i <= j, so the n x 3nb concatenations of the blocks and of
    their images are never built.

    Soft locking: only the columns whose residual is above ``tol`` (padding
    columns included) get a preconditioned direction in W and a conjugate
    direction in P, but every column stays in the Rayleigh-Ritz basis and
    the stopping test reads every wanted residual. P is built in
    coefficient space (see _direction_coefficients), so it needs no
    projection or orthonormalization of its own; only W is made orthogonal
    to the kernel constraint, X and P and orthonormalized
    (_orthonormalize_against), and its orthogonality is what keeps every
    later X and P orthonormal. The kernel constraint is reapplied to X each
    iteration: the iteration actively converges toward the smallest
    Rayleigh quotient, so a rounding-level kernel component would otherwise
    be amplified back in.

    Every n-row block is released at its last use, and no step holds more
    than three, beside the preconditioner's float32 blocks and temporaries
    of UPDATE_ROWS or PRODUCT_ROWS rows. Every block is kept C-ordered,
    because a Fortran-ordered one would turn the in-place writes back into
    copies. An iteration enters holding X, A X and P, and its steps hold:

    - residual: X^T A X is taken first, then R overwrites A X and X theta
      is subtracted from it a block of rows at a time, so X, R and P;
    - preconditioner: R is converted to float32, which releases the
      float64 R, and compressed to its active columns; that block is
      handed over, and the preconditioner drops it before it forms its
      float64 result, W, so X, P and the preconditioner's blocks;
    - orthonormalization: X, P and W; each projection Q c is subtracted a
      block of rows at a time, and SVQB writes both its products over W's
      buffer;
    - Rayleigh-Ritz: X, W and P; A W and A P are formed a block of rows at
      a time (_image_grams);
    - update: X, W and P; the next X is written over X and the next P over
      the dying P's or W's buffer (see _update_in_place), then A X formed.
    """
    A_rows = _row_split(Amat)  # cut once per solve
    X = _svqb([_project_out(start.pop(), constraints)])
    if X.shape[1] < n_wanted:
        raise SpectralError("starting block lost rank under deflation")
    nb = X.shape[1]
    AX = Amat @ X
    T = X.T @ AX
    theta, C = np.linalg.eigh(0.5 * (T + T.T))
    X = X @ C
    AX = AX @ C
    P = np.zeros((X.shape[0], 0))
    history = []
    # one extra pass evaluates the state left by the last expansion, so the
    # returned (theta, X) and the residuals behind them are always consistent
    for iteration in range(maxiter + 1):
        XAX = X.T @ AX
        R = AX  # A X has no further use: the residual overwrites it
        del AX
        for rows in _row_blocks(R.shape[0], UPDATE_ROWS):
            R[rows] -= X[rows] * theta
        res = _residual_norms(R, X, gram)
        active = res > tol
        history.append((float(res[:n_wanted].max()), int(active.sum())))
        if not active[:n_wanted].any():
            return theta, X, res, iteration
        if iteration == maxiter:
            break
        R = R.astype(np.float32)  # the float64 residual dies here
        # compress, unlike R[:, active], keeps the block C-ordered
        R = [np.compress(active, R, axis=1)]
        # each block is handed over: R dies inside the preconditioner, W
        # inside the SVQB
        W = [precond(R.pop())]
        W = _orthonormalize_against(W, (constraints, X, P))
        XAW, WAW = _image_grams(A_rows, W, (X, W))
        XAP, WAP, PAP = _image_grams(A_rows, P, (X, W, P))
        G = np.block([[XAX, XAW, XAP], [XAW.T, WAW, WAP], [XAP.T, WAP.T, PAP]])
        vals, C = np.linalg.eigh(0.5 * (G + G.T))
        theta = vals[:nb]
        Z = _direction_coefficients(C, nb, active)
        P = _update_in_place(X, W, P, np.ascontiguousarray(C[:, :nb]), Z)
        del W
        _project_out(X, constraints)
        AX = Amat @ X
    best = ", ".join(f"{r:.3g}" for r in res[:n_wanted])  # one line, unlike numpy's repr
    raise ConvergenceError(
        f"no convergence after {maxiter} iterations (best residuals {best})",
        residuals=res[:n_wanted], iterations=maxiter, history=history)


def _start_block(start, n: int) -> np.ndarray:
    """``start`` as an n-row float block; rejects any other shape or non-finite values."""
    start = np.asarray(start, dtype=float)
    if start.ndim != 2:
        raise SpectralError(f"start must be a 2-D block, got {start.ndim} dimension(s)")
    if start.shape[0] != n:
        raise SpectralError(f"start has {start.shape[0]} rows, the pencil has {n}")
    if not np.isfinite(start).all():
        raise SpectralError("start has non-finite entries")
    return start


def _standard_form(Amat, d, known_kernel):
    """(Atil, s, kernel) of the pencil (Amat, diag(d)).

    Atil = B^(-1/2) A B^(-1/2), exactly symmetrized; s = sqrt(d); ``kernel``
    is the known kernel vector in the transformed variables, as an
    orthonormal one-column block, or None.
    """
    s = np.sqrt(d)
    inv_s = sp.diags(1.0 / s)
    Atil = inv_s @ Amat @ inv_s
    Atil = (0.5 * (Atil + Atil.T)).tocsr()
    kernel = None
    if known_kernel is not None:
        kernel = _orthonormalize((np.asarray(known_kernel, dtype=float) * s)[:, None])
    return Atil, s, kernel


def _iterate(Atil, s, kernel, X0, n_wanted, tol, maxiter, hierarchy, gram):
    """LOBPCG on the standard form from the transformed start block, which
    the one-element list X0 hands over to ``_lobpcg``.

    Returns ``_lobpcg``'s (theta, X, residuals, iterations) and the
    preconditioner: the V-cycle when a hierarchy is given, else the sparse LU.
    """
    if hierarchy is None:
        preconditioner, precond = "lu", _shifted_lu_preconditioner(Atil)
    else:
        preconditioner, precond = "multigrid", _multigrid_preconditioner(Atil, s, hierarchy)
    theta, X, res, iterations = _lobpcg(Atil, X0, n_wanted, tol, maxiter, precond, gram,
                                        constraints=kernel)
    return theta, X, res, iterations, preconditioner


def _nested_start(Amat, d, known_kernel, block, n_wanted, tol, seed, maxiter, hierarchy):
    """(X0, coarse_levels) of a cold solve of (Amat, diag(d)).

    X0 is a one-element list holding the starting block, in the transformed
    variables, for ``_lobpcg`` to take, and ``coarse_levels`` the (size,
    iterations) of the coarse solves behind it, coarsest first. When the next coarser level of ``hierarchy`` has more
    vertices than the block has columns (room for the block beside one known
    kernel column), X0 is that level's whole Ritz block, prolonged: the
    Galerkin pencil (P^T A P, P^T d) is solved from its own nested start to
    max(tol, NESTED_TOL). Otherwise X0 is the seeded random block and there
    are no coarse levels. A coarse level's operators and preconditioner are
    released when its call returns, before the finer solve builds its own.
    """
    if not hierarchy or hierarchy[-1].shape[1] <= block:
        return [np.random.default_rng(seed).standard_normal((Amat.shape[0], block))], ()
    P, coarser = hierarchy[-1], hierarchy[:-1]
    n_coarse = P.shape[1]
    Pt = P.T.tocsr()
    Ac, dc = (Pt @ Amat @ P).tocsr(), Pt @ d
    # subdivision keeps the coarse vertices first, where P is the identity, so
    # the constants restrict to the constants
    kc = None if known_kernel is None else np.asarray(known_kernel, dtype=float)[:n_coarse]
    X0, levels = _nested_start(Ac, dc, kc, block, n_wanted, tol, seed, maxiter, coarser)
    Atil, s, kernel = _standard_form(Ac, dc, kc)
    try:
        _theta, X, _res, iterations, _ = _iterate(Atil, s, kernel, X0, n_wanted,
                                                  max(tol, NESTED_TOL), maxiter, coarser,
                                                  dc)
    except ConvergenceError as exc:
        # the fine solve never ran: say which pencil the residuals belong to
        raise ConvergenceError(f"nested start, coarse level of {n_coarse} vertices: {exc}",
                               exc.residuals, exc.iterations, exc.history) from exc
    log.info("nested start: %d vertices, %d iterations", n_coarse, iterations)
    return [(P @ (X / s[:, None])) * np.sqrt(d)[:, None]], levels + ((n_coarse, iterations),)


def solve_lowest(A, B, m: int, tol: float = 1e-8, seed: int = 0,
                 known_kernel=None, maxiter: int = 1500, start=None,
                 hierarchy=None, residual_map=None) -> SpectrumResult:
    """Lowest ``m`` eigenpairs of A x = lambda B x.

    ``known_kernel``: optional vector spanning a known exact kernel of A (for
    the 0-form Laplacian, the constants). It is deflated from the iteration
    and returned as an exact zero-eigenvalue pair.

    ``start``: optional n x k block of approximate eigenvectors, in the
    original variables and orthogonal to the known kernel. Its columns fill
    the leading columns of the LOBPCG starting block (as many as its m + 5
    columns hold); seeded random columns pad the rest. A start already
    converged to ``tol`` ends the solve within one iteration. The block is
    not kept once copied, so a caller that keeps no reference to it (the
    Hodge split's face side) has it released before the iteration.

    ``hierarchy``: the vertex prolongations of the mesh's subdivision
    hierarchy, coarsest first (``TriangleMesh.vertex_prolongations()``),
    for a vertex pencil. They replace the sparse LU preconditioner by a
    multigrid V-cycle, and a solve without ``start`` then starts from the
    coarse levels (a nested start, see the module docstring; the result's
    ``coarse_levels`` records them). ``maxiter`` caps every level's solve,
    and a ConvergenceError on a coarse level names its size.

    ``residual_map``: optional sparse matrix M with n columns. Each iterated
    pair is then measured as ||M (A x - lambda B x)|| / ||M B x|| instead of
    ||A x - lambda B x|| / ||B x||; either way, its returned residual is the
    one the stopping test read. The Hodge split passes the fixed map that
    sends a side's residual to the residual of its one-form, so its sides
    stop on the one-form residual itself. The known-kernel pair keeps the
    pencil's own residual (M sends the split's kernel, the constants, to 0).

    Deterministic for a fixed ``seed``: the starting block is drawn from a
    seeded generator. Raises ConvergenceError (carrying the best residuals
    and the per-iteration history) if the iteration cap is reached.
    """
    Amat = _as_matrix(A)
    d = _diagonal_spd(B)
    n = Amat.shape[0]
    if not 1 <= m <= n:
        raise SpectralError(f"m={m} out of range 1..{n}")
    if start is not None:
        start = _start_block(start, n)
    if hierarchy and hierarchy[-1].shape[0] != n:
        raise SpectralError(f"hierarchy ends at {hierarchy[-1].shape[0]} vertices, "
                            f"the pencil has {n}")

    Atil, s, kernel = _standard_form(Amat, d, known_kernel)
    # residual Gram operator (M S)^T (M S) of the transformed variables,
    # where the original residual is S r and B x is S y, with S = diag(s);
    # without a map it is S^2 = diag(d), passed as the vector d
    if residual_map is None:
        G = d
    else:
        G = residual_map @ sp.diags(s)
        G = _row_split((G.T @ G).tocsr())
    n_kernel = 0 if kernel is None else kernel.shape[1]

    n_iter = m - n_kernel
    vals = np.zeros(0)
    vecs_t = np.zeros((n, 0))
    residuals = np.zeros(0)
    next_estimate = None
    iterations = 0
    preconditioner = None
    block = 0
    coarse_levels = ()
    if n_iter > 0:
        block = min(m + BLOCK_PADDING, n - n_kernel)
        # X0 holds the start block in a one-element list that _lobpcg empties,
        # so the block is released once the solve has rotated it
        if start is None:
            X0, coarse_levels = _nested_start(Amat, d, known_kernel, block, n_iter, tol,
                                              seed, maxiter, hierarchy)
        else:
            X0 = [np.random.default_rng(seed).standard_normal((n, block))]
            k = min(start.shape[1], block)
            X0[0][:, :k] = start[:, :k] * s[:, None]
            del start  # copied: a caller that kept no reference frees it here
        theta, X, res, iterations, preconditioner = _iterate(
            Atil, s, kernel, X0, n_iter, tol, maxiter, hierarchy, G)
        vals = theta[:n_iter]
        vecs_t = X[:, :n_iter]
        residuals = res[:n_iter]
        if theta.shape[0] > n_iter:
            next_estimate = float(theta[n_iter])

    if n_kernel:
        # the pencil's own residual: a residual map sends the constants to 0
        vals = np.concatenate([np.zeros(n_kernel), vals])
        vecs_t = np.concatenate([kernel, vecs_t], axis=1)
        residuals = np.concatenate(
            [_residual_norms(Atil @ kernel, kernel, d), residuals])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    return SpectrumResult(
        eigenvalues=vals,
        eigenvectors=vecs_t[:, order] * (1.0 / s)[:, None],
        residuals=residuals[order],
        groups=group_multiplicities(vals),
        next_estimate=next_estimate,
        iterations=iterations,
        preconditioner=preconditioner,
        block=block,
        coarse_levels=coarse_levels,
    )


def dense_reference(A, B, m: int | None = None):
    """Dense full diagonalization of B^(-1/2) A B^(-1/2): the solver oracle.

    Independent code path (LAPACK's symmetric eigensolver, through
    ``numpy.linalg.eigvalsh``, on the dense matrix); intended for meshes
    small enough to densify.
    """
    Amat = _as_matrix(A)
    d = _diagonal_spd(B)
    inv_s = 1.0 / np.sqrt(d)
    dense = Amat.toarray() * inv_s[:, None] * inv_s[None, :]
    w = np.linalg.eigvalsh(dense)
    return w if m is None else w[:m]
