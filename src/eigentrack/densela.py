"""Dense linear algebra kernels used by the predictor.

Three LAPACK drivers behind ``numpy.linalg``: a symmetric eigensolver
(``eigh``, syevd) for startup and restart eigendata, a square solve
(``solve``, gesv) for bordered systems, and a minimum-norm least-squares
fallback (``lstsq``, gelsd) for the near singular ones.  The eigensolver
and the square solve take a whole stack of matrices along the leading
axis in one call; numpy hands each member to LAPACK on its own, so a
batch result equals the single-matrix one bit for bit.

``solve_bordered`` solves the n bordered systems of one instant
together in the tracked eigenbasis, with a few matrix products instead
of n dense factorizations, and hands the pairs it cannot settle there
to ``solve_batch``.  ``residual`` scores approximate eigenpairs against
a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "LinearSolveReport",
    "BatchSolveReport",
    "MatrixShapeError",
    "AsymmetryError",
    "sym_eig",
    "sym_eig_batch",
    "solve",
    "solve_batch",
    "solve_bordered",
    "bordered_stack",
    "solve_augmented",
    "fro_norm",
    "fro_norms",
    "residual",
]


class MatrixShapeError(ValueError):
    pass


class AsymmetryError(ValueError):
    pass


@dataclass
class EigenDecomposition:
    """Eigenvalues sorted ascending; column i of ``eigenvectors`` pairs
    with ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class LinearSolveReport:
    """Solution plus how it was obtained.

    ``method`` is "direct" (LU with partial pivoting) or "least-squares"
    (minimum-norm solution through the SVD).  ``rpr`` is
    a dimensionless conditioning indicator in [0, 1].  On the direct path
    it is the amplification ratio ||q|| / (||P||_F ||x||), at most 1
    because ||P x|| <= ||P||_F ||x||, and tiny when a near-null direction
    of P amplifies q (1 for q = 0).  On the fallback it is the reciprocal
    singular-value ratio of P.
    """

    x: np.ndarray
    method: str
    rpr: float


@dataclass
class BatchSolveReport:
    """Solutions of a stack of systems, as arrays.

    ``x`` is the (B, m) solution stack, ``lstsq`` the (B,) mask of the
    systems that took the least-squares fallback and ``rpr`` the (B,)
    conditioning indicators, as in LinearSolveReport.  Indexing and
    iteration give per-system LinearSolveReports.
    """

    x: np.ndarray
    lstsq: np.ndarray
    rpr: np.ndarray

    def __len__(self) -> int:
        return len(self.lstsq)

    def __getitem__(self, b: int) -> LinearSolveReport:
        return LinearSolveReport(
            x=self.x[b], method="least-squares" if self.lstsq[b] else "direct",
            rpr=float(self.rpr[b]))

    def __iter__(self):
        return (self[b] for b in range(len(self)))


def fro_norm(M) -> float:
    # numpy.linalg.norm's own arithmetic for ord=None, minus its dispatch
    v = np.asarray(M, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def fro_norms(M) -> np.ndarray:
    """``fro_norm`` of each matrix in a stack, with the same arithmetic.

    ``matmul`` of a row with a column is the same BLAS dot as
    ``v.dot(v)`` (``einsum`` is not), so entry b equals
    ``fro_norm(M[b])`` bit for bit for C-ordered members.
    """
    V = np.asarray(M, dtype=float).reshape(len(M), -1)
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None]).ravel())


def residual(A, z, metric: str = "pair"):
    """Relative eigen-equation defect of stacked vectors against A.

    ``z`` may be a single stacked vector (n+1,) or a block (n, n+1) with
    one row per pair.  With ``metric="pair"`` the result is
    ||A x - lambda x||_2 / ||A||_F per pair; ``metric="matrix"`` collapses
    the block to ||A V - V D||_F / (||A||_F ||V||_F).  A stack of
    matrices (B, n, n) with a stack of blocks (B, n, n+1) scores B
    instants at once: (B, n) per-pair values, or (B,) for ``"matrix"``.
    A stack runs the same expressions over its leading axis, member by
    member, so the predictor's per-instant log and the harness's block
    recomputation agree bit for bit.
    """
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    n = A.shape[-1]
    if z.shape[-1] != n + 1:
        raise ValueError(f"stacked vectors must have {n + 1} entries")
    stacked = (A.ndim == 3)
    Zb = z[None, :] if z.ndim == 1 else z
    X = Zb[..., :n]
    R = X @ A.swapaxes(-1, -2)
    R -= Zb[..., n, None] * X
    if stacked:
        a_nrm = fro_norms(A)[:, None]
        a_nrm[a_nrm == 0.0] = 1.0
    else:
        a_nrm = fro_norm(A) or 1.0
    if metric == "pair":
        R *= R
        out = np.sqrt(np.add.reduce(R, axis=-1))
        out /= a_nrm
        return float(out[0]) if z.ndim == 1 else out
    if metric == "matrix":
        v_nrm = np.sqrt((X * X).sum(axis=(-2, -1)))
        out = np.sqrt((R * R).sum(axis=(-2, -1)))
        if not stacked:
            return float(out / (a_nrm * (v_nrm or 1.0)))
        v_nrm[v_nrm == 0.0] = 1.0
        return out / (a_nrm[:, 0] * v_nrm)
    raise ValueError(f"unknown metric {metric!r}")


_ASYM_REL = 1e-12
# a direct solution whose amplification ratio falls below this is treated
# as near singular; the ratio is invariant under scaling P and q together
_RPR_MIN = 1e-12


def sym_eig_batch(As):
    """Eigendecompose a stack of symmetric matrices.

    Returns ``(w, V)`` with ``w`` of shape (B, n) ascending per matrix and
    ``V`` of shape (B, n, n), columns sign-normalized so the entry of
    largest magnitude in each eigenvector is positive.  Raises ValueError
    for a NaN or infinite entry (or a Frobenius norm that overflows) and
    ``numpy.linalg.LinAlgError`` when LAPACK does not converge.
    """
    As = np.asarray(As, dtype=float)
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise MatrixShapeError(f"expected a (B, n, n) stack, got {As.shape}")
    norms = np.sqrt((As * As).sum(axis=(1, 2)))
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise ValueError(f"matrix {bad} of the stack has a non-finite entry "
                         "or a Frobenius norm that overflows")
    asym = np.sqrt(((As - As.transpose(0, 2, 1)) ** 2).sum(axis=(1, 2)))
    if np.any(asym > _ASYM_REL * norms):
        raise AsymmetryError("input is not symmetric to working tolerance")

    w, V = np.linalg.eigh(As)
    # deterministic signs: largest-magnitude entry of each column positive
    peak = np.argmax(np.abs(V), axis=1)                      # (B, n)
    peak_vals = np.take_along_axis(V, peak[:, None, :], axis=1)[:, 0, :]
    V = V * np.where(peak_vals < 0.0, -1.0, 1.0)[:, None, :]
    return w, V


def sym_eig(A) -> EigenDecomposition:
    """Decompose one symmetric matrix; see sym_eig_batch."""
    w, V = sym_eig_batch(np.asarray(A, dtype=float)[None])
    return EigenDecomposition(eigenvalues=w[0], eigenvectors=V[0])


def solve_augmented(P, q) -> LinearSolveReport:
    """Minimum-norm least-squares solve of P x = q through the SVD.

    For nonsingular P this agrees with the direct solve; for singular P it
    picks the minimum-norm solution, which keeps the predictor finite
    through exact eigenvalue collisions.  No zero row is appended, the
    name notwithstanding: one would leave the singular values and right
    singular vectors of P, and so the solution, unchanged.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    m = P.shape[0]
    if P.shape != (m, m) or q.shape != (m,):
        raise MatrixShapeError(f"bad shapes {P.shape}, {q.shape}")
    x, _, _, sv = np.linalg.lstsq(P, q, rcond=None)
    rpr = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0 else 0.0
    return LinearSolveReport(x=x, method="least-squares", rpr=rpr)


def _solve_each(Ps, qs):
    """Per-system direct solves; an exactly singular system yields NaN."""
    X = np.full(qs.shape, np.nan)
    for b in range(len(Ps)):
        try:
            X[b] = np.linalg.solve(Ps[b], qs[b])
        except np.linalg.LinAlgError:
            pass
    return X


def solve_batch(Ps, qs) -> BatchSolveReport:
    """Solve a stack of square systems P x = q in one LAPACK call.

    A system is near singular when LAPACK finds it exactly singular, when
    its solution is not finite, or when its amplification ratio
    ||q|| / (||P||_F ||x||) is below 1e-12; such a system is handed to
    solve_augmented instead, and marked in ``lstsq``.
    """
    Ps = np.asarray(Ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if Ps.ndim != 3 or Ps.shape[1] != Ps.shape[2]:
        raise MatrixShapeError(f"expected a (B, m, m) stack, got {Ps.shape}")
    B, m, _ = Ps.shape
    if qs.shape != (B, m):
        raise MatrixShapeError(f"rhs shape {qs.shape} does not match {Ps.shape}")

    try:
        X = np.linalg.solve(Ps, qs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # numpy fails the whole stack when one member is singular
        X = _solve_each(Ps, qs)
    q_norm = np.sqrt(np.add.reduce(qs * qs, axis=1))
    amp = (np.sqrt(np.add.reduce(Ps * Ps, axis=(1, 2)))
           * np.sqrt(np.add.reduce(X * X, axis=1)))
    # compared as a product: q = 0 with x = 0 passes, a NaN or inf x fails
    direct = q_norm >= _RPR_MIN * amp
    rpr = np.divide(q_norm, amp, out=np.ones(B), where=direct & (q_norm > 0))
    lstsq = ~direct
    if lstsq.any():
        for b in np.flatnonzero(lstsq):
            rep = solve_augmented(Ps[b], qs[b])
            X[b], rpr[b] = rep.x, rep.rpr
    return BatchSolveReport(x=X, lstsq=lstsq, rpr=rpr)


def solve(P, q) -> LinearSolveReport:
    """Solve one square system; see solve_batch for the fallback rule."""
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    m = P.shape[0]
    if P.shape != (m, m):
        raise MatrixShapeError(f"P must be square, got {P.shape}")
    if q.shape != (m,):
        raise MatrixShapeError(f"rhs length {q.shape[0]} != {m}")
    return solve_batch(P[None], q[None])[0]


def bordered_stack(A, Z):
    """The bordered matrices of stacked pairs, (B, n+1, n+1).

    Row i of Z is pair i's [x; lambda]; member i is
    [[A - lambda_i I, -x_i], [-x_i^T, 0]].
    """
    n = A.shape[0]
    B = len(Z)
    Ps = np.zeros((B, n + 1, n + 1))
    Ps[:, :n, :n] = A
    # the block's diagonal as a strided view of the contiguous stack
    Ps.reshape(B, -1)[:, :n * (n + 2):n + 2] -= Z[:, n][:, None]
    np.negative(Z[:, :n], out=Ps[:, :n, n])
    Ps[:, n, :n] = Ps[:, :n, n]
    return Ps


# Below this many pairs every system takes the dense route, whose
# per-call cost grows like n^4 while the basis path's is mostly a fixed
# count of numpy calls.  Per call, in process, on a 2-core Xeon (numpy
# 2.4, OpenBLAS at one thread), the basis path against bordered_stack +
# solve_batch, medians of 15 interleaved rounds: n = 7 225 against
# 79 us, n = 16 206 against 169 us, n = 17 229 against 219 us, n = 18
# 213 against 222 us, n = 32 308 against 1219 us.
_BASIS_MIN_N = 18
# refinement sweeps before an unsettled pair goes to the dense route
_BASIS_SWEEPS = 4
# a pair is settled once its transformed residual is this far below its
# transformed right-hand side
_BASIS_TOL = 8.0 * np.finfo(float).eps


def solve_bordered(A, Z, qs) -> BatchSolveReport:
    """Solve every pair's bordered system at one instant.

    System i is [[A - lambda_i I, -x_i], [-x_i^T, 0]] y = qs[i], with row
    i of Z = [x_i; lambda_i]; returns the same report as solve_batch on
    ``bordered_stack(A, Z)``, with the same ``lstsq`` and ``rpr``.

    With n pairs of an n x n matrix (n at least ``_BASIS_MIN_N``), the
    congruence diag(X, 1) P_i diag(X^T, 1), u = X^T c, turns system i
    into

        (M - lambda_i G) c - G[:, i] nu = X r_i,   -G[i, :] c = s_i,

    with M = X A X^T and G = X X^T.  That is exact for any invertible X.
    When the rows of X are close to A's eigenvectors, M - lambda_i G is
    its diagonal m_j - lambda_i g_j plus small terms, so each pair is
    preconditioned by that diagonal and the (i, i) arrowhead with the
    border (the first-order eigenvector-derivative formula), and all
    pairs are refined together, two matrix products per sweep.  The
    solution maps back with U = C X.  A pair goes to solve_batch, and
    from there to its least-squares fallback as before, when a divisor
    of its preconditioner is zero or not finite, when its transformed
    residual is still above 8 eps ||X r_i; s_i|| after the last sweep,
    or when its amplification ratio ||q_i|| / (||P_i||_F ||y_i||) is
    below 1e-12.  All pairs go there when ||X X^T - I||_F exceeds 1/2.
    Pairs solved in the basis count as direct.
    """
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    qs = np.asarray(qs, dtype=float)
    n = A.shape[0]
    B = len(Z)
    if A.shape != (n, n) or Z.shape != (B, n + 1) or qs.shape != (B, n + 1):
        raise MatrixShapeError(
            f"bad shapes {A.shape}, {Z.shape}, {qs.shape}")
    if B != n or n < _BASIS_MIN_N:
        return solve_batch(bordered_stack(A, Z), qs)

    X = Z[:, :n]
    lam = Z[:, n][:, None]
    G = X @ X.T
    g = G.diagonal()
    # MG = [M | G] with zero diagonals, so one product applies both
    MG = np.empty((n, 2 * n))
    np.matmul(X @ A, X.T, out=MG[:, :n])
    MG[:, n:] = G
    # D[i, j] = m_j - lambda_i g_j; the arrowhead takes j = i
    D = MG.diagonal() - lam * g
    MG.reshape(-1)[::2 * n + 1] = 0.0
    MG.reshape(-1)[n::2 * n + 1] = 0.0
    G = MG[:, n:]
    # the residual test below bounds the original residual only up to
    # cond(X); ||X X^T - I||_F <= 1/2 keeps cond(X) <= sqrt(3)
    if not (np.add.reduce(G * G, axis=None)
            + np.add.reduce((g - 1.0) ** 2) <= 0.25):
        return solve_batch(bordered_stack(A, Z), qs)
    d_ii = D.reshape(-1)[::n + 1].copy()
    D.reshape(-1)[::n + 1] = 1.0
    # exact collisions and non-finite entries are marked before dividing
    D_abs = np.abs(D)
    ok = ((np.minimum(D_abs.min(axis=1), g) > 0.0)
          & (D_abs.max(axis=1) < np.inf))
    b = np.empty((n, n + 1))
    np.matmul(qs[:, :n], X.T, out=b[:, :n])
    b[:, n] = qs[:, n]
    if np.count_nonzero(ok) < n:
        bad = ~ok
        D[bad] = 1.0
        d_ii[bad] = 0.0
        g = np.where(bad, 1.0, g)
        b[bad] = 0.0
    E = np.zeros((n, n + 1))
    np.divide(1.0, D, out=E[:, :n])
    E.reshape(-1)[::n + 2] = 0.0
    neg_g_inv = -1.0 / g
    d_g2 = d_ii * neg_g_inv * neg_g_inv
    tol2 = _BASIS_TOL ** 2 * np.add.reduce(b * b, axis=1)

    def precondition(H):
        # 1 / D off the arrowhead; for (c_i, nu) the 2x2 block
        # [[d_ii, -g_i], [-g_i, 0]] gives c_i = -h_n / g_i and
        # nu = -h_i / g_i - d_ii h_n / g_i^2
        W = H * E
        hn = H[:, n]
        W.reshape(-1)[::n + 2] = hn * neg_g_inv
        W[:, n] = H.reshape(-1)[::n + 2] * neg_g_inv - d_g2 * hn
        return W

    def off_terms(W):
        # the parts of every system that the preconditioner leaves out
        P = W[:, :n] @ MG
        T = np.empty((n, n + 1))
        top = T[:, :n]
        np.multiply(lam, P[:, n:], out=top)
        np.subtract(P[:, :n], top, out=top)
        top -= W[:, n:] * G
        np.negative(P[:, n:].diagonal(), out=T[:, n])   # G is symmetric
        return T

    W = precondition(b)
    T = off_terms(W)
    for _ in range(_BASIS_SWEEPS):
        W = precondition(b - T)
        prev, T = T, off_terms(W)
        # K y = b - N y_prev holds, so b - K y - N y = N y_prev - N y
        R = prev - T
        settled = np.add.reduce(R * R, axis=1) <= tol2
        if np.count_nonzero(settled) == n:
            break

    Y = np.empty((n, n + 1))
    np.matmul(W[:, :n], X, out=Y[:, :n])
    Y[:, n] = W[:, n]
    a_diag = A.diagonal()
    # ||P_i||_F^2 = ||offdiag A||^2 + sum_j (a_jj - lambda_i)^2 + 2 ||x_i||^2
    a_off = max(np.add.reduce(A * A, axis=None) - a_diag @ a_diag, 0.0)
    P_fro = np.sqrt(a_off + np.add.reduce((a_diag - lam) ** 2, axis=1)
                    + 2.0 * g)
    q_norm = np.sqrt(np.add.reduce(qs * qs, axis=1))
    amp = P_fro * np.sqrt(np.add.reduce(Y * Y, axis=1))
    # as in solve_batch: a NaN or inf y fails the comparison
    direct = settled & ok & (q_norm >= _RPR_MIN * amp)
    # q_i = 0 gives y_i = 0 here and rpr 1, as in solve_batch; the pairs
    # that are not direct (y_i = 0 when marked) are overwritten below
    pad = (q_norm == 0.0) | ~direct
    rpr = (q_norm + pad) / (amp + pad)
    lstsq = np.zeros(n, dtype=bool)
    if np.count_nonzero(direct) == n:
        return BatchSolveReport(x=Y, lstsq=lstsq, rpr=rpr)
    dense = np.flatnonzero(~direct)
    rep = solve_batch(bordered_stack(A, Z[dense]), qs[dense])
    Y[dense] = rep.x
    rpr[dense] = rep.rpr
    lstsq[dense] = rep.lstsq
    return BatchSolveReport(x=Y, lstsq=lstsq, rpr=rpr)
