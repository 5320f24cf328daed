"""Dense linear algebra kernels used by the predictor.

Three LAPACK drivers behind ``numpy.linalg``: a symmetric eigensolver
(``eigh``, syevd) for startup and restart eigendata, a square solve
(gesv, through the gufunc ``numpy.linalg.solve`` wraps) for bordered
systems, and a minimum-norm least-squares fallback (``lstsq``, gelsd)
for the near singular ones.  The eigensolver and the square solve take a
whole stack of matrices along the leading axis in one call; numpy hands
each member to LAPACK on its own, so a batch result equals the
single-matrix one bit for bit, and an exactly singular member comes back
NaN without failing the rest.

``solve_bordered`` solves the n bordered systems of one instant.  From
n = 16 it solves them together in the tracked eigenbasis, with a few
matrix products instead of n dense factorizations, and hands the pairs
it cannot settle there to the dense route.  Below that it writes the
bordered stack (``_BorderedStack``, its one writer) into work arrays the
caller keeps (``BasisWork``) and solves it with one LAPACK call.  Both
routes and ``solve_batch`` share one near-singular rule, on squared
norms, and leave each system's conditioning indicator to be derived
when it is read.  ``residual``, the one residual kernel, scores each
eigenpair of a stack (a single matrix is a stack of one); the
full-matrix score is derived from its per-pair values in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# the gufunc behind numpy.linalg.solve: called directly, an exactly
# singular member of a stack comes back NaN instead of failing the stack
from numpy.linalg._umath_linalg import solve1 as _gesv

__all__ = [
    "LinearSolveReport",
    "BatchSolveReport",
    "BasisWork",
    "MatrixShapeError",
    "AsymmetryError",
    "sym_eig_batch",
    "solve_batch",
    "solve_bordered",
    "bordered_stack",
    "fro_norm",
    "fro_norms",
    "residual",
]


class MatrixShapeError(ValueError):
    pass


class AsymmetryError(ValueError):
    pass


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

    ``x`` is the (B, m) solution stack and ``lstsq`` the (B,) mask of
    the systems that took the least-squares fallback.  ``q2``, ``P2``
    and ``x2`` are each system's squared norms ||q||^2, ||P||_F^2 and
    ||x||^2, which the amplification test compared, and
    ``fallback_rpr`` holds the fallback's indicators where ``lstsq`` is
    set (None when no system fell back).  ``rpr``, the (B,) conditioning
    indicators of LinearSolveReport, is derived from them when it is
    first read, and kept: ||q|| / (||P||_F ||x||) on the direct path, 1
    for q = 0.  Indexing and iteration give per-system
    LinearSolveReports.
    """

    x: np.ndarray
    lstsq: np.ndarray
    q2: np.ndarray
    P2: np.ndarray
    x2: np.ndarray
    fallback_rpr: Optional[np.ndarray] = None
    _rpr: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def rpr(self) -> np.ndarray:
        if self._rpr is None:
            rpr = np.ones(len(self.lstsq))
            np.divide(np.sqrt(self.q2), np.sqrt(self.P2) * np.sqrt(self.x2),
                      out=rpr, where=~self.lstsq & (self.q2 > 0))
            if self.fallback_rpr is not None:
                np.copyto(rpr, self.fallback_rpr, where=self.lstsq)
            self._rpr = rpr
        return self._rpr

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


def residual(A, z):
    """Relative eigen-equation defect ||A x - lambda x||_2 / ||A||_F.

    A stack of matrices (B, n, n) with a stack of blocks (B, n, n+1), a
    row [x; lambda] per pair, gives (B, n).  A matrix (n, n) with a block
    (n, n+1) or a vector (n+1,) is scored as a stack of one and keeps the
    input's shape: (n,) for a block, a float for a vector.  A member's
    bits do not depend on the rest of the stack.
    """
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    n = A.shape[-1]
    if z.shape[-1] != n + 1:
        raise ValueError(f"stacked vectors must have {n + 1} entries")
    if A.ndim == 2 and z.ndim <= 2:
        out = residual(A[None], z.reshape(1, -1, n + 1))[0]
        return out if z.ndim == 2 else float(out[0])
    if A.ndim != 3 or z.ndim != 3 or len(z) != len(A):
        raise ValueError(f"cannot score pairs {z.shape} against {A.shape}")
    X = z[..., :n]
    R = X @ A.swapaxes(-1, -2)
    R -= z[..., n, None] * X
    a_nrm = fro_norms(A)[:, None]
    a_nrm[a_nrm == 0.0] = 1.0
    R *= R
    return np.sqrt(np.add.reduce(R, axis=-1)) / a_nrm


_ASYM_REL = 1e-12
# a direct solution whose squared amplification ratio falls below this,
# (1e-12)^2, is treated as near singular; the ratio is invariant under
# scaling P and q together
_RPR_MIN2 = 1e-24


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
    with np.errstate(over="ignore", invalid="ignore"):   # raised below
        norms = fro_norms(As)
        asym = fro_norms(As - As.transpose(0, 2, 1))
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise ValueError(f"matrix {bad} of the stack has a non-finite entry "
                         "or a Frobenius norm that overflows")
    if np.any(asym > _ASYM_REL * norms):
        raise AsymmetryError("input is not symmetric to working tolerance")

    w, V = np.linalg.eigh(As)
    # deterministic signs: largest-magnitude entry of each column
    # positive; the peak's flat index is b n^2 + row n + column
    B, n = w.shape
    peak = np.argmax(np.abs(V), axis=1)                      # (B, n)
    peak *= n
    peak += np.arange(0, B * n * n, n * n)[:, None]
    peak += np.arange(n)
    np.negative(V, out=V, where=(V.take(peak) < 0.0)[:, None, :])
    return w, V


def _amplification_test(q2, P2, y2, usable=None):
    """Both routes' near-singular rule on squared norms, q2 = ||q||^2,
    P2 = ||P||_F^2, y2 = ||y||^2: direct when usable and
    q2 >= (1e-24 P2) y2, so q = y = 0 passes and a NaN or inf y fails.
    Scaling P2 first keeps the bound finite wherever ||q|| >= 1e-12
    ||P||_F ||y|| can hold with a finite q2."""
    bound = _RPR_MIN2 * P2
    bound *= y2
    direct = q2 >= bound
    if usable is not None:
        direct &= usable
    return direct


def _solve_stack(Ps, qs) -> BatchSolveReport:
    """The dense route of checked (B, m, m) and (B, m) stacks: one
    LAPACK call, whose exactly singular members come back NaN, the
    amplification test, which a NaN solution fails, and the
    least-squares fallback: per member that failed the test, one
    minimum-norm ``numpy.linalg.lstsq`` call, with sigma_min / sigma_max
    of P as its indicator (0 for P = 0).  A NaN or infinite entry in P,
    then in q, raises ``numpy.linalg.LinAlgError`` first: the driver can
    spin on such a P and returns NaN for such a q."""
    # numpy.linalg.solve's error state, minus its raise on a singular
    # member
    with np.errstate(all="ignore"):
        X = _gesv(Ps, qs, signature="dd->d")
    q2 = np.add.reduce(qs * qs, axis=1)
    P2 = np.add.reduce(Ps * Ps, axis=(1, 2))
    x2 = np.add.reduce(X * X, axis=1)
    lstsq = ~_amplification_test(q2, P2, x2)
    fallback = None
    if np.count_nonzero(lstsq):
        fallback = np.zeros(len(X))
        for b in np.flatnonzero(lstsq):
            for name, M in (("P", Ps[b]), ("q", qs[b])):
                if not np.isfinite(M).all():
                    raise np.linalg.LinAlgError(
                        "least-squares system with a non-finite entry "
                        f"in {name}")
            X[b], _, _, sv = np.linalg.lstsq(Ps[b], qs[b], rcond=None)
            if sv[0] > 0:
                fallback[b] = sv[-1] / sv[0]
    return BatchSolveReport(x=X, lstsq=lstsq, q2=q2, P2=P2, x2=x2,
                            fallback_rpr=fallback)


def solve_batch(Ps, qs) -> BatchSolveReport:
    """Solve a stack of square systems P x = q in one LAPACK call.

    A system is near singular when LAPACK finds it exactly singular (its
    solution comes back NaN), when its solution is not finite, or when
    its amplification ratio ||q|| / (||P||_F ||x||) is below 1e-12
    (tested on squares); such a system takes the least-squares fallback
    (a non-finite one raises LinAlgError there) and is marked in ``lstsq``.
    """
    Ps = np.asarray(Ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if Ps.ndim != 3 or Ps.shape[1] != Ps.shape[2]:
        raise MatrixShapeError(f"expected a (B, m, m) stack, got {Ps.shape}")
    B, m, _ = Ps.shape
    if qs.shape != (B, m):
        raise MatrixShapeError(f"rhs shape {qs.shape} does not match {Ps.shape}")
    return _solve_stack(Ps, qs)


class _BorderedStack:
    """A zeroed (B, n+1, n+1) stack; ``write(A, Z)`` makes member i
    [[A - lambda_i I, -x_i], [-x_i^T, 0]] for row i of Z = [x_i; lambda_i]
    and returns it, leaving the border corners 0.  The views are made
    once: per-call slicing made an n = 7 write a third slower (4.1
    against 3.0 us on the 2-core Xeon of ``_BASIS_MIN_N``'s note).
    """

    def __init__(self, B: int, n: int):
        self.n = n
        self.P = np.zeros((B, n + 1, n + 1))
        self.A = self.P[:, :n, :n]
        self.ii = self.P.reshape(B, (n + 1) ** 2)[:, :n * (n + 2):n + 2]
        self.col = self.P[:, :n, n]
        self.row = self.P[:, n, :n]

    def write(self, A, Z):
        self.A[...] = A
        self.ii -= Z[:, self.n, None]
        np.negative(Z[:, :self.n], out=self.col)
        np.copyto(self.row, self.col)
        return self.P


def bordered_stack(A, Z):
    """The bordered matrices of stacked pairs Z, a new (B, n+1, n+1)."""
    return _BorderedStack(len(Z), A.shape[0]).write(A, Z)


# Below this many pairs every system takes the dense route, whose
# per-call cost grows like n^4 while the basis path's is mostly a fixed
# count of numpy calls.  Per solve_bordered call with its work arrays,
# in process, on a 2-core Xeon (numpy 2.4, OpenBLAS at one thread), the
# basis route against the dense route, medians of 15 interleaved rounds
# over 27 states of a rotating flow: n = 7 43 against 18 us, n = 14 46
# against 39 us, n = 15 47 against 43 us, n = 16 47 against 50 us,
# n = 17 48 against 56 us, n = 18 49 against 64 us.
_BASIS_MIN_N = 16
# refinement sweeps before an unsettled pair goes to the dense route
_BASIS_SWEEPS = 4
# a pair is settled once its transformed residual is this far below its
# transformed right-hand side
_BASIS_TOL = 8.0 * np.finfo(float).eps


class BasisWork:
    """Work arrays of ``solve_bordered`` for n pairs.

    A caller that solves one instant after another at the same n, as
    ``Tracker`` does, keeps one and allocates only the returned report
    per call.  Every n has an (n, n+1) right-hand side ``q`` for the
    caller to fill.  From ``_BASIS_MIN_N`` pairs the others are the basis
    route's contiguous (n, n) blocks and (n,) vectors, into which each of
    its passes writes; below it, the dense route's bordered stack
    (``stack``, a ``_BorderedStack``), which each call rewrites.  No value
    carries over from one call to the next.
    """

    def __init__(self, n: int):
        self.n = n
        self.q = np.empty((n, n + 1))
        if n < _BASIS_MIN_N:
            self.stack = _BorderedStack(n, n)
            return
        (self.M, self.G, self.E, self.b, self.H, self.W, self.PM, self.PG,
         self.T, self.T_prev) = np.empty((10, n, n))
        # writable views of the diagonals
        (self.M_ii, self.G_ii, self.E_ii, self.b_ii, self.H_ii, self.W_ii,
         self.PG_ii) = (a.reshape(-1)[::n + 1] for a in (
             self.M, self.G, self.E, self.b, self.H, self.W, self.PG))
        (self.g, self.m, self.d, self.neg_g_inv, self.d_g2, self.bn,
         self.hn, self.nu, self.tn, self.tn_prev, self.tol2, self.r2,
         self.v) = np.empty((13, n))
        self.S = np.empty((n, n + 1))
        self.ones = np.ones(n + 1)


def solve_bordered(A, Z, qs, work: Optional[BasisWork] = None
                   ) -> BatchSolveReport:
    """Solve every pair's bordered system at one instant.

    System i is [[A - lambda_i I, -x_i], [-x_i^T, 0]] y = qs[i], with row
    i of Z = [x_i; lambda_i]; returns the same report as solve_batch on
    ``bordered_stack(A, Z)``, with the same ``lstsq`` and ``rpr``.  Z and
    qs hold exactly the n pairs of the n x n matrix A, (n, n+1) each; any
    other shape raises MatrixShapeError.

    From ``_BASIS_MIN_N`` pairs the congruence diag(X, 1) P_i
    diag(X^T, 1), u = X^T c, turns system i into

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
    Pairs solved in the basis count as direct.  Below ``_BASIS_MIN_N``
    every pair takes the dense route, one LAPACK call on the work arrays.

    Either route works in ``work``, a ``BasisWork(n)``, or in one of its
    own when none is given.  The returned arrays are new.
    """
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    qs = np.asarray(qs, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Z.shape != (n, n + 1) or qs.shape != (n, n + 1):
        raise MatrixShapeError(
            f"expected the {n} pairs of a {n} x {n} matrix, (n, n+1) each; "
            f"got shapes {A.shape}, {Z.shape}, {qs.shape}")
    w = BasisWork(n) if work is None else work
    if w.n != n:
        raise MatrixShapeError(f"work arrays for n = {w.n}, not {n}")
    if n < _BASIS_MIN_N:
        return _solve_stack(w.stack.write(A, Z), qs)

    # row sums are products with ones: one BLAS call each, cheaper
    # than add.reduce along the rows
    ones = w.ones[:n]
    X = Z[:, :n]
    lam_col = Z[:, n, None]
    M, G, E, W = w.M, w.G, w.E, w.W
    g, m, d, nu = w.g, w.m, w.d, w.nu
    np.matmul(X, X.T, out=G)
    np.copyto(g, w.G_ii)
    # the residual test below bounds the original residual only up to
    # cond(X); ||X X^T - I||_F <= 1/2 keeps cond(X) <= sqrt(3), and
    # every g_i >= 1/2
    w.G_ii -= 1.0
    v = G.reshape(-1)
    if not v.dot(v) <= 0.25:
        return solve_batch(bordered_stack(A, Z), qs)
    # M and G with zero diagonals: the preconditioner takes those parts
    w.G_ii.fill(0.0)
    np.matmul(X, A, out=w.PM)
    np.matmul(w.PM, X.T, out=M)
    np.copyto(m, w.M_ii)
    w.M_ii.fill(0.0)
    # D[i, j] = m_j - lambda_i g_j, held in E until it is inverted; the
    # arrowhead takes j = i
    np.multiply(lam_col, g, out=E)
    np.subtract(m, E, out=E)
    np.copyto(d, w.E_ii)
    # E = 1 / D off the arrowhead (1 / inf = 0 on the diagonal).  A zero
    # divisor gives inf and a NaN one NaN, so a pair is usable when its
    # row of E sums to a finite value.  An infinite divisor needs a
    # non-finite lambda_i, which adding d_ii catches, or a non-finite A,
    # whose ||P_i||_F fails the amplification test below.
    w.E_ii.fill(np.inf)
    with np.errstate(divide="ignore"):
        np.divide(1.0, E, out=E)
    s = np.matmul(E, ones, out=w.v)
    s += d
    ok = np.isfinite(s)
    b, bn = w.b, w.bn
    np.matmul(qs[:, :n], X.T, out=b)
    np.copyto(bn, qs[:, n])
    if np.count_nonzero(ok) < n:
        # the unusable pairs keep zero rows through the sweeps and are
        # solved densely below
        bad = ~ok
        E[bad] = 0.0
        d[bad] = 0.0
        b[bad] = 0.0
        bn[bad] = 0.0
    neg_g_inv = np.divide(-1.0, g, out=w.neg_g_inv)
    d_g2 = np.multiply(d, neg_g_inv, out=w.d_g2)
    d_g2 *= neg_g_inv
    tol2 = np.matmul(np.multiply(b, b, out=w.H), ones, out=w.tol2)
    tol2 += bn * bn
    tol2 *= _BASIS_TOL ** 2

    def precondition(H, H_ii, hn):
        # 1 / D off the arrowhead; for (c_i, nu) the 2x2 block
        # [[d_ii, -g_i], [-g_i, 0]] gives c_i = -h_n / g_i and
        # nu = -h_i / g_i - d_ii h_n / g_i^2
        np.multiply(H_ii, neg_g_inv, out=nu)
        np.subtract(nu, d_g2 * hn, out=nu)
        np.multiply(H, E, out=W)
        np.multiply(hn, neg_g_inv, out=w.W_ii)

    def off_terms(T, tn):
        # the parts of every system that the preconditioner leaves out
        PM, PG = w.PM, w.PG
        np.matmul(W, M, out=PM)
        np.matmul(W, G, out=PG)
        np.multiply(lam_col, PG, out=T)
        np.subtract(PM, T, out=T)
        T -= np.multiply(nu[:, None], G, out=PM)
        np.negative(w.PG_ii, out=tn)            # G is symmetric

    T, T_prev, tn, tn_prev = w.T, w.T_prev, w.tn, w.tn_prev
    precondition(b, w.b_ii, bn)
    off_terms(T, tn)
    for _ in range(_BASIS_SWEEPS):
        precondition(np.subtract(b, T, out=w.H), w.H_ii,
                     np.subtract(bn, tn, out=w.hn))
        T, T_prev, tn, tn_prev = T_prev, T, tn_prev, tn
        off_terms(T, tn)
        # K y = b - N y_prev holds, so b - K y - N y = N y_prev - N y
        R = np.subtract(T_prev, T, out=T_prev)
        R *= R
        r2 = np.matmul(R, ones, out=w.r2)
        rn = np.subtract(tn_prev, tn, out=tn_prev)
        r2 += rn * rn
        settled = r2 <= tol2
        if np.count_nonzero(settled) == n:
            break

    Y = np.empty((n, n + 1))
    np.matmul(W, X, out=Y[:, :n])
    Y[:, n] = nu
    a_diag = A.diagonal()
    a = A.ravel(order="K")
    # ||P_i||_F^2 = ||offdiag A||^2 + sum_j (a_jj - lambda_i)^2 + 2 ||x_i||^2
    a_off = max(a.dot(a) - a_diag @ a_diag, 0.0)
    D2 = np.subtract(a_diag, lam_col, out=w.PM)
    D2 *= D2
    P2 = D2 @ ones
    P2 += a_off
    P2 += 2.0 * g
    S = w.S
    q2 = np.multiply(qs, qs, out=S) @ w.ones
    y2 = np.multiply(Y, Y, out=S) @ w.ones
    direct = _amplification_test(q2, P2, y2, settled & ok)
    lstsq = np.zeros(n, dtype=bool)
    report = BatchSolveReport(x=Y, lstsq=lstsq, q2=q2, P2=P2, x2=y2)
    if np.count_nonzero(direct) == n:
        return report
    dense = np.flatnonzero(~direct)
    rep = solve_batch(bordered_stack(A, Z[dense]), qs[dense])
    Y[dense] = rep.x
    lstsq[dense] = rep.lstsq
    q2[dense] = rep.q2
    P2[dense] = rep.P2
    y2[dense] = rep.x2
    if rep.fallback_rpr is not None:
        report.fallback_rpr = np.zeros(n)
        report.fallback_rpr[dense] = rep.fallback_rpr
    return report
