"""Dense linear algebra kernels used by the predictor.

Three jobs, each a LAPACK driver behind ``numpy.linalg``: a symmetric
eigensolver (``eigh``, syevd) for startup and restart eigendata, a square
solve (``solve``, gesv) for the bordered per-pair systems, and a
minimum-norm least-squares fallback (``lstsq``, gelsd) for the near
singular ones.  The eigensolver and the square solve take a whole stack
of matrices along the leading axis in one call; numpy hands each member
to LAPACK on its own, so a batch result equals the single-matrix one bit
for bit.  ``residual`` scores approximate eigenpairs against a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "solve_augmented",
    "fro_norm",
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

    ``x`` is the (B, m) solution stack, ``methods`` the per-system method
    labels and ``rpr`` the (B,) conditioning indicators, each as in
    LinearSolveReport.  Indexing and iteration give per-system
    LinearSolveReports.
    """

    x: np.ndarray
    methods: tuple
    rpr: np.ndarray

    def __len__(self) -> int:
        return len(self.methods)

    def __getitem__(self, b: int) -> LinearSolveReport:
        return LinearSolveReport(x=self.x[b], method=self.methods[b],
                                 rpr=float(self.rpr[b]))

    def __iter__(self):
        return (self[b] for b in range(len(self)))


@lru_cache(maxsize=None)
def _all_direct(B: int) -> tuple:
    return ("direct",) * B


def fro_norm(M) -> float:
    # numpy.linalg.norm's own arithmetic for ord=None, minus its dispatch
    v = np.asarray(M, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def residual(A, z, metric: str = "pair"):
    """Relative eigen-equation defect of stacked vectors against A.

    ``z`` may be a single stacked vector (n+1,) or a block (n, n+1) with
    one row per pair.  With ``metric="pair"`` the result is
    ||A x - lambda x||_2 / ||A||_F per pair; ``metric="matrix"`` collapses
    the block to ||A V - V D||_F / (||A||_F ||V||_F).  The predictor logs
    with it and the harness recomputes with it, so the two agree exactly.
    """
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    n = A.shape[0]
    single = (z.ndim == 1)
    Zb = z[None, :] if single else z
    if Zb.shape[1] != n + 1:
        raise ValueError(f"stacked vectors must have {n + 1} entries")
    X = Zb[:, :n]
    lam = Zb[:, n]
    R = X @ A.T - lam[:, None] * X
    a_nrm = fro_norm(A)
    if a_nrm == 0.0:
        a_nrm = 1.0
    if metric == "pair":
        out = np.sqrt(np.add.reduce(R * R, axis=1)) / a_nrm
        return float(out[0]) if single else out
    if metric == "matrix":
        v_nrm = np.sqrt((X * X).sum())
        if v_nrm == 0.0:
            v_nrm = 1.0
        return float(np.sqrt((R * R).sum()) / (a_nrm * v_nrm))
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
    solve_augmented instead.  When none is, ``methods`` is one shared
    all-"direct" tuple per batch size.
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
    if direct.all():
        return BatchSolveReport(x=X, methods=_all_direct(B), rpr=rpr)
    methods = ["direct"] * B
    for b in np.flatnonzero(~direct):
        rep = solve_augmented(Ps[b], qs[b])
        X[b], methods[b], rpr[b] = rep.x, rep.method, rep.rpr
    return BatchSolveReport(x=X, methods=tuple(methods), rpr=rpr)


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
