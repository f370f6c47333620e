"""Rank-revealing linear algebra kernels used throughout the package.

All subspaces are handled as row-stacked bases (shape ``(k, n)``: k vectors
of length n).  Ranks and null spaces are SVD based with a relative
tolerance against the largest singular value; the package-wide default is
``DEFAULT_TOL = 1e-9``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
# a singular value within this factor of the cut tol * smax makes a rank decision ambiguous
RANK_BAND = 10.0
_TINY = float(np.finfo(float).tiny)


def numeric_rank(M: np.ndarray, tol: float = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Number of singular values above ``tol * max(smax, scale)``; ``tol`` must lie in (0, 1)."""
    return rank_certificate(M, tol, scale)[0]


def rank_certificate(M: np.ndarray, tol: float = DEFAULT_TOL,
                     scale: float = 0.0) -> tuple[int, float, float, bool]:
    """``(rank, s_r / ref, s_{r+1} / ref, ambiguous)`` of the cut ``s > tol * ref``.

    ``ref = max(s_1, scale)``: ``scale`` is an absolute reference for a matrix
    that may hold rounding noise only, as in ``orth_rows``.  Ambiguous: s_r or
    s_{r+1} lies within a factor ``RANK_BAND`` of the cut, or the cut is below
    the smallest normal float (so a zero matrix is).  A missing s_r or s_{r+1}
    reads 0; an empty matrix is ``(0, 0.0, 0.0, False)``.
    """
    if not 0.0 < tol < 1.0:
        from .core import InputError        # core imports this module
        raise InputError(f"tol must be in (0, 1), got {tol}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0, 0.0, 0.0, False
    return _cut_certificate(np.linalg.svd(M, compute_uv=False), tol, scale)


def _cut_certificate(s: np.ndarray, tol: float,
                     scale: float = 0.0) -> tuple[int, float, float, bool]:
    """``rank_certificate`` of a matrix with the singular values ``s`` (descending); no
    value at all is a matrix with no rows, ``(0, 0.0, 0.0, False)`` without a ``scale``."""
    ref = max(float(s[0]) if s.size else 0.0, scale)
    cut = tol * ref
    r = int((s > cut).sum())
    rel = np.append(s, 0.0) / ref if ref > 0.0 else np.zeros(s.size + 1)
    upper, lower = (float(rel[r - 1]) if r else 0.0), float(rel[r])
    ambiguous = bool(s.size and cut < _TINY
                     or any(tol / RANK_BAND <= x <= tol * RANK_BAND for x in (upper, lower)))
    return r, upper, lower, ambiguous


def orth_rows(M: np.ndarray, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) for the row space of M.

    ``scale`` sets an absolute reference for the rank cut (useful for
    projector-like inputs whose singular values are 0 or 1 and whose zero
    side is pure rounding noise).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((0, M.shape[1] if M.ndim == 2 else 0))
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    return vh[:_cut_certificate(s, tol, scale or 0.0)[0]]


def null_rows(M: np.ndarray, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) for the null space {x : M x = 0}; all of R^n for a zero M.

    ``scale`` sets an absolute reference for the rank cut, for inputs that
    may consist of rounding noise only.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[1]
    if M.size == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(M)
    if s[0] == 0.0 and not scale:
        return np.eye(n)
    return vh[_cut_certificate(s, tol, scale or 0.0)[0]:]


def brackets(c: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Brackets of the rows of A with the rows of B: ``out[a,b,k] = A[a,i] B[b,j] c[i,j,k]``."""
    return np.matmul(B, np.tensordot(A, c, axes=(1, 0)))


def stack_span(*bases: np.ndarray) -> np.ndarray:
    """Row-stack several bases, skipping empty ones."""
    mats = [np.atleast_2d(b) for b in bases if np.asarray(b).size]
    if not mats:
        return np.zeros((0, 0))
    return np.vstack(mats)


def intersect_spans(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of span(A) ∩ span(B).

    Solves [A^T, -B^T] (u, v) = 0 and returns the A^T u side.
    """
    A = orth_rows(A, tol)
    B = orth_rows(B, tol)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1] if A.size else B.shape[1]))
    stacked = np.hstack([A.T, -B.T])
    ker = null_rows(stacked, tol)
    if ker.shape[0] == 0:
        return np.zeros((0, A.shape[1]))
    vecs = ker[:, : A.shape[0]] @ A
    return orth_rows(vecs, tol)


def complement_in(sub: np.ndarray, ambient: np.ndarray,
                  metric: np.ndarray | None = None) -> np.ndarray:
    """Basis (rows) of the orthocomplement of span(sub) inside span(ambient).

    With ``metric`` a symmetric positive-definite matrix G, orthogonality is
    taken in the G-inner product; otherwise Euclidean.
    """
    ambient = orth_rows(ambient)
    sub = np.atleast_2d(np.asarray(sub, dtype=float))
    if sub.size == 0 or numeric_rank(sub) == 0:
        return ambient
    if metric is None:
        gram = sub @ ambient.T
    else:
        gram = sub @ metric @ ambient.T
    coeffs = null_rows(gram)  # combinations of ambient rows orthogonal to sub
    if coeffs.shape[0] == 0:
        return np.zeros((0, ambient.shape[1]))
    return orth_rows(coeffs @ ambient)


def in_span(vecs: np.ndarray, basis: np.ndarray, tol: float = 1e-8) -> bool:
    """True if every row of ``vecs`` lies in span(basis), relative residual <= tol."""
    return span_residual(vecs, basis) <= tol


def span_residual(vecs: np.ndarray, basis: np.ndarray) -> float:
    """Relative residual of rows of ``vecs`` against span(basis)."""
    vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
    if vecs.size == 0:
        return 0.0
    scale = np.linalg.norm(vecs)
    if scale == 0.0:
        return 0.0
    Q = orth_rows(basis)
    return float(np.linalg.norm(vecs - vecs @ (Q.T @ Q)) / scale)


def signature_of(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return (0, 0)
    ev = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    scale = np.abs(ev).max()
    if scale == 0.0:
        return (0, 0)
    return int((ev > tol * scale).sum()), int((ev < -tol * scale).sum())
