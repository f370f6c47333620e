"""Octonion arithmetic, the signature-twisted 3x3 octonionic Jordan algebra,
and the exceptional algebras built from it.

The octonion table is Cayley-Dickson over the quaternions with
(a, b)(c, d) = (ac - d~ b, da + b c~), so that C = span{1, e1} and the
imaginary complement O_I has basis e2..e7.  As a complex line bundle
O_I = C j + C l + C n with j = e2, l = e4 and n = l j = -e6 (the sign of
n is the one the null-cone equation below forces).  The Jordan algebra W is the
space of 3x3 octonionic matrices Hermitian with respect to the signature
(+, +, -), with product x o y = (xy + yx)/2; its 52-dimensional derivation
algebra is the noncompact rank-one real form of f4 with maximal compact
so(9), realized here by matrices acting on the 26-dimensional trace-free
part V.  The projectivized null cone {x in V : x o x = 0} is the flag
manifold of that algebra.

g2 and f4 come from one solver, ``derivation_algebra``, applied to the
octonion table and to the Jordan tensor; it splits the derivation system
into the blocks that no equation links and solves each.  The f4 build is
cached to disk.  The cache (``CACHE_SCHEMA`` 4) holds only what the solve
and the embedding search produce: the derivation basis, the bases of the
eight subalgebras in ``F4_SUBALGEBRAS``, the two involutions and the
provenance, which carries the solve's rank margin.  The realization on V,
theta and the bracket are recomputed from the derivations on load.  A file
is used only if its schema and its hash of the multiplication tables
match and its derivations obey the Leibniz rule on fixed probe pairs; a
stale, malformed or altered file is rebuilt and overwritten.

Every f4 subalgebra is read through ``f4_subalgebra``, which checks closure
and the dimension in ``F4_SUBALGEBRAS`` and raises ``EmbeddingError``
otherwise.  The build raises too when a symmetric fixed algebra has the
wrong Killing signature or its involution does not commute with theta, so
no bundle carries a symmetric pair that failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ConstructionError, InputError, LieAlgebra, Subalgebra
from .linalg import _cut_certificate, numeric_rank, orth_rows, signature_of
from .realforms import _QT, _complex_basis_u, build_classical

SOLVER_TOL = 1e-9


class EmbeddingError(ConstructionError):
    """A candidate subalgebra failed to validate inside the ambient algebra."""


# -- octonions ---------------------------------------------------------------

def _octonion_table() -> np.ndarray:
    def qmul(x, y):
        return np.einsum("i,j,ijk->k", x, y, _QT)

    def qconj(x):
        return np.array([x[0], -x[1], -x[2], -x[3]])

    table = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for i in range(8):
        for j in range(8):
            a, b = eye[i][:4], eye[i][4:]
            c, d = eye[j][:4], eye[j][4:]
            table[i, j, :4] = qmul(a, c) - qmul(qconj(d), b)
            table[i, j, 4:] = qmul(d, a) + qmul(b, qconj(c))
    table.setflags(write=False)
    return table


OCT_TABLE = _octonion_table()


def omul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", a, b, OCT_TABLE)


def oconj(a: np.ndarray) -> np.ndarray:
    out = -np.asarray(a, dtype=float)
    out[..., 0] = a[..., 0]
    return out


@dataclass(frozen=True)
class Octonion:
    """An octonion over the basis {1, e1, ..., e7}."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (8,):
            raise InputError("octonion needs 8 coefficients")
        object.__setattr__(self, "coeffs", c)

    def __mul__(self, other: "Octonion") -> "Octonion":
        return Octonion(omul(self.coeffs, other.coeffs))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.coeffs + other.coeffs)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.coeffs)

    def conjugate(self) -> "Octonion":
        return Octonion(oconj(self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @staticmethod
    def unit(i: int) -> "Octonion":
        c = np.zeros(8)
        c[i] = 1.0
        return Octonion(c)


# -- the twisted Jordan algebra ----------------------------------------------
#
# Coordinates on W (dim 27): (alpha1, alpha2, alpha3, c1[0:8], c2[0:8], c3[0:8])
# with the matrix pattern
#   [[a1,   c3,  -c2~], [c3~,  a2,  c1], [c2,  -c1~,  a3]].

W_DIM = 27


def _coords_to_matrix(w: np.ndarray) -> np.ndarray:
    """(3, 3, 8) octonion matrix of a 27-vector, or a stack of them for a stack of vectors."""
    w = np.asarray(w, dtype=float)
    M = np.zeros(w.shape[:-1] + (3, 3, 8))
    M[..., 0, 0, 0], M[..., 1, 1, 0], M[..., 2, 2, 0] = w[..., 0], w[..., 1], w[..., 2]
    c1, c2, c3 = w[..., 3:11], w[..., 11:19], w[..., 19:27]
    M[..., 1, 2, :], M[..., 2, 1, :] = c1, -oconj(c1)
    M[..., 2, 0, :], M[..., 0, 2, :] = c2, -oconj(c2)
    M[..., 0, 1, :], M[..., 1, 0, :] = c3, oconj(c3)
    return M


def _matrix_to_coords(M: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse of ``_coords_to_matrix``; raises unless every matrix has the pattern."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-3, -2, -1)))
    dev = np.max([np.linalg.norm(M[..., 1, 0, :] - oconj(M[..., 0, 1, :]), axis=-1),
                  np.linalg.norm(M[..., 2, 1, :] + oconj(M[..., 1, 2, :]), axis=-1),
                  np.linalg.norm(M[..., 0, 2, :] + oconj(M[..., 2, 0, :]), axis=-1),
                  np.abs(M[..., [0, 1, 2], [0, 1, 2], 1:]).max(axis=(-2, -1))], axis=0)
    if (dev > tol * scale).any():
        raise ConstructionError("matrix does not have the twisted Hermitian pattern")
    return np.concatenate([M[..., [0, 1, 2], [0, 1, 2], 0], M[..., 1, 2, :],
                           M[..., 2, 0, :], M[..., 0, 1, :]], axis=-1)


def _oct_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (A B)_ik = sum_j A_ij * B_jk with octonion entry products; leading axes broadcast
    return np.einsum("...ijqr,...jkq->...ikr", np.tensordot(A, OCT_TABLE, axes=(-1, 0)), B)


def jordan_coords(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """x o y = (xy + yx)/2 on 27-coordinates."""
    A, B = _coords_to_matrix(wx), _coords_to_matrix(wy)
    return _matrix_to_coords((_oct_matmul(A, B) + _oct_matmul(B, A)) / 2.0)


@lru_cache(maxsize=1)
def jordan_tensor() -> np.ndarray:
    """Bilinear table P[a, b, :] = e_a o e_b on the 27 coordinates.

    Built from the stacked basis matrices; every entry is an exact small dyadic
    sum, so the table equals the one ``jordan_coords`` gives pair by pair.
    """
    E = _coords_to_matrix(np.eye(W_DIM))                          # [a, i, j, p]
    prod = _oct_matmul(E[:, None], E)                              # e_a e_b
    P = _matrix_to_coords((prod + prod.transpose(1, 0, 2, 3, 4)) / 2.0)
    P.setflags(write=False)
    return P


@dataclass
class JordanElement:
    """Element of the twisted Jordan algebra: 3 reals and 3 octonions."""

    diag: np.ndarray
    off: np.ndarray          # rows c1, c2, c3

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float).reshape(3)
        self.off = np.asarray(self.off, dtype=float).reshape(3, 8)

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.diag, self.off.ravel()])

    @staticmethod
    def from_coords(w: np.ndarray) -> "JordanElement":
        w = np.asarray(w, dtype=float).reshape(W_DIM)
        return JordanElement(w[:3], w[3:].reshape(3, 8))

    def trace(self) -> float:
        return float(self.diag.sum())

    @staticmethod
    def identity() -> "JordanElement":
        return JordanElement(np.ones(3), np.zeros((3, 8)))


def jordan_mul(x: JordanElement, y: JordanElement) -> JordanElement:
    P = jordan_tensor()
    return JordanElement.from_coords(np.einsum("a,b,abc->c", x.coords, y.coords, P))


def trace_form(wx: np.ndarray, wy: np.ndarray) -> float:
    """tr(x o y) on coordinates."""
    P = jordan_tensor()
    prod = np.einsum("a,b,abc->c", wx, wy, P)
    return float(prod[:3].sum())


# -- cone points --------------------------------------------------------------

@dataclass
class ConePoint:
    """A trace-free null element x (x o x = 0, x != 0), up to real scale."""

    x: JordanElement

    @property
    def w(self) -> np.ndarray:
        return self.x.coords

    def complex_part_norm(self) -> float:
        """Norm of the components along C = span{1, e1} plus the diagonal."""
        w = self.w
        idx = [0, 1, 2, 3, 4, 11, 12, 19, 20]
        return float(np.linalg.norm(w[idx]))


def cone_point(c1: Octonion | np.ndarray, c2: Octonion | np.ndarray,
               tol: float = 1e-10) -> ConePoint:
    """The null element with diag (|c2|^2, |c1|^2, -1) and c3 = -c2~ c1~.

    Requires |c1|^2 + |c2|^2 = 1.  The off-diagonal entries then satisfy
    c1 c2 = -c3~ (equivalently c3 = -conj(c1 c2)).
    """
    c1 = c1.coeffs if isinstance(c1, Octonion) else np.asarray(c1, dtype=float)
    c2 = c2.coeffs if isinstance(c2, Octonion) else np.asarray(c2, dtype=float)
    n1, n2 = float(c1 @ c1), float(c2 @ c2)
    if abs(n1 + n2 - 1.0) > tol:
        raise InputError(f"|c1|^2 + |c2|^2 must be 1, got {n1 + n2}")
    c3 = -oconj(omul(c1, c2))
    w = np.concatenate([[n2, n1, -1.0], c1, c2, c3])
    elem = JordanElement.from_coords(w)
    sq = jordan_coords(w, w)
    if np.linalg.norm(sq) > 1e-9 * max(1.0, float(w @ w)):
        raise ConstructionError("cone point does not square to zero")
    return ConePoint(x=elem)


def sample_cone_points(count: int, seed: int = 0) -> list[ConePoint]:
    """Seeded cone points from the unit sphere chart (c1, c2)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                                       spawn_key=(7,)))
    out = []
    for _ in range(count):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        out.append(cone_point(v[:8], v[8:]))
    return out


# -- derivation algebras -------------------------------------------------------

def _derivation_system(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Nonzeros (rows, cols, vals) and row count of the derivation system of ``table``.

    Row p n + e is component e of the Leibniz rule for the p-th pair a <= b, column i n + j
    is D[i, j]; a shared entry sums the three terms in order, and exact zeros are dropped.
    """
    n = table.shape[0]
    a, b = np.triu_indices(n)
    e = np.arange(n)[:, None]
    p, c = np.nonzero(table[a, b])                 # D[e, c] (e_a e_b)_c
    i2, p2, e2 = np.nonzero(table[:, b, :])        # D[i, a] (e_i e_b)_e
    p3, i3, e3 = np.nonzero(table[a])              # D[i, b] (e_a e_i)_e
    keys = np.concatenate([((p * n + e) * n + e) * n + c, (p2 * n + e2) * n * n + i2 * n + a[p2],
                           (p3 * n + e3) * n * n + i3 * n + b[p3]], axis=None)
    vals = np.concatenate([np.broadcast_to(table[a[p], b[p], c], (n, len(p))),
                           -table[i2, b[p2], e2], -table[a[p3], i3, e3]], axis=None)
    keys, where = np.unique(keys, return_inverse=True)
    total = np.bincount(where, weights=vals)       # adds in input order, from 0.0
    return *np.divmod(keys[total != 0], n * n), total[total != 0], a.size * n


def derivation_algebra(table: np.ndarray,
                       expected_dim: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Orthonormal basis, as (dim, n, n), of the derivations of a bilinear product,
    and the rank margin (s_r / s_1, s_{r+1} / s_1) of the system that defines them.

    ``table[a, b, :]`` is e_a e_b.  A derivation D satisfies
    D(e_a e_b) = D(e_a) e_b + e_a D(e_b) for a <= b, a sparse linear system A in
    the n^2 entries of D.  Two unknowns are linked when a row holds both, so A is
    block diagonal up to a permutation.  Each block is scattered from A's nonzeros
    into a dense array, rows and unknowns ascending; its null space comes from an
    SVD of R in block = QR, refined once.  The rank cut is SOLVER_TOL times s_1 of A.
    """
    n = table.shape[0]
    rows, cols, vals, n_rows = _derivation_system(table)
    label, old = np.arange(n * n), None       # smallest unknown linked to each unknown
    while not np.array_equal(label, old):
        old, low = label, np.full(n_rows, n * n)
        np.minimum.at(low, rows, label[cols])
        label = label.copy()
        np.minimum.at(label, cols, low[rows])
    blocks = []
    for k in np.unique(label):
        unknowns, inside = label == k, label[cols] == k
        at = np.unique(rows[inside], return_inverse=True)[1]
        block = np.zeros((at.max() + 1, unknowns.sum()))
        block[at, np.cumsum(unknowns)[cols[inside]] - 1] = vals[inside]
        R = np.linalg.qr(block, mode="r")
        blocks.append((unknowns, R, *np.linalg.svd(R)))
    s_all = np.sort(np.concatenate([s for *_, s, _ in blocks]))[::-1]
    _, upper, lower, ambiguous = _cut_certificate(s_all, SOLVER_TOL)
    if ambiguous:
        raise ConstructionError(f"derivation solve: rank cut is ambiguous (s_r/s_1 = "
                                f"{upper:.1e}, s_r+1/s_1 = {lower:.1e})")
    null_blocks = []
    for unknowns, R, u, s, vh in blocks:
        r = int((s > SOLVER_TOL * s_all[0]).sum())
        # one refinement step takes off the SVD's rounding along the row space, R^+ R v
        null = vh[r:] - vh[r:] @ R.T @ u[:, :r] / s[:r] @ vh[:r]
        null_blocks.append(np.zeros((len(null), n * n)))
        null_blocks[-1][:, unknowns] = null
    basis = np.vstack(null_blocks)
    if basis.shape[0] != expected_dim:
        raise ConstructionError(f"derivation solve yielded dim {basis.shape[0]}, "
                                f"expected {expected_dim}")
    return basis.reshape(-1, n, n), (upper, lower)


@lru_cache(maxsize=1)
def build_g2() -> LieAlgebra:
    """Der(O): 14-dimensional, compact, acting on the 8 octonion coordinates."""
    mats, _ = derivation_algebra(OCT_TABLE, 14)
    L = LieAlgebra(labels=tuple(f"G{i}" for i in range(14)), matrices=mats,
                   theta=np.eye(14), name="g2")
    sig = signature_of(L.killing)
    if sig != (0, 14):
        raise ConstructionError(f"g2 Killing signature {sig}, expected (0, 14)")
    return L


# -- f4 = derivations of W -----------------------------------------------------

def _trace_free_rows() -> np.ndarray:
    """Orthonormal rows spanning the trace-free part V inside W."""
    Q = np.zeros((26, W_DIM))
    Q[0, 0], Q[0, 1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    Q[1, 0] = Q[1, 1] = 1 / np.sqrt(6)
    Q[1, 2] = -2 / np.sqrt(6)
    Q[2:, 3:] = np.eye(24)
    return Q


def _sign_involution(d: tuple[float, float, float]) -> np.ndarray:
    """Coordinate action on W of conjugation by diag(d) (d entries +-1)."""
    sv = np.ones(W_DIM)
    sv[3:11] = d[1] * d[2]
    sv[11:19] = d[2] * d[0]
    sv[19:27] = d[0] * d[1]
    return sv


_CAYLEY_VEC = np.ones(W_DIM)
for _blk in range(3):
    _CAYLEY_VEC[3 + 8 * _blk + 4: 3 + 8 * _blk + 8] = -1.0

_THETA_VEC = _sign_involution((1.0, 1.0, -1.0))
_H1_VEC = _sign_involution((1.0, -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class F4Bundle:
    """The f4 algebra plus the Jordan-level data its embeddings need.

    ``derivations`` holds one 27x27 matrix per basis element (the action
    on W); the LieAlgebra's own realization is the restriction to V.
    Subalgebra bases are row-stacked coefficient vectors against the f4
    basis.
    """

    algebra: LieAlgebra
    derivations: np.ndarray                  # (52, 27, 27)
    subalgebras: dict[str, np.ndarray]       # every key of F4_SUBALGEBRAS
    involutions: dict[str, np.ndarray]       # coefficient matrices on f4
    provenance: dict

    def derivation_of(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("i,ijk->jk", np.asarray(coeffs, dtype=float), self.derivations)


def _solve_der_w() -> tuple[np.ndarray, tuple[float, float]]:
    """Orthonormal basis of Der(W) as (52, 27, 27), and the solve's rank margin."""
    return derivation_algebra(jordan_tensor(), 52)


def _conjugation_matrix(derivs: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Coefficient matrix of D -> s D s for a diagonal coordinate involution s."""
    flat = derivs.reshape(52, -1)
    conj = (derivs * vec[None, None, :]) * vec[None, :, None]
    return (conj.reshape(52, -1) @ flat.T).T


def _complex_conjugation_derivation(Zr: np.ndarray, Zi: np.ndarray) -> np.ndarray:
    """x -> Zx - xZ on W coordinates, Z = Zr + Zi e1 a complex 3x3 matrix."""
    X = _coords_to_matrix(np.eye(W_DIM))                          # column a is X[a]
    Z = np.zeros((3, 3, 8))
    Z[:, :, 0], Z[:, :, 1] = Zr, Zi
    return _matrix_to_coords(_oct_matmul(Z, X) - _oct_matmul(X, Z)).T


def _lift_octonion_derivation(D8: np.ndarray) -> np.ndarray:
    """Entrywise action of an octonion derivation on W (kills the diagonal)."""
    M = np.zeros((W_DIM, W_DIM))
    for blk in range(3):
        sl = slice(3 + 8 * blk, 11 + 8 * blk)
        M[sl, sl] = D8
    return M


def _table_hash() -> str:
    h = hashlib.sha256()
    h.update(OCT_TABLE.tobytes())
    h.update(jordan_tensor().tobytes())
    h.update(np.float64(SOLVER_TOL).tobytes())
    return h.hexdigest()


CACHE_SCHEMA = 4
# every subalgebra a bundle carries, by key, with its dimension
F4_SUBALGEBRAS = {"g2": 14, "su3": 8, "su21": 8, "so12": 3, "su21+su3": 16, "so12+g2": 17,
                  "so(1,8)": 36, "sp(1,2)+sp(1)": 24}
# the fixed algebras of the two involutions, with their Killing signatures
_SYMMETRIC = {"so(1,8)": (8, 28), "sp(1,2)+sp(1)": (8, 16)}


def cache_path() -> Path:
    env = os.environ.get("REALFLAG_CACHE_DIR")
    if env:
        return Path(env) / "f4.json"
    return Path(os.environ.get("XDG_CACHE_HOME", str(Path.home() / ".cache"))) / "realflag" / "f4.json"


def _f4_algebra(derivs: np.ndarray) -> LieAlgebra:
    """f4 restricted to V, with theta from conjugation by diag(1, 1, -1).

    Q D Q^T (Q the trace-free rows) sums each row's at most three nonzeros in einsum's order.
    """
    theta = _conjugation_matrix(derivs, _THETA_VEC)
    Q = _trace_free_rows()
    col = np.argsort(Q == 0, axis=1, kind="stable")[:, :3]    # nonzero columns first
    w = np.take_along_axis(Q, col, axis=1)
    mats = np.zeros((len(derivs), len(Q), len(Q)))            # C order, unlike the terms
    for s, t in np.ndindex(3, 3):
        mats += w[:, s, None] * derivs[:, col[:, s, None], col[None, :, t]] * w[None, :, t]
    return LieAlgebra(labels=tuple(f"D{i}" for i in range(52)), matrices=mats,
                      theta=theta, name="f4")


def _build_bundle() -> F4Bundle:
    t0 = time.perf_counter()
    derivs, margin = _solve_der_w()
    L = _f4_algebra(derivs)

    sig = signature_of(L.killing)
    if sig != (16, 36):
        raise ConstructionError(f"f4 Killing signature {sig}, expected (16, 36)")

    subalgebras: dict[str, np.ndarray] = {}
    flat = derivs.reshape(52, -1)

    def coeffs_of(mats27: list[np.ndarray], what: str) -> np.ndarray:
        rows = []
        for D in mats27:
            co = D.ravel() @ flat.T
            resid = np.linalg.norm(co @ flat - D.ravel())
            if resid > 1e-7 * max(1.0, np.linalg.norm(D)):
                raise EmbeddingError(f"{what}: candidate map is not a derivation "
                                     f"(residual {resid:.2e})")
            rows.append(co)
        return orth_rows(np.array(rows))

    # g2 entrywise and its complex-commutant su(3)
    g2 = build_g2()
    g2_lift = coeffs_of([_lift_octonion_derivation(D) for D in g2.matrices], "g2 lift")
    L1 = OCT_TABLE[1].T                          # left multiplication by e1
    commute = np.array([(D @ L1 - L1 @ D).ravel() for D in g2.matrices])
    uu, ss, _ = np.linalg.svd(commute)
    r = int((ss > 1e-9 * ss[0]).sum())
    su3_coeff = uu[:, r:].T
    su3_lift = coeffs_of([_lift_octonion_derivation(np.einsum("i,ijk->jk", v, g2.matrices))
                          for v in su3_coeff], "su3 lift")
    if su3_lift.shape[0] != 8:
        raise EmbeddingError(f"su(3) commutant has dim {su3_lift.shape[0]}, expected 8")

    # su(2,1) and so(2,1) for the form diag(1, 1, -1)
    su21 = coeffs_of([_complex_conjugation_derivation(Z.real, Z.imag)
                      for Z in _complex_basis_u(2, 1, traceless=True)], "su(2,1) conjugation")
    so12 = coeffs_of([_complex_conjugation_derivation(R, np.zeros((3, 3)))
                      for R in build_classical("so", 2, 1).matrices], "so(1,2) conjugation")

    subalgebras["g2"] = g2_lift
    subalgebras["su3"] = su3_lift
    subalgebras["su21"] = su21
    subalgebras["so12"] = so12
    subalgebras["su21+su3"] = np.vstack([su21, su3_lift])
    subalgebras["so12+g2"] = np.vstack([so12, g2_lift])

    involutions = {
        "so(1,8)": _conjugation_matrix(derivs, _H1_VEC),
        "sp(1,2)+sp(1)": _conjugation_matrix(derivs, _CAYLEY_VEC),
    }
    for name, sigma in involutions.items():
        ev, V = np.linalg.eigh((sigma + sigma.T) / 2.0)
        subalgebras[name] = V[:, ev > 0.5].T

    provenance = {
        "table_hash": _table_hash(),
        "solver_tol": SOLVER_TOL,
        "solver_margin": list(margin),
        "build_seconds": round(time.perf_counter() - t0, 3),
    }
    bundle = F4Bundle(algebra=L, derivations=derivs, subalgebras=subalgebras,
                      involutions=involutions, provenance=provenance)
    for name, expected_sig in _SYMMETRIC.items():
        fixed = f4_subalgebra(bundle, name).basis
        sig = signature_of(fixed @ L.killing @ fixed.T)
        if sig != expected_sig:
            raise EmbeddingError(f"{name}: Killing signature {sig}, expected {expected_sig}")
        # the involution must commute with theta so the fixed algebra is theta-stable
        sigma = involutions[name]
        if np.linalg.norm(sigma @ L.theta - L.theta @ sigma) >= 1e-8 * 52:
            raise EmbeddingError(f"{name}: involution does not commute with theta")
    return bundle


def _save_bundle(bundle: F4Bundle, path: Path) -> None:
    doc = {
        "schema": CACHE_SCHEMA,
        "provenance": bundle.provenance,
        "derivations": bundle.derivations.reshape(52, -1).tolist(),
        "subalgebras": {k: v.tolist() for k, v in bundle.subalgebras.items()},
        "involutions": {k: v.tolist() for k, v in bundle.involutions.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _matrix(data, rows: int, cols: int) -> np.ndarray:
    """A float matrix of shape (rows, cols)."""
    arr = np.array(data, dtype=float)
    if arr.shape != (rows, cols):
        raise ValueError(f"cached array has shape {arr.shape}")
    return arr


def _leibniz_residual(derivs: np.ndarray) -> float:
    """Relative residual of D(x o y) = Dx o y + x o Dy over all D and three fixed pairs
    (sines of integers: every coordinate nonzero, and no numpy.random import on load)."""
    X, Y = np.sin(np.arange(1, 6 * W_DIM + 1)).reshape(2, 3, W_DIM)
    xo, oy = np.tensordot(X, jordan_tensor(), (1, 0)), np.tensordot(Y, jordan_tensor(), (1, 1))
    lhs = derivs @ np.matmul(Y[:, None], xo)[:, 0].T                   # [D, k, t]
    rhs = (np.matmul((derivs @ X.T).transpose(2, 0, 1), oy)
           + np.matmul((derivs @ Y.T).transpose(2, 0, 1), xo)).transpose(1, 2, 0)
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())


def _load_bundle(path: Path) -> Optional[F4Bundle]:
    """The cached bundle, or None if the file is missing, stale or malformed."""
    try:
        doc = json.loads(path.read_text())
        if doc["schema"] != CACHE_SCHEMA or doc["provenance"]["table_hash"] != _table_hash():
            return None
        derivs = _matrix(doc["derivations"], 52, W_DIM * W_DIM).reshape(52, W_DIM, W_DIM)
        subalgebras = {k: _matrix(doc["subalgebras"][k], dim, 52)
                       for k, dim in F4_SUBALGEBRAS.items()}
        involutions = {k: _matrix(doc["involutions"][k], 52, 52) for k in _SYMMETRIC}
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None
    if not _leibniz_residual(derivs) <= 1e-12:      # about 5e-16 on a sound file; NaN fails
        return None
    return F4Bundle(algebra=_f4_algebra(derivs), derivations=derivs, subalgebras=subalgebras,
                    involutions=involutions, provenance=doc["provenance"])


_BUNDLE: Optional[F4Bundle] = None


def f4_bundle(rebuild: bool = False) -> F4Bundle:
    """The cached f4 construction (built once per process, persisted to disk)."""
    global _BUNDLE
    if _BUNDLE is not None and not rebuild:
        return _BUNDLE
    path = cache_path()
    bundle = None if rebuild else _load_bundle(path)
    if bundle is None:
        bundle = _build_bundle()
        _save_bundle(bundle, path)
    _BUNDLE = bundle
    return bundle


def build_f4() -> LieAlgebra:
    """The 52-dimensional noncompact f4, realized on the 26-dimensional V."""
    return f4_bundle().algebra


# -- subalgebras ---------------------------------------------------------------

def f4_subalgebra(bundle: F4Bundle, key: str) -> Subalgebra:
    """The bundle's subalgebra ``key`` of ``F4_SUBALGEBRAS``, named by its key.

    Raises EmbeddingError unless it has the table's dimension and is closed
    under the bracket to 1e-7.
    """
    sub = Subalgebra(bundle.algebra, bundle.subalgebras[key], name=key)
    if sub.dim != F4_SUBALGEBRAS[key]:
        raise EmbeddingError(f"{key} has dim {sub.dim}, expected {F4_SUBALGEBRAS[key]}")
    try:
        sub.validate(1e-7)
    except InputError as exc:
        raise EmbeddingError(str(exc)) from exc
    return sub


# -- projective cone geometry ---------------------------------------------------

def derivation_images(bundle: F4Bundle, h_basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows D_a(x) for a basis of a subalgebra (coefficients against f4) at x = w."""
    acts = np.einsum("ai,ijk->ajk", np.atleast_2d(h_basis), bundle.derivations)
    return acts @ w


def projective_orbit_dim(bundle: F4Bundle, h_basis: np.ndarray, point: ConePoint,
                         tol: float = 1e-9) -> int:
    """Orbit dimension of the subalgebra through [x] in P(V)."""
    w = point.w
    images = derivation_images(bundle, h_basis, w)
    stacked = np.vstack([images, w.reshape(1, -1)])
    return numeric_rank(stacked, tol) - 1


def projective_stabilizer_dim(bundle: F4Bundle, h_basis: np.ndarray, point: ConePoint,
                              tol: float = 1e-9) -> int:
    """Dimension of {D in h : D x in R x} at [x]."""
    h_basis = np.atleast_2d(h_basis)
    return h_basis.shape[0] - projective_orbit_dim(bundle, h_basis, point, tol)
