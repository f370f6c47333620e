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
so(9).  The projectivized null cone {x in V : x o x = 0}, V the trace-free
part of W, is the flag manifold of that algebra.

g2 and f4 come from one solver, ``derivation_algebra``, applied to the
octonion table and to the Jordan tensor; it splits the derivation system
into the blocks that no equation links, solves each, and returns the exact
dyadic RREF basis of the solutions.  f4 is realized by those 27x27
derivations of W: its pivot block is the identity, so its bracket, theta
and the two involutions, all read at the pivot entries (``core.LieAlgebra``),
are exact gathers.  The f4 build is cached to disk.  The cache
(``CACHE_SCHEMA`` 7) holds what the solve and the embedding search produce:
the derivation basis, the bases of the eight subalgebras in
``F4_SUBALGEBRAS`` and the provenance, which carries the solve's rank
margin, each array as its nonzero entries (``core.to_entries``).  The
bracket, theta and the involutions are recomputed on load.  A file is used
only if its schema and its hash of the multiplication tables match, every
array decodes (``core.from_entries``), every derivation entry lies in 1/2 Z,
the derivations obey the Leibniz rule exactly on fixed integer probes, and
they are independent and close under commutators; a stale, malformed or
altered file is rebuilt and overwritten.

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

from .core import (ConstructionError, InputError, LieAlgebra, Subalgebra, from_entries,
                   read_json, to_entries)
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


def _matrix_to_coords(M: np.ndarray) -> np.ndarray:
    """Inverse of ``_coords_to_matrix``; raises unless every matrix has the pattern."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-3, -2, -1)))
    dev = np.max([np.linalg.norm(M[..., 1, 0, :] - oconj(M[..., 0, 1, :]), axis=-1),
                  np.linalg.norm(M[..., 2, 1, :] + oconj(M[..., 1, 2, :]), axis=-1),
                  np.linalg.norm(M[..., 0, 2, :] + oconj(M[..., 2, 0, :]), axis=-1),
                  np.abs(M[..., [0, 1, 2], [0, 1, 2], 1:]).max(axis=(-2, -1))], axis=0)
    if (dev > 1e-9 * scale).any():
        raise ConstructionError("matrix does not have the twisted Hermitian pattern")
    return np.concatenate([M[..., [0, 1, 2], [0, 1, 2], 0], M[..., 1, 2, :],
                           M[..., 2, 0, :], M[..., 0, 1, :]], axis=-1)


def _oct_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (A B)_ik = sum_j A_ij * B_jk with octonion entry products; leading axes broadcast
    return np.einsum("...ijqr,...jkq->...ikr", np.tensordot(A, OCT_TABLE, axes=(-1, 0)), B)


@lru_cache(maxsize=1)
def jordan_tensor() -> np.ndarray:
    """Bilinear table P[a, b, :] = e_a o e_b on the 27 coordinates.

    The products e_a e_b of the stacked basis matrices sum over (j, q) in one matmul of 27
    (24, 24) @ (24, 81) blocks, one per a: each block is too small for BLAS to hand to its
    threads, which on two shared cores stall a single (648, 24) @ (24, 81) product for
    milliseconds.  Every entry is an exact small dyadic sum, so the table equals the one
    pairwise matrix products give.
    """
    E = _coords_to_matrix(np.eye(W_DIM))                          # [a, i, j, q]
    left = np.tensordot(E, OCT_TABLE, axes=(-1, 0)).transpose(0, 1, 4, 2, 3)   # [a, i, r, j, q]
    prod = left.reshape(W_DIM, -1, 24) @ E.transpose(1, 3, 0, 2).reshape(24, -1)
    prod = prod.reshape(W_DIM, 3, 8, W_DIM, 3).transpose(0, 3, 1, 4, 2)       # e_a e_b [a, b, i, k, r]
    P = _matrix_to_coords((prod + prod.transpose(1, 0, 2, 3, 4)) / 2.0)
    P.setflags(write=False)
    return P


def jordan_product(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """x o y on 27-coordinates: two matrix-vector products with the Jordan tensor."""
    return wy @ (wx @ jordan_tensor().reshape(W_DIM, -1)).reshape(W_DIM, W_DIM)


def trace_form(wx: np.ndarray, wy: np.ndarray) -> float:
    """tr(x o y) on coordinates."""
    return float(jordan_product(wx, wy)[:3].sum())


# -- cone points --------------------------------------------------------------

def complex_part_norm(w: np.ndarray) -> float:
    """Norm of the components of a 27-vector along C = span{1, e1} plus the diagonal."""
    return float(np.linalg.norm(w[[0, 1, 2, 3, 4, 11, 12, 19, 20]]))


def cone_point(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The trace-free null 27-vector w (w o w = 0) with diag (|c2|^2, |c1|^2, -1) and
    c3 = -c2~ c1~.

    Requires |c1|^2 + |c2|^2 = 1.  The off-diagonal entries then satisfy
    c1 c2 = -c3~ (equivalently c3 = -conj(c1 c2)).
    """
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    n1, n2 = float(c1 @ c1), float(c2 @ c2)
    if abs(n1 + n2 - 1.0) > 1e-10:
        raise InputError(f"|c1|^2 + |c2|^2 must be 1, got {n1 + n2}")
    c3 = -oconj(omul(c1, c2))
    w = np.concatenate([[n2, n1, -1.0], c1, c2, c3])
    sq = jordan_product(w, w)
    if np.linalg.norm(sq) > 1e-9 * max(1.0, float(w @ w)):
        raise ConstructionError("cone point does not square to zero")
    return w


def sample_cone_points(count: int, seed: int = 0) -> np.ndarray:
    """Seeded cone points from the unit sphere chart (c1, c2), as a (count, 27) array."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                                       spawn_key=(7,)))
    out = np.zeros((count, W_DIM))
    for row in out:
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        row[:] = cone_point(v[:8], v[8:])
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


def _rref(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form of independent rows, by elimination with partial pivoting;
    a column whose remaining entries are all at most SOLVER_TOL is not a pivot column."""
    R, top = rows.copy(), 0
    for col in range(R.shape[1]):
        if top == len(R):
            break
        p = top + np.abs(R[top:, col]).argmax()
        if abs(R[p, col]) > SOLVER_TOL:
            R[[top, p]] = R[[p, top]]
            R[top] /= R[top, col]
            others = np.arange(len(R)) != top
            R[others] -= np.outer(R[others, col], R[top])
            top += 1
    return R


def derivation_algebra(table: np.ndarray,
                       expected_dim: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Exact basis, as (dim, n, n), of the derivations of a bilinear product with dyadic
    entries, and the rank margin (s_r / s_1, s_{r+1} / s_1) of the system that defines them.

    ``table[a, b, :]`` is e_a e_b.  A derivation D satisfies
    D(e_a e_b) = D(e_a) e_b + e_a D(e_b) for a <= b, a sparse linear system A in
    the n^2 entries of D.  Two unknowns are linked when a row holds both, so A is
    block diagonal up to a permutation.  Each block is scattered from A's nonzeros
    into a dense array, rows and unknowns ascending; its null space comes from an
    SVD of R in block = QR, cut at SOLVER_TOL times s_1 of A.  The basis is the reduced
    row echelon form (RREF) of each block's null space, blocks in the order of their
    smallest unknown, with every entry rounded to a multiple of 1/2.  It is accepted only
    if every block annihilates it exactly and it has ``expected_dim`` rows; the octonion
    table gives entries in {0, +-1}, the Jordan tensor entries in {0, +-1/2, +-1}.
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
    for k in np.flatnonzero(label == np.arange(n * n)):   # one representative per block
        unknowns, inside = label == k, label[cols] == k
        # an unknown in no equation is a block with no rows: its own null direction
        held, at = np.unique(rows[inside], return_inverse=True)
        block = np.zeros((held.size, unknowns.sum()))
        block[at, np.cumsum(unknowns)[cols[inside]] - 1] = vals[inside]
        _, s, vh = np.linalg.svd(np.linalg.qr(block, mode="r"))
        blocks.append((unknowns, block, s, vh))
    s_all = np.sort(np.concatenate([s for *_, s, _ in blocks]))[::-1]
    _, upper, lower, ambiguous = _cut_certificate(s_all, SOLVER_TOL)
    if ambiguous:
        raise ConstructionError(f"derivation solve: rank cut is ambiguous (s_r/s_1 = "
                                f"{upper:.1e}, s_r+1/s_1 = {lower:.1e})")
    null_blocks = []
    for unknowns, block, s, vh in blocks:
        # with no equation (the zero product) there is no singular value and no cut
        null = _rref(vh[_cut_certificate(s, SOLVER_TOL, s_all.max(initial=0.0))[0]:])
        null = np.round(2.0 * null) / 2.0 + 0.0                # + 0.0 turns a -0.0 into 0.0
        if (block @ null.T).any():
            raise ConstructionError("derivation solve: the rounded basis does not solve "
                                    "its block exactly")
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

    The algebra is realized by its derivations of W, one 27x27 matrix per
    basis element.  Subalgebra bases and involutions are coefficient rows
    and matrices against the f4 basis.
    """

    algebra: LieAlgebra
    subalgebras: dict[str, np.ndarray]       # every key of F4_SUBALGEBRAS
    involutions: dict[str, np.ndarray]       # every key of _SYMMETRIC
    provenance: dict

    @property
    def derivations(self) -> np.ndarray:
        """(52, 27, 27): the derivation basis of W, the algebra's realization."""
        return self.algebra.matrices

    def derivation_of(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=float), self.derivations, axes=1)


def _solve_der_w() -> tuple[np.ndarray, tuple[float, float]]:
    """The RREF basis of Der(W) as (52, 27, 27), and the solve's rank margin."""
    return derivation_algebra(jordan_tensor(), 52)


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


CACHE_SCHEMA = 7
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


def _f4_algebra(derivs: np.ndarray) -> tuple[LieAlgebra, dict[str, np.ndarray]]:
    """f4 realized by ``derivs``, with theta from conjugation by diag(1, 1, -1), and the
    involutions of ``_SYMMETRIC``; each is D -> s D s for a coordinate sign vector s, read
    at the pivot entries, so on the RREF basis it is a diagonal sign matrix."""
    L = LieAlgebra(labels=tuple(f"D{i}" for i in range(52)), matrices=derivs, name="f4")
    s = np.array([_THETA_VEC, _H1_VEC, _CAYLEY_VEC])[:, None]         # (3, 1, 27)
    read = L.coefficients_of(derivs * (s[..., None] * s[:, :, None])).reshape(3, 52, 52)
    theta, *sigmas = read.transpose(0, 2, 1)
    L._set_theta(theta)
    return L, dict(zip(_SYMMETRIC, sigmas))


def _build_bundle() -> F4Bundle:
    t0 = time.perf_counter()
    derivs, margin = _solve_der_w()
    L, involutions = _f4_algebra(derivs)

    sig = signature_of(L.killing)
    if sig != (16, 36):
        raise ConstructionError(f"f4 Killing signature {sig}, expected (16, 36)")

    def coeffs_of(mats27: list[np.ndarray], what: str) -> np.ndarray:
        try:
            return orth_rows(L.coefficients_of(np.array(mats27)))
        except InputError as exc:
            raise EmbeddingError(f"{what}: candidate map is not a derivation ({exc})") from exc

    # g2 entrywise and its complex-commutant su(3)
    g2 = build_g2()
    g2_lift = coeffs_of([_lift_octonion_derivation(D) for D in g2.matrices], "g2 lift")
    L1 = OCT_TABLE[1].T                          # left multiplication by e1
    commute = np.array([(D @ L1 - L1 @ D).ravel() for D in g2.matrices])
    uu, ss, _ = np.linalg.svd(commute)
    su3_coeff = uu[:, _cut_certificate(ss, 1e-9)[0]:].T
    su3_lift = coeffs_of([_lift_octonion_derivation(np.einsum("i,ijk->jk", v, g2.matrices))
                          for v in su3_coeff], "su3 lift")
    if su3_lift.shape[0] != 8:
        raise EmbeddingError(f"su(3) commutant has dim {su3_lift.shape[0]}, expected 8")

    # su(2,1) and so(2,1) for the form diag(1, 1, -1)
    su21 = coeffs_of([_complex_conjugation_derivation(Z.real, Z.imag)
                      for Z in _complex_basis_u(2, 1, traceless=True)], "su(2,1) conjugation")
    so12 = coeffs_of([_complex_conjugation_derivation(R, np.zeros((3, 3)))
                      for R in build_classical("so", 2, 1).matrices], "so(1,2) conjugation")

    subalgebras = {"g2": g2_lift, "su3": su3_lift, "su21": su21, "so12": so12,
                   "su21+su3": np.vstack([su21, su3_lift]), "so12+g2": np.vstack([so12, g2_lift])}
    for name, sigma in involutions.items():
        ev, V = np.linalg.eigh((sigma + sigma.T) / 2.0)
        subalgebras[name] = V[:, ev > 0.5].T

    provenance = {
        "table_hash": _table_hash(),
        "solver_tol": SOLVER_TOL,
        "solver_margin": list(margin),
        "build_seconds": round(time.perf_counter() - t0, 3),
    }
    bundle = F4Bundle(algebra=L, subalgebras=subalgebras, involutions=involutions,
                      provenance=provenance)
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
    """Write the derivations, the subalgebras (each as its nonzero entries,
    ``core.to_entries``) and the provenance."""
    doc = {
        "schema": CACHE_SCHEMA,
        "provenance": bundle.provenance,
        "derivations": to_entries(bundle.derivations),
        "subalgebras": {k: to_entries(v) for k, v in bundle.subalgebras.items()},
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


def _leibniz_defect(derivs: np.ndarray) -> float:
    """Largest |D(x o y) - Dx o y - x o Dy| over all D and three fixed pairs of integer
    vectors.  With the Jordan tensor's entries and those of ``derivs`` in 1/2 Z, every term
    is a small multiple of 1/4 and every sum is exact, so a derivation gives exactly 0."""
    X, Y = (1.0 + np.arange(6 * W_DIM) % 7).reshape(2, 3, W_DIM)
    xo, oy = np.tensordot(X, jordan_tensor(), (1, 0)), np.tensordot(Y, jordan_tensor(), (1, 1))
    lhs = derivs @ np.matmul(Y[:, None], xo)[:, 0].T                   # [D, k, t]
    rhs = (np.matmul((derivs @ X.T).transpose(2, 0, 1), oy)
           + np.matmul((derivs @ Y.T).transpose(2, 0, 1), xo)).transpose(1, 2, 0)
    return float(np.abs(lhs - rhs).max())


def _load_bundle(path: Path) -> Optional[F4Bundle]:
    """The cached bundle, or None if the file is missing, stale or malformed, or its
    derivations are not exact: an entry outside 1/2 Z, a nonzero Leibniz defect, or
    dependent or unclosed matrices."""
    try:
        doc = read_json(path)
        if doc["schema"] != CACHE_SCHEMA or doc["provenance"]["table_hash"] != _table_hash():
            return None
        derivs = from_entries(doc["derivations"], (52, W_DIM, W_DIM))
        subalgebras = {k: from_entries(doc["subalgebras"][k], (dim, 52))
                       for k, dim in F4_SUBALGEBRAS.items()}
        if not (np.array_equal(2.0 * derivs, np.round(2.0 * derivs))
                and _leibniz_defect(derivs) == 0.0):
            return None
        L, involutions = _f4_algebra(derivs)
        L.bracket_tensor                   # the probe check that the commutators close
    except (OSError, ValueError, TypeError, KeyError, AttributeError, ConstructionError):
        return None
    return F4Bundle(algebra=L, subalgebras=subalgebras, involutions=involutions,
                    provenance=doc["provenance"])


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
    return np.atleast_2d(h_basis) @ (bundle.derivations @ w)


def projective_orbit_dim(bundle: F4Bundle, h_basis: np.ndarray, w: np.ndarray) -> int:
    """Orbit dimension of the subalgebra through [x] in P(V), x = w a cone point."""
    images = derivation_images(bundle, h_basis, w)
    return numeric_rank(np.vstack([images, w.reshape(1, -1)])) - 1


def projective_stabilizer_dim(bundle: F4Bundle, h_basis: np.ndarray, w: np.ndarray) -> int:
    """Dimension of {D in h : D x in R x} at [x], x = w a cone point."""
    h_basis = np.atleast_2d(h_basis)
    return h_basis.shape[0] - projective_orbit_dim(bundle, h_basis, w)
