"""Independent brute-force oracles used by the tests.

The Jacobi oracle checks random coefficient triples.  The rank oracles are
the stacked-matrix formulas that ``spherical.chart_rank`` replaced:
dim(h + Ad(x) p) as the rank of the (dim h + dim p, dim g) stack, and the
h-orbit dimension as dim h - dim(h ∩ Ad(x) p) through ``intersect_spans``.
The flow oracle discretizes the compact model of the flag manifold (the
projective line as a half-circle, the light-cone sphere S^2 as a lat-long
grid), evaluates the subalgebra's vector fields at every node, and counts
connected components of the equal-orbit-dimension strata.  For the
rank-one pairs it is applied to this equals the orbit count.  It never
touches the library's orbit machinery.  The Jordan oracle multiplies two
elements as twisted Hermitian octonion matrices, one pair at a time.  The
alpha-line oracle is the float matching of root vectors that the integer
simple-root coordinates replaced.  The contraction oracles are the dense forms
that ``LieAlgebra.killing`` and ``LieAlgebra.ad`` replaced: the Killing form
as one einsum over every structure constant, and ad(X) as the dense product
X @ c.  The slab oracles are the dense forms that the joins of
``core.validate_algebra`` replaced: the Jacobi identity one index slab at a
time and the matrix realization one commutator slab at a time.  The
symmetric-pair oracle builds, for each ``berger:`` row, the involution that
fixes its h, which the package itself never builds: conjugation by a sign or
unit diagonal for the classical rows, and the f4 build's own sign
conjugations for the f4 rows.  The classical oracles are the hand loops that
``realforms.classical_basis`` and ``realforms.realify`` replaced: one loop per
family over complex and quaternionic matrices, the complex basis of u(p,q),
the entrywise realifiers, the pairwise ``direct_sum`` that ``algebra_power``
folded, and the catalog's classical recipes written with them.
"""

from __future__ import annotations

import re

import numpy as np

from realflag import jordan
from realflag.core import LieAlgebra
from realflag.linalg import intersect_spans, numeric_rank, stack_span
from realflag.jordan import _coords_to_matrix, _matrix_to_coords, _oct_matmul
from realflag.realforms import _QT


def jordan_coords(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """x o y = (xy + yx)/2 on 27-coordinates, through the 3x3 octonion matrices."""
    A, B = _coords_to_matrix(wx), _coords_to_matrix(wy)
    return _matrix_to_coords((_oct_matmul(A, B) + _oct_matmul(B, A)) / 2.0)


def killing_einsum(c: np.ndarray) -> np.ndarray:
    """B(e_i, e_j) = tr(ad e_i ad e_j) as one einsum over all dim^3 constants, symmetrised."""
    B = np.einsum("ilk,jkl->ij", c, c)
    return (B + B.T) / 2.0


def ad_dense(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The matrix of ad(X), column j holding [X, e_j], as the dense product X @ c."""
    n = len(X)
    return (X @ c.reshape(n, n * n)).reshape(n, n).T


def jacobi_slabs(c: np.ndarray) -> float:
    """The largest |J(i, j, k)| over i < j, k, one slab of i at a time: for each i, the rows
    c[i, j] times the slices c[k] give [e_k, [e_i, e_j]], the same array with j and k
    swapped gives [[e_k, e_i], e_j], and c[j, k] @ c[i] gives -[[e_j, e_k], e_i]."""
    d, worst = len(c), 0.0
    for i in range(d - 2):
        s = slice(i + 1, None)
        r = c[i, s] @ c[s]
        worst = np.maximum(worst, np.abs(r - r.transpose(1, 0, 2) - c[s, s] @ c[i]).max())
    return worst


def realization_slabs(c: np.ndarray, mats: np.ndarray) -> float:
    """The largest |[M_i, M_j] - sum_k c[i, j, k] M_k| over i < j, one slab of i at a time."""
    d, worst = len(c), 0.0
    for i in range(d - 1):
        s = slice(i + 1, None)
        com = mats[i] @ mats[s] - mats[s] @ mats[i]
        worst = np.maximum(worst, np.abs(com - np.tensordot(c[i, s], mats, axes=(1, 0))).max())
    return worst


def jacobi_residual(L, triples: int = 1000, seed: int = 0) -> float:
    """Max relative Jacobi residual over random coefficient triples."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((triples, L.dim))
    Y = rng.standard_normal((triples, L.dim))
    Z = rng.standard_normal((triples, L.dim))
    c = L.bracket_tensor

    def bb(A, B):   # row t of the result is [A_t, B_t]
        return np.matmul(B[:, None], np.tensordot(A, c, axes=(1, 0)))[:, 0]

    jac = bb(X, bb(Y, Z)) + bb(Y, bb(Z, X)) + bb(Z, bb(X, Y))
    scale = max(np.linalg.norm(bb(X, bb(Y, Z)), axis=1).max(), 1e-30)
    return float(np.abs(jac).max() / scale)


def symmetric_involution(pd) -> np.ndarray:
    """The involution sigma of a ``berger:`` row's ambient that fixes its h, as the
    coefficient matrix whose column i is sigma(e_i).

    A classical row conjugates by a diagonal D, read through ``coefficients_of``: the signs
    diag(I_{m+1}, -I_{n-m}) of a block pair, each sign repeated over the 1, 2 or 4 real
    coordinates of an so, su or sp scalar; diag(1, -1, ...), complex conjugation, for
    so(1,n) in su(1,n); and the unit-i quaternion diagonal for u(1,n) in sp(1,n).  An f4
    row takes the build's sign conjugation D -> s D s.
    """
    g, (_, ambient, sub) = pd.g, pd.entry.name.split(":", 2)
    if ambient == "f4":
        signs = {"so(1,8)": jordan._H1_VEC, "sp(1,2)+sp(1)": jordan._CAYLEY_VEC}[sub]
        return jordan._sign_conjugations(g, signs)[0]
    fam, n = re.fullmatch(r"(so|su|sp)\(1,(\d+)\)", ambient).groups()
    n = int(n)
    if sub == f"so(1,{n})":
        D = np.diag([1.0, -1.0] * (n + 1))
    elif sub == f"u(1,{n})":
        D = realify_quaternion(unit_quat_diag(n + 1, 1))
    else:
        m = int(re.search(r"\(1,(\d+)\)", sub).group(1))
        width = {"so": 1, "su": 2, "sp": 4}[fam]
        D = np.diag(np.repeat([1.0] * (m + 1) + [-1.0] * (n - m), width))
    return g.coefficients_of(D @ g.matrices @ np.linalg.inv(D)).T


def _moved_p(g, P, word):
    """Rows of Ad(x) p, x a word."""
    return g.ad_group(word, P.p.basis, depth=P.roots.depth)


def stacked_local_dim(g, rows, P, word, tol: float = 1e-9) -> int:
    """dim(span(rows) + Ad(x) p) as the rank of the stacked rows."""
    return numeric_rank(stack_span(rows, _moved_p(g, P, word)), tol)


def intersect_orbit_dim(g, rows, P, word, tol: float = 1e-9) -> int:
    """dim span(rows) - dim(span(rows) ∩ Ad(x) p); rows independent."""
    return len(rows) - intersect_spans(rows, _moved_p(g, P, word), tol).shape[0]


def float_alpha_line(roots, alpha) -> tuple[list[int], list[int]]:
    """(Levi, nilradical) root indices of p_alpha for the simple root vector ``alpha``: a
    root is on the alpha-line when it lies within 1e-6 of c alpha, c in {1, 2, -1, -2}, and
    every other positive root is in the nilradical."""
    levi, nil = [], []
    for k, (vec, pos) in enumerate(zip(roots.root_vectors, roots.positive)):
        if any(np.linalg.norm(vec - c * alpha) < 1e-6 for c in (1, 2, -1, -2)):
            levi.append(k)
        elif pos:
            nil.append(k)
    return levi, nil


def circle_orbit_count(fields, nodes: int = 720, tol: float = 1e-9) -> int:
    """Orbit count on the projective line for 2x2 matrix generators.

    A point is the line through (cos t, sin t), t in [0, pi).  The field of
    a generator X has tangent speed <X v, v_perp>.
    """
    ts = np.arange(nodes) * np.pi / nodes
    moving = np.zeros(nodes, dtype=bool)
    for X in fields:
        v = np.stack([np.cos(ts), np.sin(ts)])
        Xv = X @ v
        vperp = np.stack([-np.sin(ts), np.cos(ts)])
        speed = (Xv * vperp).sum(axis=0)
        moving |= np.abs(speed) > tol
    # orbit components = maximal constant runs on the cyclic grid
    changes = int((moving != np.roll(moving, 1)).sum())
    return 1 if changes == 0 else changes


def sphere_orbit_count(so13_generators, n_theta: int = 61, n_phi: int = 120,
                       tol: float = 1e-9) -> int:
    """Orbit count on the light-cone sphere S^2 for so(1,3) generators.

    Points are rays through (1, u), |u| = 1; a generator X moves u with
    field (Xp)' - u (Xp)_0 at p = (1, u).  Nodes are classified by the
    rank of the stacked fields and components are counted per rank class
    over the grid graph (poles are single nodes).
    """
    # grid: theta in (0, pi) interior rows, phi cyclic; poles handled separately
    thetas = np.linspace(0.0, np.pi, n_theta)[1:-1]
    phis = np.arange(n_phi) * 2 * np.pi / n_phi

    def point(th, ph):
        return np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])

    def rank_at(u):
        rows = []
        p = np.concatenate([[1.0], u])
        for X in so13_generators:
            Xp = X @ p
            rows.append(Xp[1:] - u * Xp[0])
        M = np.array(rows)
        s = np.linalg.svd(M, compute_uv=False)
        return int((s > tol * max(1.0, s[0] if s.size else 1.0)).sum())

    ranks = {}
    for i, th in enumerate(thetas):
        for j, ph in enumerate(phis):
            ranks[(i, j)] = rank_at(point(th, ph))
    pole_n = rank_at(np.array([1.0, 0.0, 0.0]))
    pole_s = rank_at(np.array([-1.0, 0.0, 0.0]))

    seen = set()
    components = 0
    for start in ranks:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        r = ranks[start]
        while stack:
            (i, j) = stack.pop()
            for (ni, nj) in [(i - 1, j), (i + 1, j), (i, (j - 1) % n_phi), (i, (j + 1) % n_phi)]:
                if (ni, nj) in ranks and (ni, nj) not in seen and ranks[(ni, nj)] == r:
                    seen.add((ni, nj))
                    stack.append((ni, nj))
    # poles join an adjacent same-rank band component if one exists; otherwise stand alone
    first_row = [ranks[(0, j)] for j in range(n_phi)]
    last_row = [ranks[(len(thetas) - 1, j)] for j in range(n_phi)]
    if pole_n not in first_row:
        components += 1
    if pole_s not in last_row:
        components += 1
    return components


def commutator_coefficients(mats: list[np.ndarray], i: int, j: int) -> np.ndarray:
    """Coefficients of [M_i, M_j] in the given matrix basis (least squares)."""
    arr = np.array(mats)
    flat = arr.reshape(len(mats), -1)
    com = mats[i] @ mats[j] - mats[j] @ mats[i]
    coef, *_ = np.linalg.lstsq(flat.T, com.ravel(), rcond=None)
    assert np.linalg.norm(coef @ flat - com.ravel()) < 1e-9 * max(1.0, np.linalg.norm(com))
    return coef


# -- classical matrices, one hand loop per family -----------------------------

def realify_complex(Z: np.ndarray) -> np.ndarray:
    """Complex N x N matrix -> real 2N x 2N, entry z = a+bi -> [[a,-b],[b,a]]."""
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = Z.real
    out[1::2, 1::2] = Z.real
    out[0::2, 1::2] = -Z.imag
    out[1::2, 0::2] = Z.imag
    return out


def realify_quaternion(Q: np.ndarray) -> np.ndarray:
    """Quaternionic N x N matrix (shape (N,N,4)) -> real 4N x 4N left-multiplication blocks."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    # block (i, j) is [k, l] -> sum_m Q[i,j,m] QT[m, l, k]
    return np.einsum("ijm,mlk->ikjl", Q, _QT).reshape(4 * n, 4 * n)


def complex_basis_u(p: int, q: int, traceless: bool) -> list[np.ndarray]:
    """Complex basis of u(p,q) (or su(p,q) when traceless)."""
    N = p + q
    J = np.diag([1.0] * p + [-1.0] * q).astype(complex)
    out = []
    for i in range(N):
        for j in range(i + 1, N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            E[j, i] = -1.0
            out.append(J @ E)
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1j
            E[j, i] = 1j
            out.append(J @ E)
    for m in range(N - 1):
        D = np.zeros((N, N), dtype=complex)
        D[m, m] = 1j
        D[m + 1, m + 1] = -1j
        out.append(D)
    if not traceless:
        out.append(1j * np.eye(N, dtype=complex))
    return out


def complex_to_quaternion_real(Z: np.ndarray) -> np.ndarray:
    """Complex matrix -> quaternionic (i -> quaternion i) -> real 4N x 4N."""
    Z = np.asarray(Z, dtype=complex)
    Q = np.zeros(Z.shape + (4,))
    Q[:, :, 0] = Z.real
    Q[:, :, 1] = Z.imag
    return realify_quaternion(Q)


def unit_quat_diag(N: int, unit: int) -> np.ndarray:
    """The quaternionic N x N matrix u I, u the unit with index ``unit`` in (1, i, j, k)."""
    Q = np.zeros((N, N, 4))
    Q[range(N), range(N), unit] = 1.0
    return Q


def classical_loops(family: str, p: int, q: int) -> tuple[list[str], np.ndarray]:
    """Labels and real matrices of so/su/sp(p, q), one hand loop per family."""
    N = p + q
    J = np.diag([1.0] * p + [-1.0] * q)
    mats: list[np.ndarray] = []
    labels: list[str] = []
    if family == "so":
        for i in range(N):
            for j in range(i + 1, N):
                E = np.zeros((N, N))
                E[i, j] = 1.0
                E[j, i] = -1.0
                mats.append(J @ E)
                kind = "R" if J[i, i] == J[j, j] else "B"
                labels.append(f"{kind}{i}{j}")
        return labels, np.array(mats).reshape(-1, N, N)
    if family == "su":
        labels = [f"{kind}{i}{j}" for i in range(N) for j in range(i + 1, N) for kind in "AS"]
        labels += [f"D{m}" for m in range(N - 1)]
        return labels, np.array([realify_complex(Z) for Z in complex_basis_u(p, q, True)])
    units = np.eye(4)
    for i in range(N):
        for j in range(i + 1, N):
            for u in range(4):
                Q = np.zeros((N, N, 4))
                Q[i, j] = units[u]
                conj = units[u] if u == 0 else -units[u]
                Q[j, i] = -conj
                Q[i, j] *= J[i, i]
                Q[j, i] *= J[j, j]
                mats.append(realify_quaternion(Q))
                labels.append(f"O{i}{j}{'1ijk'[u]}")
    for i in range(N):
        for u in range(1, 4):
            Q = np.zeros((N, N, 4))
            Q[i, i] = J[i, i] * units[u]
            mats.append(realify_quaternion(Q))
            labels.append(f"D{i}{'1ijk'[u]}")
    return labels, np.array(mats)


def direct_sum(L1, L2):
    """Block direct sum; matrices and theta are combined blockwise when both present."""
    d1, d2 = L1.dim, L2.dim
    c = np.zeros((d1 + d2, d1 + d2, d1 + d2))
    c[:d1, :d1, :d1] = L1.bracket_tensor
    c[d1:, d1:, d1:] = L2.bracket_tensor
    mats = None
    if L1.matrices is not None and L2.matrices is not None:
        n1, n2 = L1.matrices.shape[1], L2.matrices.shape[1]
        mats = np.zeros((d1 + d2, n1 + n2, n1 + n2))
        mats[:d1, :n1, :n1] = L1.matrices
        mats[d1:, n1:, n1:] = L2.matrices
    theta = None
    if L1.theta is not None and L2.theta is not None:
        theta = np.zeros((d1 + d2, d1 + d2))
        theta[:d1, :d1] = L1.theta
        theta[d1:, d1:] = L2.theta
    labels = tuple(f"0.{l}" for l in L1.labels) + tuple(f"1.{l}" for l in L2.labels)
    return LieAlgebra(labels=labels, matrices=mats, theta=theta,
                      name=f"{L1.name}+{L2.name}", structure=c)


def power_by_direct_sums(L, copies: int):
    """L^copies as repeated ``direct_sum``, relabelled as ``algebra_power`` labels it."""
    out = L
    for _ in range(copies - 1):
        out = direct_sum(out, L)
    labels = tuple(f"{i}.{l}" for i in range(copies) for l in L.labels)
    return LieAlgebra(labels=labels, matrices=out.matrices, theta=out.theta,
                      name=f"{L.name}^{copies}", structure=out.bracket_tensor)


def _pad(M: np.ndarray, N: int, offset: int) -> np.ndarray:
    out = np.zeros((N, N), dtype=M.dtype)
    k = M.shape[0]
    out[offset:offset + k, offset:offset + k] = M
    return out


def classical_recipe_matrices(recipe):
    """The matrices a catalog recipe over classical blocks spans, from the hand loops;
    None for every other recipe."""
    kw, name = getattr(recipe, "keywords", {}), getattr(recipe, "func", recipe).__name__
    if name == "_block_sum":
        return [_pad(M, kw["N"], off) for fam, p, q, off in kw["blocks"]
                if fam != "so" or p + q >= 2 for M in classical_loops(fam, p, q)[1]]
    if name == "_su_blocks":
        n, m = kw["n"], kw["m"]
        blocks = [_pad(Z, n + 1, off) for p, q, off in [(1, m, 0), (0, n - m, m + 1)]
                  for Z in complex_basis_u(p, q, traceless=True)]
        D = np.zeros((n + 1, n + 1), dtype=complex)
        for k in range(n + 1):
            D[k, k] = 1j * (float(n - m) if k <= m else -float(m + 1))
        return [realify_complex(Z) for Z in blocks + [D]]
    if name == "_so_in_su":
        return [realify_complex(M) for M in classical_loops("so", 1, kw["n"])[1]]
    if name == "_u_in_sp":
        return [complex_to_quaternion_real(Z) for Z in complex_basis_u(1, kw["n"], False)]
    if name == "_so_sp1":
        n = kw["n"]
        return ([complex_to_quaternion_real(M) for M in classical_loops("so", 1, n)[1]]
                + [realify_quaternion(unit_quat_diag(n + 1, u)) for u in range(1, 4)])
    return None
