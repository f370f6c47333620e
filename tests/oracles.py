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
time and the matrix realization one commutator slab at a time.
"""

from __future__ import annotations

import numpy as np

from realflag.linalg import intersect_spans, numeric_rank, stack_span
from realflag.jordan import _coords_to_matrix, _matrix_to_coords, _oct_matmul


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
