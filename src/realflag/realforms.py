"""Constructors for the classical real forms and their parabolics.

``classical_basis`` writes so(p,q), su(p,q) (or u(p,q)) and sp(p,q), the
algebras preserving a form of signature (p, q) over R, C and H, from one
formula, as float arrays whose trailing axis holds the 1, 2 or 4 components
of an entry; ``realify`` replaces each entry by its real left-multiplication
block, and ``build_classical`` is the real matrix algebra on those blocks
with the Cartan involution X -> -X^T.  ``algebra_power`` repeats an algebra
block-diagonally (sl2^3).  ``restricted_roots`` extracts a maximal
abelian subspace of s, the joint ad-eigenspace decomposition, the simple
roots, every root's integer coordinates in them and the integer Cartan
matrix; no root vector is matched against a tolerance after that.
``minimal_parabolic`` assembles p = m + a + n together with a Weyl
representative of the longest element w0, a word of simple reflections
whose adjoint action maps n onto the opposite nilpotent.  The word comes
from the descent rule on the Cartan matrix (Humphreys, Reflection Groups
and Coxeter Groups, 1.6-1.8): starting from w = 1, while some simple root
has w(alpha_i) > 0, replace w by w s_i; each step raises the length by one,
so the word is reduced and stops at w0.  Each reflection is the root-vector
word exp(E) exp(theta E) exp(E), so every row of every word the package
builds is ad-nilpotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .core import (ConstructionError, InputError, LieAlgebra, Subalgebra,
                   UnsupportedOperation, cartan_decomposition, subalgebra)
from .linalg import (brackets, in_span, intersect_spans, null_rows, numeric_rank, orth_rows,
                     stack_span)

# quaternion left-multiplication table on the basis (1, i, j, k)
_QT = np.zeros((4, 4, 4))
_QT[0] = np.eye(4)
for _a in range(1, 4):
    _QT[_a, 0, _a] = 1.0
    _QT[_a, _a, 0] = -1.0
for _a, _b, _c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
    _QT[_a, _b, _c] = 1.0
    _QT[_b, _a, _c] = -1.0
_QT.setflags(write=False)
# the field each family preserves a form over, and its real width
_FIELD = {"so": "R", "su": "C", "sp": "H"}
_WIDTH = {"R": 1, "C": 2, "H": 4}


def realify(X: np.ndarray, field: str) -> np.ndarray:
    """Matrices (..., N, N, k) over R, C or H (``field``), on the components (1, i, j, k)[:k]
    with any missing ones zero, as real (..., wN, wN), w = 1, 2 or 4: each entry becomes
    its w x w left-multiplication block, so a + bi -> [[a, -b], [b, a]]."""
    w, (*batch, n, _, k) = _WIDTH[field], np.shape(X)
    # block (i, j) is [k, l] -> sum_m X[i,j,m] QT[m, l, k]
    return np.einsum("...ijm,mlk->...ikjl", X, _QT[:k, :w, :w]).reshape(*batch, w * n, w * n)


def _transposed_theta(labels: list[str], mats: np.ndarray, name: str) -> LieAlgebra:
    """The algebra on ``mats`` with theta X -> -X^T, read at the pivot entries; InputError
    unless the basis is stable under it."""
    L = LieAlgebra(labels=tuple(labels), matrices=mats, name=name)
    L._set_theta(L.coefficients_of(-mats.transpose(0, 2, 1)).T)
    return L


def classical_basis(family: str, p: int, q: int,
                    traceless: bool = True) -> tuple[list[str], np.ndarray]:
    """Labels and the (dim, N, N, k) basis of so, su (u when not ``traceless``) or sp of
    signature (p, q), N = p + q, over R, C or H (k = 1, 2, 4 components 1, i, j, k).

    Off the diagonal each unit u of the field gives J(u E_ij - conj(u) E_ji), J = diag(I_p,
    -I_q); on it su has i(E_mm - E_m+1,m+1) (and iI for u), sp has J_ii u E_ii, u imaginary.
    """
    k, N, J = _WIDTH[_FIELD[family]], p + q, np.array([1.0] * p + [-1.0] * q)
    units = np.eye(k)
    conj = units * np.array([1.0, -1.0, -1.0, -1.0])[:k]
    gens = []                           # (label, [(row, column, entry)])
    for i in range(N):
        for j in range(i + 1, N):
            for u in range(k):
                # so: rotation or boost; su: antisymmetric or symmetric; sp: by unit
                kind = "O" if k == 4 else "AS"[u] if k == 2 else "RB"[int(J[i] != J[j])]
                gens.append((f"{kind}{i}{j}{'1ijk'[u] if k == 4 else ''}",
                             [(i, j, J[i] * units[u]), (j, i, -conj[u] * J[j])]))
    if family == "su":
        gens += [(f"D{m}", [(m, m, units[1]), (m + 1, m + 1, -units[1])]) for m in range(N - 1)]
        gens += [] if traceless else [("I", [(m, m, units[1]) for m in range(N)])]
    elif family == "sp":
        gens += [(f"D{i}{'1ijk'[u]}", [(i, i, J[i] * units[u])])
                 for i in range(N) for u in (1, 2, 3)]
    X = np.zeros((len(gens), N, N, k))
    for g, (_, entries) in enumerate(gens):
        for i, j, entry in entries:
            X[g, i, j] = entry
    return [label for label, _ in gens], X


def build_classical(family: str, p: int, q: int) -> LieAlgebra:
    """so/su/sp of signature (p, q) as a real matrix algebra with theta = -transpose."""
    if family not in _FIELD:
        raise InputError(f"unknown family {family!r}")
    # sp(1) is a genuine 3-dimensional algebra; so(1) and su(1) are trivial
    min_size = 1 if family == "sp" else 2
    if p < 0 or q < 0 or p + q < min_size:
        raise InputError(f"need p, q >= 0 and p + q >= {min_size}")
    labels, X = classical_basis(family, p, q)
    return _transposed_theta(labels, realify(X, _FIELD[family]), f"{family}({p},{q})")


def build_sl(n: int) -> LieAlgebra:
    """sl(n, R): traceless real matrices, theta = -transpose."""
    if n < 2:
        raise InputError("need n >= 2")
    mats: list[np.ndarray] = []
    labels: list[str] = []
    for m in range(n - 1):
        D = np.zeros((n, n))
        D[m, m] = 1.0
        D[m + 1, m + 1] = -1.0
        mats.append(D)
        labels.append(f"H{m}")
    for i in range(n):
        for j in range(n):
            if i != j:
                E = np.zeros((n, n))
                E[i, j] = 1.0
                mats.append(E)
                labels.append(f"E{i}{j}")
    return _transposed_theta(labels, np.array(mats), f"sl{n}")


def algebra_power(L: LieAlgebra, copies: int) -> LieAlgebra:
    """L^copies: the bracket, the matrices and theta of L repeated block-diagonally."""
    if copies < 1:
        raise InputError("copies must be >= 1")
    d, mats, theta = L.dim, L.matrices, L.theta
    c = np.zeros((copies * d,) * 3)
    if mats is not None:
        n = mats.shape[1]
        mats = np.zeros((copies * d, copies * n, copies * n))
    if theta is not None:
        theta = np.zeros((copies * d, copies * d))
    for s in range(copies):
        b = slice(s * d, (s + 1) * d)
        c[b, b, b] = L.bracket_tensor
        if mats is not None:
            mats[b, s * n:(s + 1) * n, s * n:(s + 1) * n] = L.matrices
        if theta is not None:
            theta[b, b] = L.theta
    labels = tuple(f"{i}.{l}" for i in range(copies) for l in L.labels)
    return LieAlgebra(labels=labels, matrices=mats, theta=theta,
                      name=f"{L.name}^{copies}", structure=c)


def from_matrices(L: LieAlgebra, mats: np.ndarray, name: str = "") -> Subalgebra:
    """Subalgebra spanned by the given realization matrices."""
    rows = L.coefficients_of(np.asarray(mats, dtype=float))
    return subalgebra(L, rows, name=name)


# -- restricted roots and parabolics -----------------------------------------

@dataclass(frozen=True, eq=False)
class RestrictedRootData:
    """Joint ad-eigenspace decomposition relative to a maximal abelian a in s.

    Root functionals are stored as coefficient vectors against the rows of
    ``a``: the root evaluates on Z = t @ a as (vector . t).  In real rank
    one the generator is normalized so the indivisible positive root takes
    value 1 on it.  Every root is named by its integer coordinates in the
    simple roots (``coords``): simple root i is the unit vector e_i, and in
    rank one [1], [2] and [-1] name g^alpha, g^2alpha and g^-alpha.
    """

    algebra: LieAlgebra
    a: np.ndarray                      # (r, dim) basis rows
    m: np.ndarray                      # centralizer of a in k, basis rows
    root_vectors: np.ndarray           # (R, r)
    root_spaces: tuple[np.ndarray, ...]
    simple_roots: np.ndarray           # (S, r), subset of the positive roots
    positive: np.ndarray               # bool mask over root_vectors
    coords: np.ndarray                 # (R, S) integers: root = coords @ simple_roots
    cartan: np.ndarray                 # (S, S) integers: cartan[j, i] = <alpha_j, alpha_i^vee>

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def multiplicities(self) -> tuple[int, int]:
        """(m_alpha, m_2alpha) in real rank one."""
        if self.rank != 1:
            raise UnsupportedOperation("multiplicities are a rank-one notion")
        return (self.space_of([1]).shape[0], self.space_of([2]).shape[0])

    @property
    def depth(self) -> int:
        """2 m + 1, m the largest height of a root in simple-root coordinates:
        heights of g lie in [-m, m] and ad of a row in n or n̄ moves them by at
        least 1, so (ad X)^depth = 0 for every such row."""
        return 2 * int(self.coords.sum(axis=1).max()) + 1

    def space_of(self, coords) -> np.ndarray:
        """Root space of the root with these simple-root coordinates (empty basis if none)."""
        key = np.ravel(coords).tolist()
        for c, space in zip(self.coords.tolist(), self.root_spaces):
            if c == key:
                return space
        return np.zeros((0, self.algebra.dim))

    def positive_spaces(self) -> list[np.ndarray]:
        return [sp for sp, pos in zip(self.root_spaces, self.positive) if pos]

    def negative_spaces(self) -> list[np.ndarray]:
        return [sp for sp, pos in zip(self.root_spaces, self.positive) if not pos]


def _root_lattice(root_vectors: np.ndarray, simple: np.ndarray,
                  a_gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coords, cartan) as integers, for roots paired through the inverse of ``a_gram``,
    the B_theta Gram matrix of a; ConstructionError unless both are integral to 1e-6."""
    coords = np.linalg.lstsq(simple.T, root_vectors.T, rcond=None)[0].T
    if np.abs(coords - np.round(coords)).max() > 1e-6:
        raise ConstructionError("a root is not an integer sum of simple roots")
    gram = simple @ np.linalg.solve(a_gram, simple.T)
    cartan = 2.0 * gram / np.diag(gram)
    if np.abs(cartan - np.round(cartan)).max() > 1e-6:
        raise ConstructionError("the Cartan matrix of the simple roots is not integral")
    return np.round(coords).astype(int), np.round(cartan).astype(int)


def _cluster(evals: np.ndarray) -> list[np.ndarray]:
    """Indices of eigenvalues grouped by absolute gap."""
    order = np.argsort(evals)
    groups = [[order[0]]]
    for idx in order[1:]:
        if evals[idx] - evals[groups[-1][-1]] > 1e-6:
            groups.append([])
        groups[-1].append(idx)
    return [np.array(g) for g in groups]


def _maximal_abelian(L: LieAlgebra, s: np.ndarray, seed: int) -> np.ndarray:
    """Centralizer in s of a generic element of s (maximal abelian for generic picks)."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        X = rng.standard_normal(s.shape[0]) @ s
        X /= np.linalg.norm(X)
        ker = null_rows(L.ad(X) @ s.T)
        cand = orth_rows(ker @ s)
        pair = brackets(L.bracket_tensor, cand, cand)
        if np.abs(pair).max() < 1e-8 * max(1.0, np.abs(cand).max()):
            return cand
    raise ConstructionError("failed to find a maximal abelian subspace (non-generic seeds)")


def restricted_roots(L: LieAlgebra, a_basis: Optional[np.ndarray] = None,
                     seed: int = 0, xi: Optional[np.ndarray] = None) -> RestrictedRootData:
    """Restricted-root decomposition relative to a maximal abelian a in s.

    ``a_basis`` prescribes a (it is checked to be abelian and maximal);
    otherwise a is the centralizer of a seeded random element of s.  ``xi``
    prescribes the positivity functional (coefficients against the rows of
    a); by default a seeded generic one is drawn.
    """
    if L.theta is None:
        raise UnsupportedOperation("restricted_roots requires theta")
    ksub, s = cartan_decomposition(L)
    if s.shape[0] == 0:
        raise UnsupportedOperation(f"{L.name or 'algebra'} is compact (real rank zero)")
    if a_basis is None:
        a = _maximal_abelian(L, s, seed)
    else:
        # keep the prescribed rows (their orientation fixes the positivity convention)
        a = np.atleast_2d(np.asarray(a_basis, dtype=float))
        if numeric_rank(a) != a.shape[0]:
            raise InputError("prescribed a basis is not linearly independent")
        if not in_span(a, s, 1e-8):
            raise InputError("prescribed a is not contained in s")
        pair = brackets(L.bracket_tensor, a, a)
        if np.abs(pair).max() > 1e-8:
            raise InputError("prescribed a is not abelian")
        # centralizer of a in s must be a itself
        cent = s
        for Z in a:
            coeff = null_rows(L.ad(Z) @ cent.T)
            cent = orth_rows(coeff @ cent)
        if cent.shape[0] != a.shape[0]:
            raise InputError("prescribed a is not maximal abelian in s")

    # joint eigenspaces of ad(Z_i), computed in B_theta-orthonormal coordinates
    try:
        lo = np.linalg.cholesky(L.b_theta)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError("B_theta(X, Y) = -B(X, theta Y) is not positive "
                                "definite") from exc
    lo_inv = np.linalg.inv(lo)
    spaces = [np.eye(L.dim)]            # rows = B_theta-orthonormal coordinates
    values: list[list[float]] = [[]]
    for Z in a:
        M = lo.T @ L.ad(Z) @ lo_inv.T
        M = (M + M.T) / 2.0
        new_spaces, new_values = [], []
        for space, vals in zip(spaces, values):
            R = space @ M @ space.T
            ev, V = np.linalg.eigh((R + R.T) / 2.0)
            for idx in _cluster(ev):
                new_spaces.append(V[:, idx].T @ space)
                new_values.append(vals + [float(ev[idx].mean())])
        spaces = new_spaces
        values = new_values
    values = [np.array(v) for v in values]

    # back to plain coefficients: u-rows = x-rows @ lo, so x-rows = u-rows @ lo^{-1}
    spaces = [orth_rows(sp @ lo_inv) for sp in spaces]

    root_vectors, root_spaces = [], []
    zero_space = None
    for sp, val in zip(spaces, values):
        if np.linalg.norm(val) < 1e-6:
            zero_space = sp
        else:
            root_vectors.append(val)
            root_spaces.append(sp)
    if zero_space is None:
        raise ConstructionError("no zero weight space found (m + a missing)")
    m = intersect_spans(zero_space, ksub.basis)
    if m.shape[0] + a.shape[0] != zero_space.shape[0]:
        raise ConstructionError("centralizer of a does not split as m + a")

    root_vectors = np.array(root_vectors)
    # positivity via a generic functional (either prescribed or seeded)
    if xi is not None:
        vals = root_vectors @ np.asarray(xi, dtype=float)
        if np.abs(vals).min() <= 1e-6 * max(1.0, np.abs(vals).max()):
            raise InputError("prescribed positivity functional vanishes on a root")
    else:
        rng = np.random.default_rng(seed + 104729)
        for _ in range(20):
            xi = rng.standard_normal(a.shape[0])
            vals = root_vectors @ xi
            if np.abs(vals).min() > 1e-6 * max(1.0, np.abs(vals).max()):
                break
    positive = vals > 0

    # rank-one normalization: the indivisible positive root takes value 1 on a[0]
    if a.shape[0] == 1:
        pos_vals = root_vectors[positive, 0]
        c = pos_vals[np.abs(pos_vals).argmin()]
        a = a / c
        root_vectors = np.round(root_vectors / c, 12)
        positive = root_vectors[:, 0] > 0

    # simple roots: positive roots that are not sums of two positive roots
    pos_vecs = root_vectors[positive]
    sums = (pos_vecs[:, None] + pos_vecs[None]).reshape(-1, pos_vecs.shape[1])
    simple = np.array([v for v in pos_vecs if np.linalg.norm(sums - v, axis=1).min() >= 1e-6])
    coords, cartan = _root_lattice(root_vectors, simple, a @ L.b_theta @ a.T)

    return RestrictedRootData(algebra=L, a=a, m=m,
                              root_vectors=root_vectors,
                              root_spaces=tuple(root_spaces),
                              simple_roots=simple, positive=positive,
                              coords=coords, cartan=cartan)


@dataclass(frozen=True, eq=False)
class ParabolicData:
    """Minimal parabolic p = m + a + n with a Weyl representative.

    ``weyl`` is a word (rows W_1, ..., W_k: the group element
    exp(W_1) ... exp(W_k)) of simple-reflection triples from ``_sl2_weyl``,
    one per letter of a reduced word for w0, with Ad(weyl) a = a and
    Ad(weyl) n = nbar.
    """

    algebra: LieAlgebra
    roots: RestrictedRootData
    p: Subalgebra
    m: Subalgebra
    a: np.ndarray
    n: Subalgebra
    nbar: Subalgebra
    weyl: np.ndarray

    @property
    def dim_flag(self) -> int:
        """dim g/p = dim n."""
        return self.n.dim

    @cached_property
    def chart(self) -> np.ndarray:
        """Projection onto n̄ along p: ``v @ chart`` are v's n̄-coordinates ([n̄; p] is
        well conditioned, since n̄ is B_theta-orthogonal to p)."""
        return np.linalg.inv(np.vstack([self.nbar.basis, self.p.basis]))[:, :self.nbar.dim]


def _sl2_weyl(L: LieAlgebra, roots: RestrictedRootData, i: int) -> np.ndarray:
    """Three-row word [E, theta E, E] for the simple root alpha_i, E in its root space
    scaled so that (E, F = -theta E) spans an sl2 triple.  exp(E) exp(-F) exp(E) =
    exp(pi/2 (E - F)) in SL2, so the word represents the reflection in alpha_i."""
    E = roots.space_of(np.eye(len(roots.cartan), dtype=int)[i])[0]
    H0 = L.bracket(E, -(L.theta @ E))
    # H0 lies in a, so [H0, E] = alpha(H0) E; alpha(H0) > 0, rescale so that alpha(H) = 2
    val = float(E @ L.bracket(H0, E)) / float(E @ E)
    if val <= 0:
        raise ConstructionError("sl2 normalization failed (alpha(H0) <= 0)")
    E = E * np.sqrt(2.0 / val)
    return np.array([E, L.theta @ E, E])


def minimal_parabolic(L: LieAlgebra, roots: Optional[RestrictedRootData] = None) -> ParabolicData:
    """Standard minimal parabolic from the restricted root data."""
    if roots is None:
        roots = restricted_roots(L)
    n = orth_rows(stack_span(*roots.positive_spaces()))
    nbar = orth_rows(stack_span(*roots.negative_spaces()))
    p_basis = orth_rows(stack_span(roots.m, roots.a, n))

    # Weyl representative by descent: column i of w is w(alpha_i) in simple-root coordinates
    w, word = np.eye(len(roots.cartan), dtype=int), []
    while (up := np.flatnonzero(w.sum(axis=0) > 0)).size:
        if len(word) == roots.positive.sum():
            raise ConstructionError("the descent is longer than the number of positive roots")
        w -= np.outer(w[:, up[0]], roots.cartan[:, up[0]])     # w <- w s_i
        word.append(_sl2_weyl(L, roots, up[0]))
    weyl = np.vstack(word)
    moved = L.ad_group(weyl, np.vstack([n, roots.a]), roots.depth)
    if not (in_span(moved[:len(n)], nbar, 1e-7) and in_span(moved[len(n):], roots.a, 1e-7)):
        raise ConstructionError("the Weyl word does not map n onto nbar")

    alg_name = L.name or "g"
    return ParabolicData(
        algebra=L, roots=roots,
        p=Subalgebra(L, p_basis, name=f"p({alg_name})"),
        m=Subalgebra(L, roots.m, name=f"m({alg_name})"),
        a=roots.a,
        n=Subalgebra(L, n, name=f"n({alg_name})"),
        nbar=Subalgebra(L, nbar, name=f"nbar({alg_name})"),
        weyl=weyl)


# -- registry -----------------------------------------------------------------

_CLASSICAL_RE = re.compile(r"^(so|su|sp)\((\d+),(\d+)\)$")
_COMPACT_RE = re.compile(r"^(so|su|sp)\((\d+)\)$")
_SHORT_RE = re.compile(r"^(so|su|sp)(\d)(\d+)$")
_SL_RE = re.compile(r"^sl(\d+)(?:\^(\d+))?$")


def get_algebra(name: str) -> LieAlgebra:
    """Named-algebra registry: so(1,4), su(1,2), sp(1,3), so13, sl2, sl2^3, f4, g2.

    f4 is the algebra of the current ``jordan.f4_bundle()``, so it follows a
    rebuild; every other name is built once per process.
    """
    name = name.strip()
    if name == "f4":
        from .jordan import f4_bundle
        return f4_bundle().algebra
    return _named_algebra(name)


@lru_cache(maxsize=None)
def _named_algebra(name: str) -> LieAlgebra:
    m = _CLASSICAL_RE.match(name)
    if m:
        return build_classical(m.group(1), int(m.group(2)), int(m.group(3)))
    m = _COMPACT_RE.match(name)
    if m:
        return build_classical(m.group(1), 0, int(m.group(2)))
    m = _SHORT_RE.match(name)
    if m:
        return build_classical(m.group(1), int(m.group(2)), int(m.group(3)))
    m = _SL_RE.match(name)
    if m:
        L = build_sl(int(m.group(1)))
        if m.group(2):
            return algebra_power(L, int(m.group(2)))
        return L
    if name == "g2":
        from .jordan import build_g2
        return build_g2()
    raise InputError(f"unknown algebra name {name!r}")
