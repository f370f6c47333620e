"""Structure-constant representation of real Lie algebras.

A Lie algebra is stored as a rank-3 tensor ``c[i,j,k]`` with
``[e_i, e_j] = sum_k c[i,j,k] e_k`` on a fixed basis, optionally together
with a matrix realization (one square matrix per basis element) and a
Cartan involution ``theta`` acting on the coefficient space.  A group
element is a word: a ``(k, dim)`` array of ad-nilpotent coefficient vectors
standing for exp(X_1) ... exp(X_k).  Its adjoint action on a block of
coefficient rows is computed from the bracket alone, as
Ad(exp X_1 ... exp X_k) = exp(ad X_1) ... exp(ad X_k) applied to the rows,
each factor a terminating series (ad X)^k / k!, cut at the nilpotency depth
that the restricted-root grading gives (``RestrictedRootData.depth``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .linalg import (DEFAULT_TOL, brackets, complement_in, in_span, null_rows, numeric_rank,
                     orth_rows, signature_of, span_residual, stack_span)


class LieError(Exception):
    """Base class for errors raised by this package."""


class InputError(LieError, ValueError):
    """Invalid argument (dimension mismatch, malformed data, ...)."""


class UnsupportedOperation(LieError):
    """Operation not available for this input (missing theta, rank zero, ...)."""


class ConstructionError(LieError):
    """A numerical construction did not validate (unexpected nullity, ...)."""


class NormalizationError(LieError):
    """A normal form's preconditions fail and require conjugating the input first."""


class NotSphericalError(LieError):
    """Structural certificate that the pair at hand cannot be spherical."""


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A finite-dimensional real Lie algebra on a fixed basis.

    Exactly one of ``structure`` / ``matrices`` may be omitted; the bracket
    tensor is derived from the matrix realization on first use.
    """

    labels: tuple[str, ...]
    matrices: Optional[np.ndarray] = None        # (dim, N, N)
    theta: Optional[np.ndarray] = None           # (dim, dim) involution
    name: str = ""
    structure: Optional[np.ndarray] = None       # c[i,j,k]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.structure is None and self.matrices is None:
            raise InputError("need structure constants or a matrix realization")
        for arr in (self.matrices, self.theta, self.structure):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def bracket_tensor(self) -> np.ndarray:
        if self.structure is not None:
            return self.structure
        c = _structure_from_matrices(self.matrices, self._flat_pinv)
        c.setflags(write=False)
        return c

    @cached_property
    def _flat_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the flattened realization basis, for coefficient extraction."""
        if self.matrices is None:
            raise UnsupportedOperation(f"{self.name or 'algebra'} has no matrix realization")
        flat = self.matrices.reshape(self.dim, -1)
        return np.linalg.pinv(flat)

    @cached_property
    def killing(self) -> np.ndarray:
        c = self.bracket_tensor
        B = np.einsum("ilk,jkl->ij", c, c)
        return (B + B.T) / 2.0

    @cached_property
    def b_theta(self) -> np.ndarray:
        """B_theta(X, Y) = -B(X, theta Y); positive definite for a Cartan theta."""
        if self.theta is None:
            raise UnsupportedOperation("b_theta requires theta")
        G = -self.killing @ self.theta
        return (G + G.T) / 2.0

    # -- basic operations ------------------------------------------------

    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != (self.dim,) or Y.shape != (self.dim,):
            raise InputError(f"coefficient vectors must have length {self.dim}")
        return brackets(self.bracket_tensor, X[None], Y[None])[0, 0]

    def ad(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim,):
            raise InputError(f"coefficient vector must have length {self.dim}")
        # column j holds [X, e_j]
        return np.einsum("i,ijk->kj", X, self.bracket_tensor)

    def coefficients_of(self, M: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Coefficients of a realization matrix or a stack; raises if one leaves the span."""
        M = np.asarray(M, dtype=float)
        flat = M.reshape(-1, self._flat_pinv.shape[0])
        coeff = flat @ self._flat_pinv
        resid = np.linalg.norm(coeff @ self.matrices.reshape(self.dim, -1) - flat, axis=1)
        rel = resid / np.maximum(np.linalg.norm(flat, axis=1), 1e-30)
        if rel.size and rel.max() > tol:
            raise InputError(f"matrix not in the realization span (residual {rel.max():.2e})")
        return coeff[0] if M.ndim == 2 else coeff

    def ad_group(self, word: np.ndarray, rows: np.ndarray,
                 depth: Optional[int] = None) -> np.ndarray:
        """Ad(exp X_1 ... exp X_k) applied to every row of ``rows``.

        ``word`` is a ``(k, dim)`` array whose rows X_1, ..., X_k are
        ad-nilpotent.  Row i of the result is exp(ad X_1) ... exp(ad X_k)
        rows[i], each factor the finite series of ``_exp_nilpotent`` cut at
        ``depth`` (``dim`` when no grading is known); the empty word is the
        identity.  The rows of ``eye(dim)`` give the transpose of Ad.
        """
        word = np.asarray(word, dtype=float)
        if word.ndim != 2 or word.shape[1] != self.dim:
            raise InputError(f"a group element is a (k, {self.dim}) word of coefficient vectors")
        c, out = self.bracket_tensor.reshape(self.dim, -1), np.array(rows, dtype=float)
        for X in word[::-1]:            # v @ (X @ c).reshape(dim, dim) = [X, v]
            out = _exp_nilpotent(out, (X @ c).reshape(self.dim, self.dim),
                                 self.dim if depth is None else depth)
        return out


def _exp_nilpotent(rows: np.ndarray, A: np.ndarray, depth: int) -> np.ndarray:
    """rows @ exp(A): the sum of rows @ A^k / k! for k < depth, exact when rows @ A^depth = 0.

    Every term is summed, since a small term may still matter; only an exactly
    zero term ends the sum early.  InputError unless rows @ A^depth vanishes to
    rounding, row by row: for B = A / |A|_inf, depth - 1 products give
    |fl(r B^depth) - r B^depth| <= gamma_{n(depth-1)} |r| |B|^depth (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.5), and
    |r| |B|^depth has 1-norm at most |r|_1.
    """
    norm = np.abs(A).sum(axis=1).max(initial=0.0)
    B = A / norm if norm else A
    out, power, coeff = rows.copy(), rows @ B, 1.0         # rows B^k and |A|_inf^k / k!
    for k in range(1, depth):
        if not power.any():
            return out
        coeff *= norm / k
        out += coeff * power
        power = power @ B
    bound = len(A) * depth * np.finfo(float).eps * np.abs(rows).sum(axis=-1)
    if not (np.abs(power).sum(axis=-1) <= bound).all():          # NaN fails
        raise InputError("a word row is not ad-nilpotent to the given depth")
    return out


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """A subalgebra given by row-stacked coefficient vectors in an ambient algebra."""

    ambient: LieAlgebra
    basis: np.ndarray
    name: str = ""

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", basis)
        basis.setflags(write=False)
        if basis.size and basis.shape[1] != self.ambient.dim:
            raise InputError("basis vectors must match the ambient dimension")

    @property
    def dim(self) -> int:
        if self.basis.size == 0:
            return 0
        return self.basis.shape[0]

    def validate(self, tol: float = 1e-8) -> None:
        if self.dim == 0:
            return
        if numeric_rank(self.basis) != self.dim:
            raise InputError(f"{self.name or 'subalgebra'}: basis is not linearly independent")
        br = pairwise_brackets(self.ambient, self.basis)
        scale = float(np.linalg.norm(self.basis)) ** 2
        if _closure_residual(self.ambient, br, self.basis, scale) > tol:
            raise InputError(f"{self.name or 'subalgebra'}: not closed under the bracket")

    def contains(self, other: "Subalgebra | np.ndarray", tol: float = 1e-8) -> bool:
        vecs = other.basis if isinstance(other, Subalgebra) else np.atleast_2d(other)
        return in_span(vecs, self.basis, tol)


def subalgebra(ambient: LieAlgebra, basis: np.ndarray, name: str = "",
               validate: bool = True, tol: float = 1e-8) -> Subalgebra:
    sub = Subalgebra(ambient, basis, name)
    if validate:
        sub.validate(tol)
    return sub


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric bilinear form on the coefficient space with its signature."""

    matrix: np.ndarray
    signature: tuple[int, int]

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> float:
        return float(np.asarray(X) @ self.matrix @ np.asarray(Y))


# -- module-level operations ----------------------------------------------

def killing_form(L: LieAlgebra) -> BilinearForm:
    B = L.killing
    return BilinearForm(matrix=B, signature=signature_of(B))


def pairwise_brackets(L: LieAlgebra, basis: np.ndarray) -> np.ndarray:
    """All brackets [b_i, b_j], i < j, row-stacked."""
    basis = np.atleast_2d(basis)
    k = basis.shape[0]
    if k < 2:
        return np.zeros((0, L.dim))
    out = brackets(L.bracket_tensor, basis, basis)
    idx = np.triu_indices(k, 1)
    return out[idx]


def subalgebra_closure(L: LieAlgebra, generators: np.ndarray, tol: float = DEFAULT_TOL,
                       name: str = "") -> Subalgebra:
    """Smallest bracket-closed subspace containing the generators."""
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if gens.size == 0:
        raise InputError("need at least one generator")
    basis = orth_rows(gens, tol)
    while True:
        br = pairwise_brackets(L, basis)
        new = orth_rows(stack_span(basis, br), tol)
        if new.shape[0] == basis.shape[0]:
            return Subalgebra(L, new, name)
        basis = new


def cartan_decomposition(L: LieAlgebra, tol: float = DEFAULT_TOL) -> tuple[Subalgebra, np.ndarray]:
    """(k, s): +1 eigenspace of theta as a subalgebra, -1 eigenspace as a basis.

    Eigenspaces come from the projectors (1 ± theta)/2, whose singular
    values sit at 0 and 1, so the rank cut is scale-robust even when one
    eigenspace is empty.
    """
    if L.theta is None:
        raise UnsupportedOperation("cartan_decomposition requires theta")
    k = orth_rows(((np.eye(L.dim) + L.theta) / 2.0).T, tol, scale=1.0)
    s = orth_rows(((np.eye(L.dim) - L.theta) / 2.0).T, tol, scale=1.0)
    if k.shape[0] + s.shape[0] != L.dim:
        raise ConstructionError("theta eigenspaces do not fill the algebra")
    return Subalgebra(L, k, name="k"), s


def ideal_closure(L: LieAlgebra, seed: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Smallest ad(L)-invariant subspace containing the rows of seed."""
    basis = orth_rows(np.atleast_2d(seed), tol)
    if basis.shape[0] == 0:
        return basis
    full = np.eye(L.dim)
    while True:
        br = brackets(L.bracket_tensor, full, basis).reshape(-1, L.dim)
        new = orth_rows(stack_span(basis, br), tol)
        if new.shape[0] == basis.shape[0]:
            return new
        basis = new


def noncompact_ideal(L: LieAlgebra, tol: float = DEFAULT_TOL) -> tuple[Subalgebra, Subalgebra]:
    """Maximal noncompact ideal (generated by the -1 eigenspace of theta) and
    its complementary ideal, orthogonal for B_theta plus the theta-averaged
    square of the projection onto the center along [L, L] (B_theta vanishes on
    the center).  Requires a reductive algebra with theta; raises
    UnsupportedOperation otherwise.
    """
    if L.theta is None:
        raise UnsupportedOperation("noncompact_ideal requires theta")
    center, derived = _assert_reductive(L, tol)
    z = np.linalg.inv(stack_span(center, derived))[:, :center.shape[0]]
    z = np.hstack([z, L.theta.T @ z])
    _, s = cartan_decomposition(L, tol)
    if s.shape[0] == 0:
        nc = np.zeros((0, L.dim))
    else:
        nc = ideal_closure(L, s, tol)
    comp = complement_in(nc, np.eye(L.dim), metric=L.b_theta + z @ z.T, tol=tol)
    # the complement must itself be an ideal
    if comp.shape[0]:
        br = brackets(L.bracket_tensor, np.eye(L.dim), comp).reshape(-1, L.dim)
        if _closure_residual(L, br, comp, L.dim) > 1e-7:
            raise ConstructionError("complement of the noncompact ideal is not an ideal")
    return Subalgebra(L, nc, name="noncompact"), Subalgebra(L, comp, name="compact")


def _closure_residual(L: LieAlgebra, br: np.ndarray, basis: np.ndarray, scale: float) -> float:
    """Relative residual of the brackets ``br`` against span(basis).

    Brackets below the noise floor ``1e-10 * scale * (1 + max |c|)`` count as
    zero, so an abelian span is closed without dividing by a rounding-level norm.
    """
    floor = 1e-10 * scale * (1.0 + float(np.abs(L.bracket_tensor).max()))
    if np.linalg.norm(br) <= floor:
        return 0.0
    return span_residual(br, basis)


def _assert_reductive(L: LieAlgebra, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Center and [L, L]; raises unless they span L with B non-degenerate on [L, L] (reductive)."""
    center = center_of(L, tol)
    derived = orth_rows(pairwise_brackets(L, np.eye(L.dim)), tol)
    if numeric_rank(stack_span(center, derived), tol) != L.dim:
        raise UnsupportedOperation("algebra is not reductive (center + derived does not span)")
    if derived.shape[0]:
        Bd = derived @ L.killing @ derived.T
        if numeric_rank(Bd, tol) != derived.shape[0]:
            raise UnsupportedOperation("algebra is not reductive (degenerate Killing on derived part)")
    return center, derived


def center_of(L: LieAlgebra, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis of the center {X : [X, -] = 0}."""
    # rows: for each basis index j and output k the map X -> c[i,j,k] X_i
    M = np.einsum("ijk->jki", L.bracket_tensor).reshape(-1, L.dim)
    return null_rows(M, tol)


def as_algebra(sub: Subalgebra, name: str = "", tol: float = 1e-8) -> LieAlgebra:
    """Restrict the ambient structure to a subalgebra, as a standalone algebra.

    The given basis and its ordering are preserved.  Matrices are
    restricted when the ambient has them; theta is restricted when the
    span is theta-stable.
    """
    L = sub.ambient
    basis = np.atleast_2d(sub.basis)
    k = basis.shape[0]
    if numeric_rank(basis) != k:
        raise InputError("subalgebra basis is not linearly independent")
    pinv = np.linalg.pinv(basis)                 # rows of coords: vec @ pinv
    c_full = brackets(L.bracket_tensor, basis, basis)
    resid = _closure_residual(L, c_full.reshape(-1, L.dim), basis,
                              float(np.linalg.norm(basis)) ** 2)
    if resid > tol:
        raise InputError(f"not a subalgebra (closure residual {resid:.2e})")
    c = np.einsum("abk,kc->abc", c_full, pinv)
    c = (c - np.einsum("abc->bac", c)) / 2.0
    c[np.abs(c) < 1e-12 * max(1.0, np.abs(c).max())] = 0.0
    mats = None
    if L.matrices is not None:
        mats = np.einsum("ai,ijk->ajk", basis, L.matrices)
    theta = None
    if L.theta is not None and in_span(basis @ L.theta.T, basis, tol):
        theta = ((basis @ L.theta.T) @ pinv).T
    labels = tuple(f"{name or sub.name or 'h'}{i}" for i in range(k))
    return LieAlgebra(labels=labels, matrices=mats, theta=theta,
                      name=name or sub.name, structure=c)


def _structure_from_matrices(mats: np.ndarray, flat_pinv: np.ndarray,
                             tol: float = 1e-7) -> np.ndarray:
    n = mats.shape[0]
    flat = mats.reshape(n, -1)
    c = np.zeros((n, n, n))
    scale = max(1.0, np.abs(mats).max())
    for i in range(n):
        com = mats[i] @ mats - mats @ mats[i]          # (n, N, N)
        coeffs = com.reshape(n, -1) @ flat_pinv
        resid = np.linalg.norm(coeffs @ flat - com.reshape(n, -1))
        if resid > tol * scale * scale * n:
            raise ConstructionError(f"matrices do not close under commutators (residual {resid:.2e})")
        c[i] = coeffs
    c = (c - np.einsum("ijk->jik", c)) / 2.0   # exact antisymmetry
    c[np.abs(c) < 1e-12 * max(1.0, np.abs(c).max())] = 0.0
    return c


# -- validation -------------------------------------------------------------

def validate_algebra(L: LieAlgebra, tol: float = 1e-8) -> None:
    """Check the structural invariants, NaN-safe; raise ConstructionError on failure."""
    if not all(np.isfinite(x).all() for x in (L.structure, L.theta, L.matrices) if x is not None):
        raise ConstructionError("structure constants, theta or matrices are not finite")
    c = L.bracket_tensor
    if not np.array_equal(c, -np.einsum("ijk->jik", c)):
        raise ConstructionError("bracket tensor is not exactly antisymmetric")
    cmax = max(np.abs(c).max(), 1.0)
    d, worst = L.dim, 0.0
    for i in range(d):          # one slice of the d^4 Jacobi tensor at a time, over (j, k)
        ijk = (c[i] @ c.reshape(d, d * d)).reshape(d, d, d)        # [[e_i, e_j], e_k]
        jki = (c.reshape(d * d, d) @ c[:, i, :]).reshape(d, d, d)  # [[e_j, e_k], e_i]
        # [[e_k, e_i], e_j] = -[[e_i, e_k], e_j] since c is exactly antisymmetric
        worst = np.maximum(worst, np.abs(ijk - ijk.transpose(1, 0, 2) + jki).max())
    if not worst <= 1e-9 * cmax * cmax * d:
        raise ConstructionError(f"Jacobi identity fails (residual {worst:.2e})")
    if L.theta is not None:
        th = L.theta
        if not np.linalg.norm(th @ th - np.eye(L.dim)) <= 1e-9 * L.dim:
            raise ConstructionError("theta is not an involution")
        lhs = c @ th.T                                 # theta([e_i, e_j])
        rhs = brackets(c, th.T, th.T)                  # [theta e_i, theta e_j]
        if not np.abs(lhs - rhs).max() <= 1e-8 * cmax:
            raise ConstructionError("theta is not an automorphism")
    if L.matrices is not None:
        mats, worst = L.matrices, 0.0
        for i in range(d):      # [M_i, M_j] against sum_k c_ijk M_k, one i at a time
            com = mats[i] @ mats - mats @ mats[i]
            worst = np.maximum(worst, np.abs(com - np.tensordot(c[i], mats, axes=(1, 0))).max())
        scale = max(np.abs(mats).max() ** 2, 1e-30)
        if not worst <= 1e-8 * scale * max(1.0, cmax):
            raise ConstructionError("matrix realization does not reproduce the bracket")


# -- JSON interchange --------------------------------------------------------

def save_algebra(L: LieAlgebra, path: str | Path) -> None:
    """Write the algebra in the interchange format (0-based sparse bracket)."""
    c = L.bracket_tensor
    entries = []
    nz = np.argwhere(c != 0.0)
    for i, j, k in nz:
        if i < j:
            entries.append([int(i), int(j), int(k), float(c[i, j, k])])
    doc = {
        "dim": L.dim,
        "labels": list(L.labels),
        "bracket": entries,
    }
    if L.theta is not None:
        doc["theta"] = L.theta.tolist()
    if L.matrices is not None:
        doc["matrices"] = L.matrices.tolist()
    if L.name:
        doc["name"] = L.name
    Path(path).write_text(json.dumps(doc))


def read_json(path: str | Path) -> dict:
    """The JSON object in a file; InputError if the file does not hold one."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InputError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: not a JSON object")
    return doc


def load_algebra(source: str | Path | dict, validate: bool = True) -> LieAlgebra:
    """Load an algebra from the interchange format, validating invariants.

    ``source`` is a file or a document already read with ``read_json``.
    """
    doc = source if isinstance(source, dict) else read_json(source)
    try:
        dim = int(doc["dim"])
        labels = doc.get("labels") or [f"e{i}" for i in range(dim)]
        c = np.zeros((dim, dim, dim))
        for i, j, k, val in doc["bracket"]:
            c[i, j, k] = val
            c[j, i, k] = -val
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed algebra file: {exc}") from exc
    if len(labels) != dim:
        raise InputError("labels length disagrees with dim")
    theta = np.array(doc["theta"], dtype=float) if doc.get("theta") is not None else None
    mats = np.array(doc["matrices"], dtype=float) if doc.get("matrices") is not None else None
    if theta is not None and theta.shape != (dim, dim):
        raise InputError("theta has the wrong shape")
    if mats is not None and (mats.ndim != 3 or mats.shape[0] != dim or mats.shape[1] != mats.shape[2]):
        raise InputError("matrices have the wrong shape")
    L = LieAlgebra(labels=tuple(labels), matrices=mats, theta=theta,
                   name=doc.get("name", ""), structure=c)
    if validate:
        validate_algebra(L)
    return L
