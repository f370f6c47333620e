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

from .linalg import brackets, in_span, numeric_rank, orth_rows, span_residual


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


# relative residual above which a matrix, or a commutator, is read as outside a realization's span
READ_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A finite-dimensional real Lie algebra on a fixed basis.

    Exactly one of ``structure`` / ``matrices`` may be omitted.  A matrix
    realization is read through one reader: its pivot entries, found once by
    elimination on the flattened basis, whose (dim, dim) block is solved for
    the coefficients of a matrix (``coefficients_of``).  Without ``structure``
    the bracket is the commutators taken at those entries only, checked to
    close on fixed probe pairs (``_realization_residual``).
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

    def _set_theta(self, theta: np.ndarray) -> None:
        """Set the theta of an algebra built without one.  Theta read at this algebra's own
        pivot entries is set here, not on a copy: a copy would search for them again."""
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def bracket_tensor(self) -> np.ndarray:
        if self.structure is not None:
            return self.structure
        entries, inv = self._pivots
        r, s = np.divmod(entries, self.matrices.shape[1])
        # prod[p, i, j] = (M_i M_j)[r[p], s[p]], and read[i, j] the coefficients read off
        # M_i M_j.  Each product is a stack of small blocks: BLAS would split one large
        # product over threads, which can stall for milliseconds
        prod = self.matrices[:, r].transpose(1, 0, 2) @ self.matrices.transpose(2, 1, 0)[s]
        read = prod.transpose(1, 2, 0) @ inv
        c = read - read.transpose(1, 0, 2)                 # exactly antisymmetric
        resid = _realization_residual(self.matrices, c)
        if not resid <= READ_TOL:
            raise ConstructionError(f"matrices do not close under commutators "
                                    f"(residual {resid:.2e})")
        c.setflags(write=False)
        return c

    @cached_property
    def _pivots(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat entries at which the realization is read, one per basis element, and the
        inverse of the basis's block at them.  Element i takes the largest entry (the first
        of equals) left after eliminating the entries of the elements before it; InputError
        if none is left above READ_TOL of its own largest entry."""
        if self.matrices is None:
            raise UnsupportedOperation(f"{self.name or 'algebra'} has no matrix realization")
        flat = self.matrices.reshape(self.dim, -1)
        rest, cols, floor = flat.copy(), np.zeros(self.dim, dtype=np.intp), abs(flat).max(1)
        for i, row in enumerate(rest):
            cols[i] = p = abs(row).argmax()
            if not abs(row[p]) > READ_TOL * floor[i]:                       # NaN fails
                raise InputError("the realization matrices are not linearly independent")
            later = i + 1 + np.flatnonzero(rest[i + 1:, p])
            if later.size:
                rest[later] -= np.outer(rest[later, p] / row[p], row)
        return cols, np.linalg.inv(flat[:, cols])

    @cached_property
    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j dim + k, c[i, j, k]) of the nonzero constants, in the flat C order of
        ``to_entries``."""
        c = self.bracket_tensor
        index = np.flatnonzero(c)
        return *np.divmod(index, self.dim * self.dim), c.ravel()[index]

    @cached_property
    def killing(self) -> np.ndarray:
        """B(e_i, e_j) = tr(ad e_i ad e_j) = sum_{l,k} c[i, l, k] c[j, k, l], as one GEMM."""
        n, c = self.dim, self.bracket_tensor
        B = c.reshape(n, n * n) @ c.transpose(0, 2, 1).reshape(n, n * n).T
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
        """The matrix of ad(X), column j holding [X, e_j].

        Each nonzero c[i, j, k] adds X[i] c[i, j, k] to entry (k, j), so the cost is the
        number of nonzeros, not dim^3; a bracket with no zero constants pays about 15 times
        a dense product for that.
        """
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim,):
            raise InputError(f"coefficient vector must have length {self.dim}")
        i, jk, value = self._nonzeros
        return np.bincount(jk, X[i] * value, self.dim ** 2).reshape(self.dim, self.dim).T

    def coefficients_of(self, M: np.ndarray) -> np.ndarray:
        """Coefficients of a realization matrix or a stack, read at the pivot entries;
        InputError if one leaves the span."""
        cols, inv = self._pivots
        M = np.asarray(M, dtype=float)
        stack = M.reshape(-1, *self.matrices.shape[1:])
        coeff = stack.reshape(len(stack), -1)[:, cols] @ inv
        # sum_i coeff[a, i] M_i one matrix row at a time, for the reason given in bracket_tensor
        back = (coeff @ self.matrices.transpose(1, 0, 2)).transpose(1, 0, 2)
        back -= stack
        rel = (np.linalg.norm(back, axis=(1, 2))
               / np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1e-30))
        if rel.size and not rel.max() <= READ_TOL:
            raise InputError(f"matrix not in the realization span (residual {rel.max():.2e})")
        return coeff[0] if M.ndim == 2 else coeff

    def ad_group(self, word: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
        """Ad(exp X_1 ... exp X_k) applied to every row of ``rows``.

        ``word`` is a ``(k, dim)`` array whose rows X_1, ..., X_k are
        ad-nilpotent.  Row i of the result is exp(ad X_1) ... exp(ad X_k)
        rows[i], each factor the finite series of ``_exp_nilpotent`` cut at
        ``depth`` (``RestrictedRootData.depth``); the empty word is the
        identity.  The rows of ``eye(dim)`` give the transpose of Ad.
        """
        word = np.asarray(word, dtype=float)
        if word.ndim != 2 or word.shape[1] != self.dim:
            raise InputError(f"a group element is a (k, {self.dim}) word of coefficient vectors")
        out = np.array(rows, dtype=float)
        for X in word[::-1]:            # v @ ad(X).T = [X, v]
            out = _exp_nilpotent(out, self.ad(X).T, depth)
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
    bound = len(A) * depth * _EPS * np.abs(rows).sum(axis=-1)
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
        if basis.ndim != 2:
            raise InputError(f"a subalgebra basis is a 2-D array of rows, not {basis.ndim}-D")
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
        """InputError unless the basis is finite, independent and closed under the bracket."""
        if self.dim == 0:
            return
        if not np.isfinite(self.basis).all():
            raise InputError(f"{self.name or 'subalgebra'}: basis is not finite")
        if numeric_rank(self.basis) != self.dim:
            raise InputError(f"{self.name or 'subalgebra'}: basis is not linearly independent")
        br = pairwise_brackets(self.ambient, self.basis)
        scale = float(np.linalg.norm(self.basis)) ** 2
        if not _closure_residual(self.ambient, br, self.basis, scale) <= tol:
            raise InputError(f"{self.name or 'subalgebra'}: not closed under the bracket")

    def contains(self, other: "Subalgebra | np.ndarray") -> bool:
        vecs = other.basis if isinstance(other, Subalgebra) else np.atleast_2d(other)
        return in_span(vecs, self.basis)


def subalgebra(ambient: LieAlgebra, basis: np.ndarray, name: str = "") -> Subalgebra:
    """A validated ``Subalgebra``: InputError unless the basis spans a subalgebra."""
    sub = Subalgebra(ambient, basis, name)
    sub.validate()
    return sub


# -- module-level operations ----------------------------------------------

def pairwise_brackets(L: LieAlgebra, basis: np.ndarray) -> np.ndarray:
    """All brackets [b_i, b_j], i < j, row-stacked."""
    basis = np.atleast_2d(basis)
    k = basis.shape[0]
    if k < 2:
        return np.zeros((0, L.dim))
    out = brackets(L.bracket_tensor, basis, basis)
    idx = np.triu_indices(k, 1)
    return out[idx]


def cartan_decomposition(L: LieAlgebra) -> tuple[Subalgebra, np.ndarray]:
    """(k, s): +1 eigenspace of theta as a subalgebra, -1 eigenspace as a basis.

    Eigenspaces come from the projectors (1 ± theta)/2, whose singular
    values sit at 0 and 1, so the rank cut is scale-robust even when one
    eigenspace is empty.
    """
    if L.theta is None:
        raise UnsupportedOperation("cartan_decomposition requires theta")
    k = orth_rows(((np.eye(L.dim) + L.theta) / 2.0).T, scale=1.0)
    s = orth_rows(((np.eye(L.dim) - L.theta) / 2.0).T, scale=1.0)
    if k.shape[0] + s.shape[0] != L.dim:
        raise ConstructionError("theta eigenspaces do not fill the algebra")
    return Subalgebra(L, k, name="k"), s


def _closure_residual(L: LieAlgebra, br: np.ndarray, basis: np.ndarray, scale: float) -> float:
    """Relative residual of the brackets ``br`` against span(basis).

    Brackets below the noise floor ``1e-10 * scale * (1 + max |c|)`` count as
    zero, so an abelian span is closed without dividing by a rounding-level norm.
    """
    floor = 1e-10 * scale * (1.0 + float(np.abs(L.bracket_tensor).max()))
    if np.linalg.norm(br) <= floor:
        return 0.0
    return span_residual(br, basis)


def _realization_residual(mats: np.ndarray, c: np.ndarray) -> float:
    """Largest |[X, Y] - sum_k c(x, y)_k M_k| over three fixed pairs (sines of integers:
    every coefficient nonzero), relative to the largest |X| |Y|."""
    X, Y = np.sin(np.arange(1, 6 * len(mats) + 1)).reshape(2, 3, len(mats))
    MX, MY = np.tensordot(X, mats, 1), np.tensordot(Y, mats, 1)
    coeffs = brackets(c, X, Y)[[0, 1, 2], [0, 1, 2]]                  # [x_a, y_a]
    resid = MX @ MY - MY @ MX - np.tensordot(coeffs, mats, 1)
    return float(np.abs(resid).max() / max(np.abs(MX).max() * np.abs(MY).max(), 1e-300))


# -- validation -------------------------------------------------------------

# output keys summed at once, joined pairs made at once and lead records read at once, per
# dim^3: the checks hold O(dim^3) floats however dense the bracket is
_KEYS_PER_CUBE, _PAIRS_PER_CUBE, _LEADS_PER_CUBE = 2.0, 0.0625, 0.03125


def _largest_sum(joins, first: np.ndarray, keys: np.ndarray, cube: int) -> float:
    """The largest |sum| of the products of joined nonzero records, summed by output key;
    NaN if a sum is not finite, so that an overflow fails its check even where the bound
    overflows too (the dense products met inf - inf there).

    Keys are summed in chunks [x0, x1) of a leading index whose keys are keys[x0], ...,
    keys[x1] - 1 and whose lead records are first[x0], ..., first[x1] - 1; a chunk holds
    one index, or as many as fit in _KEYS_PER_CUBE cube keys and _LEADS_PER_CUBE cube
    leads.  ``joins(x0, x1)`` gives the chunk's joins (begin, end, key, value,
    partner_key, partner_value, table): lead p meets the partner records q = begin[p], ...,
    end[p] - 1, and each pair adds value[p] * partner_value[q] at key[p] + partner_key[q],
    or at key[p] + table[partner_key[q]] if ``table`` is not None, counted from keys[x0].
    Leads go in runs of about _PAIRS_PER_CUBE cube pairs.
    """
    chunks, x0 = [], 0
    while x0 < len(first) - 1:
        x1 = min(np.searchsorted(keys, keys[x0] + _KEYS_PER_CUBE * cube, side="right"),
                 np.searchsorted(first, first[x0] + _LEADS_PER_CUBE * cube, side="right"))
        chunks.append((x0, max(x1 - 1, x0 + 1)))
        x0 = chunks[-1][1]
    buf = np.zeros(max((keys[x1] - keys[x0] for x0, x1 in chunks), default=0))
    batch, worst = max(int(_PAIRS_PER_CUBE * cube), 1), 0.0
    for x0, x1 in chunks:
        acc = buf[:keys[x1] - keys[x0]]
        acc.fill(0.0)
        for begin, end, key, value, partner_key, partner_value, table in joins(x0, x1):
            count = end - begin
            ends = np.cumsum(count)
            cuts = np.searchsorted(ends, np.arange(batch, ends[-1] if ends.size else 0, batch),
                                   side="right")
            for b0, b1 in zip([0, *cuts], [*cuts, len(count)]):
                if b0 == b1:
                    continue
                n, start = count[b0:b1], ends[b0:b1] - count[b0:b1]
                q = np.arange(start[0], ends[b1 - 1]) + np.repeat(begin[b0:b1] - start, n)
                part = partner_key[q] if table is None else table[partner_key[q]]
                np.add.at(acc, np.repeat(key[b0:b1], n) + part,
                          np.repeat(value[b0:b1], n) * partner_value[q])
        worst = np.maximum(worst, np.abs(acc, out=acc).max(initial=0.0))
    return float(worst) if worst < np.inf else np.nan


def _offsets(index: np.ndarray, size: int) -> np.ndarray:
    """Where each k = 0, ..., size starts among the entries of ``index`` put in order: the
    number of entries below k."""
    return np.concatenate(([0], np.cumsum(np.bincount(index, minlength=size))))


def _pairs_by_last(L: LieAlgebra, scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants c[a, b, l] with a < b ordered by (l, b): the offsets of each (l, b) at
    l dim + b, and each constant's pair number b (b - 1) / 2 + a times ``scale``, and its
    value."""
    d = L.dim
    i, jk, v = L._nonzeros
    half = np.flatnonzero(i < jk // d)
    lb = jk[half] % d * d + jk[half] // d              # l d + b
    order = np.argsort(lb, kind="stable")
    half, lb = half[order], lb[order]
    pairs = np.arange(d) * np.arange(-1, d - 1) // 2   # b (b - 1) / 2
    return _offsets(lb, d * d), (pairs[lb % d] + i[half]) * scale, v[half]


def _jacobi_residual(L: LieAlgebra) -> float:
    """The largest |J(lo, mid, hi)_m| over lo < mid < hi, J(x, y, z) = A(x, y, z) +
    A(y, z, x) + A(z, x, y) and A(a, b, k)_m = sum_l c[a, b, l] c[l, k, m].

    With c exactly antisymmetric, J is the sum of the products c[a, b, l] c[l, k, m] with
    a < b and k outside {a, b} (the others cancel), each one term of the J of the sorted
    triple {a, b, k}, negated when a < k < b.  They are summed in chunks of whole hi, into
    keys (triple, m) with triples numbered hi (hi - 1) (hi - 2) / 6 + mid (mid - 1) / 2 +
    lo.  The leads are the nonzeros c[x, y, z] with x in the chunk: as c[a, b, l] =
    -c[x, y, z] (b = x, a = y) they meet the c[l, k, m] with k < a and with a < k < b, and
    as c[l, k, m] = -c[x, y, z] (k = x, l = y) the c[a, b, l] with b < k.
    """
    d = L.dim
    i, jk, v = L._nonzeros
    before = _offsets(i * d + jk // d, d * d)       # first c[x, y, .] at before[x d + y]
    pair_before, pair_key, pair_value = _pairs_by_last(L, d)
    n = np.arange(d + 1)
    c2, c3 = n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6
    mid_key = (c2[:d, None] * d + n[:d]).ravel()              # c2[k] d + m at k d + m

    def joins(h0, h1):
        run = slice(before[h0 * d], before[h1 * d])
        x, (y, z), w = i[run], np.divmod(jk[run], d), v[run]
        base = c3[x] - c3[h0]
        low = np.flatnonzero(y < x)                             # b = x, a = y, l = z
        xl, yl, zl, wl, bl = x[low], y[low], z[low], w[low], base[low]
        yield (before[zl * d], before[zl * d + yl], (bl + c2[yl]) * d, -wl,
               jk, v, None)                                             # k < a
        yield (before[zl * d + yl + 1], before[zl * d + xl], (bl + yl) * d, wl,
               jk, v, mid_key)                                          # a < k < b
        yield (pair_before[y * d], pair_before[y * d + x], base * d + z, -w,
               pair_key, pair_value, None)                              # b < k

    return _largest_sum(joins, before[::d], c3 * d, d ** 3)


def _matrix_residual(L: LieAlgebra) -> float:
    """The largest |([M_a, M_b] - sum_k c[a, b, k] M_k)[r, s]| over a < b and all r, s.

    Each nonzero M_y[t, s] leads: it meets the M_x[r, t] of column t, whose product goes
    to [M_x, M_y][r, s] when x < y and, negated, to [M_y, M_x][r, s] when x > y, and it
    meets the c[a, b, y] with a < b, whose -c[a, b, y] M_y[t, s] goes to pair (a, b) at
    (t, s).  Summed in chunks of whole columns s, into keys (s, r, pair) with pairs
    numbered b (b - 1) / 2 + a.
    """
    d, mats = L.dim, L.matrices
    N, pairs = mats.shape[1], d * (d - 1) // 2
    by_col = np.ascontiguousarray(mats.transpose(2, 0, 1))     # by_col[s, x, r] = M_x[r, s]
    flat = np.flatnonzero(by_col)
    val = by_col.ravel()[flat]
    before = _offsets(flat // N, N * d)             # first M_x[., s] at before[s d + x]
    s, (x, r) = flat // (d * N), np.divmod(flat % (d * N), N)
    pair_before, pair, pair_value = _pairs_by_last(L, 1)
    c2 = np.arange(d) * np.arange(-1, d - 1) // 2
    low_key, high_key = r * pairs + x, r * pairs + c2[x]     # x the lower, the higher index

    def joins(s0, s1):
        run = slice(before[s0 * d], before[s1 * d])
        y, t, w = x[run], r[run], val[run]
        base = (s[run] - s0) * N * pairs
        yield before[t * d], before[t * d + y], base + c2[y], w, low_key, val, None  # x < y
        yield (before[t * d + y + 1], before[t * d + d], base + y, -w,
               high_key, val, None)                                             # x > y
        yield (pair_before[y * d], pair_before[y * d + d], base + t * pairs, -w,
               pair, pair_value, None)                                          # c M

    return _largest_sum(joins, before[::d], np.arange(N + 1) * N * pairs, d ** 3)


def validate_algebra(L: LieAlgebra) -> None:
    """Check the structural invariants, NaN-safe; raise ConstructionError on failure."""
    if not all(np.isfinite(x).all() for x in (L.structure, L.theta, L.matrices) if x is not None):
        raise ConstructionError("structure constants, theta or matrices are not finite")
    c = L.bracket_tensor
    if not np.array_equal(c, -c.transpose(1, 0, 2)):
        raise ConstructionError("bracket tensor is not exactly antisymmetric")
    cmax = max(np.abs(c).max(), 1.0)
    worst = _jacobi_residual(L)
    if not worst <= 1e-9 * cmax * cmax * L.dim:
        raise ConstructionError(f"Jacobi identity fails (residual {worst:.2e})")
    if L.theta is not None:
        th = L.theta
        if not np.linalg.norm(th @ th - np.eye(L.dim)) <= 1e-9 * L.dim:
            raise ConstructionError("theta is not an involution")
        diff = c @ th.T                                # theta([e_i, e_j])
        diff -= brackets(c, th.T, th.T)                # [theta e_i, theta e_j]
        if not np.abs(diff, out=diff).max() <= 1e-8 * cmax:
            raise ConstructionError("theta is not an automorphism")
    if L.matrices is not None:
        worst = _matrix_residual(L)
        scale = max(np.abs(L.matrices).max() ** 2, 1e-30)
        if not worst <= 1e-8 * scale * max(1.0, cmax):
            raise ConstructionError("matrix realization does not reproduce the bracket")


# -- JSON interchange --------------------------------------------------------

def to_entries(a: np.ndarray, bracket: bool = False) -> dict:
    """The nonzeros of ``a`` (a -0.0 is a zero) as ``{"index": flat indices, "value": values}``
    in C order; of an antisymmetric ``bracket`` c, only its c[i, j, k] with i < j."""
    keep = a != 0.0
    if bracket:
        keep &= np.triu(np.ones(a.shape[:2], dtype=bool), 1)[:, :, None]
    index = np.flatnonzero(keep)
    return {"index": index.tolist(), "value": a.ravel()[index].tolist()}


def from_entries(entries: dict, shape: tuple[int, ...], bracket: bool = False) -> np.ndarray:
    """The float array of ``shape`` that holds ``entries`` (as ``to_entries`` writes them)
    and zeros elsewhere; a ``bracket`` is mirrored, c[j, i, k] = -c[i, j, k], so it comes
    back exactly antisymmetric.

    Raises ValueError unless every index is an integer inside the array, no index repeats,
    every value is finite and, for a bracket, every entry has i < j.
    """
    index, value = np.asarray(entries["index"]), np.asarray(entries["value"], dtype=float)
    if index.ndim != 1 or index.shape != value.shape:
        raise ValueError("entries are not two lists of equal length")
    # an empty list reads as floats, and numpy reads JSON's true among integers as 1
    if index.size and (index.dtype.kind != "i" or bool in map(type, entries["index"])):
        raise ValueError("an entry index is not an integer")
    out, index = np.zeros(shape), index.astype(np.intp)
    if index.size and not 0 <= index.min() <= index.max() < out.size:
        raise ValueError(f"an entry index lies outside the {out.size} entries of {shape}")
    # sort and compare neighbours: np.unique without return_inverse would import numpy.ma
    ordered = np.sort(index)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("an entry is repeated")
    if not np.isfinite(value).all():
        raise ValueError("an entry value is not finite")
    if not bracket:
        out.flat[index] = value
        return out
    i, j, k = np.unravel_index(index, shape)
    if (i >= j).any():
        raise ValueError("a bracket entry c[i, j, k] has i >= j")
    out[i, j, k], out[j, i, k] = value, -value
    return out


def save_algebra(L: LieAlgebra, path: str | Path) -> None:
    """Write the algebra in the interchange format (0-based sparse bracket)."""
    n, entries = L.dim, to_entries(L.bracket_tensor, bracket=True)
    doc = {
        "dim": n,
        "labels": list(L.labels),
        "bracket": [[f // (n * n), f // n % n, f % n, val]
                    for f, val in zip(entries["index"], entries["value"])],
    }
    if L.theta is not None:
        doc["theta"] = L.theta.tolist()
    if L.matrices is not None:
        doc["matrices"] = L.matrices.tolist()
    if L.name:
        doc["name"] = L.name
    Path(path).write_text(json.dumps(doc))


def read_json(path: str | Path) -> dict:
    """The JSON object in a file; InputError if the file does not hold one, or nests too
    deeply for the parser."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: not a JSON object")
    return doc


def load_algebra(source: str | Path | dict) -> LieAlgebra:
    """Load an algebra from the interchange format, validating invariants.

    ``source`` is a file or a document already read with ``read_json``.
    """
    doc = source if isinstance(source, dict) else read_json(source)
    try:
        dim = doc["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise TypeError(f"dim is not an integer: {dim!r}")
        if dim < 1:
            raise ValueError(f"dim is not positive: {dim}")
        labels, name = doc.get("labels", [f"e{i}" for i in range(dim)]), doc.get("name", "")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise TypeError(f"labels are not a list of strings: {labels!r}")
        if not isinstance(name, str):
            raise TypeError(f"name is not a string: {name!r}")
        index, value = [], []
        for i, j, k, val in doc["bracket"]:
            # checked before flattening, which could turn -1 or a boolean into a valid index
            if any(isinstance(x, bool) or not 0 <= x < dim for x in (i, j, k)):
                raise IndexError(f"bracket index outside the integers [0, {dim}): {[i, j, k]}")
            index.append((i * dim + j) * dim + k)
            value.append(val)
        c = from_entries({"index": index, "value": value}, (dim, dim, dim), bracket=True)
        theta = np.array(doc["theta"], dtype=float) if doc.get("theta") is not None else None
        mats = np.array(doc["matrices"], dtype=float) if doc.get("matrices") is not None else None
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed algebra file: {exc}") from exc
    if len(labels) != dim:
        raise InputError("labels length disagrees with dim")
    if theta is not None and theta.shape != (dim, dim):
        raise InputError("theta has the wrong shape")
    if mats is not None and (mats.ndim != 3 or mats.shape[0] != dim or mats.shape[1] != mats.shape[2]):
        raise InputError("matrices have the wrong shape")
    L = LieAlgebra(labels=labels, matrices=mats, theta=theta, name=name, structure=c)
    validate_algebra(L)
    return L
