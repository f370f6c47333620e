"""Named catalog of (ambient, subalgebra) pairs with expected verdicts.

Entry names follow the CLI convention ``suite:ambient:subalgebra`` for the
systematic suites (``berger:`` symmetric pairs, ``max:`` maximal
non-symmetric pairs, ``ml:`` sphere-transitive compact-factor pairs) and
short ``ambient:recipe`` names for the rank-one workhorse examples.  Short
aliases like ``so15:so11+su2`` resolve to their systematic rows.

Each row carries its recipe ``(g, P) -> h``: the subalgebra inside the
registry algebra ``g`` with its standard parabolic ``P``.  A ``berger:`` row
is a symmetric pair; no verdict reads the automorphism that fixes its h, so
only the tests build it.  Only the recipes of the f4 rows touch the f4
bundle, and each reads its subalgebra through ``jordan.f4_subalgebra``,
which raises if the subalgebra does not validate; listing the catalog or
looking up an entry never loads f4.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .core import LieAlgebra, Subalgebra, cartan_decomposition, subalgebra
from .linalg import stack_span
from .realforms import (_FIELD, ParabolicData, classical_basis, from_matrices, get_algebra,
                        minimal_parabolic, realify, restricted_roots)

EXPECT_SPHERICAL = "spherical"
EXPECT_NOT_SPHERICAL = "not-spherical"
EXPECT_OBSTRUCTED = "dimension-obstructed"

# expected column -> the report verdicts that satisfy it
VERDICT_MATCHES = {
    EXPECT_SPHERICAL: {"spherical"},
    EXPECT_NOT_SPHERICAL: {"not-spherical-at-confidence", "dimension-obstructed"},
    EXPECT_OBSTRUCTED: {"dimension-obstructed"},
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ambient: str
    subalgebra: str
    expected: str
    provenance: str
    status: str = "full"                # every row; the JSON listing carries it
    orbit_count: Optional[int] = None   # for non-reductive h inside p


@dataclass
class PairData:
    entry: CatalogEntry
    g: LieAlgebra
    P: ParabolicData
    h: Subalgebra


_Recipe = Callable[[LieAlgebra, ParabolicData], Subalgebra]


@dataclass(frozen=True)
class _Row:
    entry: CatalogEntry
    recipe: _Recipe


def _pad(X: np.ndarray, N: int, offset: int) -> np.ndarray:
    """The stack X (d, k, k, ...) placed at [offset, offset + k) in (d, N, N, ...) zeros."""
    out = np.zeros((len(X), N, N) + X.shape[3:])
    k = X.shape[1]
    out[:, offset:offset + k, offset:offset + k] = X
    return out


# -- recipes: (g, P, *params) -> h --------------------------------------------

def _maximal_compact(g: LieAlgebra, P: ParabolicData, name: str):
    k, _ = cartan_decomposition(g)
    return subalgebra(g, k.basis, name=name)


def _slots(g: LieAlgebra, P: ParabolicData, assignment: tuple[int, ...], name: str):
    """Image of the factor power L^k in L^len(assignment): slot s carries factor assignment[s].

    (0, 0, 0) is the diagonal, (0, 0, 1) is (x, y) -> (x, x, y).
    """
    fills = np.equal.outer(np.arange(max(assignment) + 1), assignment).astype(float)
    return subalgebra(g, np.kron(fills, np.eye(g.dim // len(assignment))), name=name)


def _block_sum(g: LieAlgebra, P: ParabolicData, N: int,
               blocks: tuple[tuple[str, int, int, int], ...]):
    """Direct sum of realified classical blocks (family, p, q, offset) in N x N matrices."""
    mats = [_pad(realify(classical_basis(fam, p, q)[1], _FIELD[fam]), N, off)
            for fam, p, q, off in blocks]
    name = "+".join(f"{fam}({p},{q})" if p else f"{fam}({q})" for fam, p, q, _ in blocks)
    return from_matrices(g, np.concatenate(mats), name=name)


def _su_blocks(g: LieAlgebra, P: ParabolicData, n: int, m: int):
    """s(u(1,m) x u(n-m)) realified inside su(1,n)."""
    N = n + 1
    # the su parts of both blocks, and the trace-balancing i diag(a I_{m+1}, b I_{n-m}),
    # (m+1)a + (n-m)b = 0
    D = np.zeros((1, N, N, 2))
    D[0, :, :, 1] = np.diag([float(n - m)] * (m + 1) + [-float(m + 1)] * (n - m))
    blocks = ((1, m, 0), (0, n - m, m + 1))
    X = [_pad(classical_basis("su", p, q)[1], N, off) for p, q, off in blocks] + [D]
    return from_matrices(g, realify(np.concatenate(X), "C"), name=f"s(u(1,{m})+u({n - m}))")


def _so_in_su(g: LieAlgebra, P: ParabolicData, n: int):
    """so(1,n) (real matrices) inside su(1,n), fixed by complex conjugation."""
    return from_matrices(g, realify(classical_basis("so", 1, n)[1], "C"), name=f"so(1,{n})")


def _u_in_sp(g: LieAlgebra, P: ParabolicData, n: int):
    """u(1,n) (complex scalars inside the quaternions) inside sp(1,n)."""
    return from_matrices(g, realify(classical_basis("su", 1, n, traceless=False)[1], "H"),
                         name=f"u(1,{n})")


def _so_sp1(g: LieAlgebra, P: ParabolicData, n: int):
    """so(1,n) (real matrices) + sp(1) (imaginary scalars) inside sp(1,n)."""
    scalars = classical_basis("sp", 1, 0)[1] * np.eye(n + 1)[:, :, None]
    mats = [realify(X, "H") for X in (classical_basis("so", 1, n)[1], scalars)]
    return from_matrices(g, np.concatenate(mats), name=f"so(1,{n})+sp(1)")


def _f4_pair(g: LieAlgebra, P: ParabolicData, key: str):
    """The f4 bundle's validated subalgebra ``key``."""
    from .jordan import f4_bundle, f4_subalgebra
    return f4_subalgebra(f4_bundle(), key)


# -- catalog assembly ---------------------------------------------------------

_ALIASES = {
    "so15:so11+su2": "ml:so(1,5):so(1,1)+su(2)",
    "so15:so11+so4": "berger:so(1,5):so(1,1)+so(4)",
    "sl2^3:sl2x2": "sl2^3:sl2^2",
}


def _berger_blocks(fam: str, n: int, m: int) -> _Row:
    """The symmetric pair fam(1,m) + fam(n-m) in block position inside fam(1,n), fam so or sp."""
    width = 1 if fam == "so" else 4   # sp blocks are realified entrywise, 4 x 4 per quaternion
    sub = f"{fam}(1,{m})+{fam}({n - m})"
    return _Row(CatalogEntry(f"berger:{fam}(1,{n}):{sub}", f"{fam}(1,{n})", f"{sub} block pair",
                             EXPECT_SPHERICAL, "symmetric pair"),
                partial(_block_sum, N=width * (n + 1),
                        blocks=((fam, 1, m, 0), (fam, 0, n - m, width * (m + 1)))))


@lru_cache(maxsize=None)
def _rows(n_max: int) -> tuple[_Row, ...]:
    """Deterministically ordered rows; the berger sweeps cover 2 <= n <= n_max."""
    rows = [
        _Row(CatalogEntry("sl2:k", "sl2", "maximal compact so(2)", EXPECT_SPHERICAL,
                          "one-dimensional subalgebra, symmetric"),
             partial(_maximal_compact, name="k")),
        _Row(CatalogEntry("sl2:a", "sl2", "split torus a", EXPECT_SPHERICAL,
                          "one-dimensional subalgebra, symmetric", orbit_count=4),
             lambda g, P: subalgebra(g, P.roots.a, name="a")),
        _Row(CatalogEntry("sl2:n", "sl2", "nilpotent line n", EXPECT_SPHERICAL,
                          "one-dimensional subalgebra, nilpotent", orbit_count=2),
             lambda g, P: subalgebra(g, P.n.basis, name="n")),
        _Row(CatalogEntry("so13:ma", "so(1,3)", "m + a inside p", EXPECT_SPHERICAL,
                          "parabolic Levi factor", orbit_count=3),
             lambda g, P: subalgebra(g, stack_span(P.m.basis, P.roots.a), name="m+a")),
        _Row(CatalogEntry("sl2^3:diag", "sl2^3", "diagonal copy of sl2", EXPECT_SPHERICAL,
                          "diagonal in a triple product"),
             partial(_slots, assignment=(0, 0, 0), name="diag")),
        _Row(CatalogEntry("sl2^3:sl2^2", "sl2^3", "(x,y) -> (x,x,y)", EXPECT_SPHERICAL,
                          "partial diagonal, symmetric in the product"),
             partial(_slots, assignment=(0, 0, 1), name="sl2^2:(x,x,y)")),
        _Row(CatalogEntry("sl3:so3", "sl3", "maximal compact so(3)", EXPECT_SPHERICAL,
                          "maximal compact subalgebra"),
             partial(_maximal_compact, name="so(3)")),
    ]

    for n in range(2, n_max + 1):
        rows += [_berger_blocks("so", n, m) for m in range(1, n)]
    for n in range(2, n_max + 1):
        for m in range(1, n):
            rows.append(_Row(CatalogEntry(
                f"berger:su(1,{n}):s(u(1,{m})+u({n - m}))", f"su(1,{n})",
                f"s(u(1,{m})+u({n - m})) block pair", EXPECT_SPHERICAL, "symmetric pair"),
                partial(_su_blocks, n=n, m=m)))
        rows.append(_Row(CatalogEntry(
            f"berger:su(1,{n}):so(1,{n})", f"su(1,{n})",
            f"real form so(1,{n})", EXPECT_SPHERICAL, "symmetric pair"),
            partial(_so_in_su, n=n)))
    for n in range(2, n_max + 1):
        rows += [_berger_blocks("sp", n, m) for m in range(1, n)]
        rows.append(_Row(CatalogEntry(
            f"berger:sp(1,{n}):u(1,{n})", f"sp(1,{n})",
            f"complex restriction u(1,{n})", EXPECT_SPHERICAL, "symmetric pair"),
            partial(_u_in_sp, n=n)))

    for sub in ("so(1,8)", "sp(1,2)+sp(1)"):
        rows.append(_Row(CatalogEntry(
            f"berger:f4:{sub}", "f4", f"fixed algebra {sub}", EXPECT_SPHERICAL,
            "symmetric pair (exceptional)"),
            partial(_f4_pair, key=sub)))

    rows += [
        _Row(CatalogEntry("ml:so(1,5):so(1,1)+su(2)", "so(1,5)", "so(1,1)+su(2) block pair",
                          EXPECT_SPHERICAL, "compact factor transitive on spheres"),
             partial(_block_sum, N=6, blocks=(("so", 1, 1, 0), ("su", 0, 2, 2)))),
        _Row(CatalogEntry("ml:so(1,5):so(1,1)+sp(1)", "so(1,5)", "so(1,1)+sp(1) block pair",
                          EXPECT_SPHERICAL, "compact factor transitive on spheres"),
             partial(_block_sum, N=6, blocks=(("so", 1, 1, 0), ("sp", 0, 1, 2)))),
        # the so(1,n) sweep lists this row from n = 5
        *([_berger_blocks("so", 5, 1)] if n_max < 5 else []),
        _Row(CatalogEntry("max:sp(1,2):so(1,2)+sp(1)", "sp(1,2)", "so(1,2)+sp(1)",
                          EXPECT_OBSTRUCTED, "maximal reductive, non-symmetric"),
             partial(_so_sp1, n=2)),
        _Row(CatalogEntry("max:sp(1,3):so(1,3)+sp(1)", "sp(1,3)", "so(1,3)+sp(1)",
                          EXPECT_OBSTRUCTED, "maximal reductive, non-symmetric"),
             partial(_so_sp1, n=3)),
        _Row(CatalogEntry("max:f4:su(2,1)+su(3)", "f4", "su(2,1)+su(3)",
                          EXPECT_NOT_SPHERICAL, "maximal reductive, non-symmetric"),
             partial(_f4_pair, key="su21+su3")),
        _Row(CatalogEntry("max:f4:so(1,2)+g2", "f4", "so(1,2)+g2",
                          EXPECT_NOT_SPHERICAL, "maximal reductive, non-symmetric"),
             partial(_f4_pair, key="so12+g2")),
    ]
    return tuple(rows)


def catalog_entries(n_max: int = 4) -> list[CatalogEntry]:
    """Deterministically ordered catalog; the berger sweeps cover 2 <= n <= n_max."""
    return [row.entry for row in _rows(n_max)]


def _row(name: str, n_max: int) -> _Row:
    name = _ALIASES.get(name, name)
    for row in _rows(max(n_max, 4)):
        if row.entry.name == name:
            return row
    raise KeyError(name)


def get_entry(name: str, n_max: int = 4) -> CatalogEntry:
    return _row(name, n_max).entry


@lru_cache(maxsize=None)
def _parabolic(g: LieAlgebra, ambient: str) -> ParabolicData:
    """Standard parabolic; for product ambients the same factor parabolic is replicated."""
    m = re.match(r"^(sl\d+)\^(\d+)$", ambient)
    if m:
        factor = get_algebra(m.group(1))
        copies = int(m.group(2))
        a1 = _parabolic_for(m.group(1)).roots.a
        rows = np.zeros((copies * a1.shape[0], g.dim))
        for c in range(copies):
            rows[c * a1.shape[0]:(c + 1) * a1.shape[0],
                 c * factor.dim:(c + 1) * factor.dim] = a1
        roots = restricted_roots(g, a_basis=rows, xi=np.ones(rows.shape[0]))
        return minimal_parabolic(g, roots)
    return minimal_parabolic(g)


def _parabolic_for(ambient: str) -> ParabolicData:
    """Standard parabolic of the registry algebra ``ambient`` (f4 follows the current bundle)."""
    return _parabolic(get_algebra(ambient), ambient)


def build_pair(name: str, n_max: int = 4) -> PairData:
    """Construct (g, P, h) for a catalog entry name or alias."""
    row = _row(name, n_max)
    g = get_algebra(row.entry.ambient)
    P = _parabolic_for(row.entry.ambient)
    return PairData(entry=row.entry, g=g, P=P, h=row.recipe(g, P))
