"""Named catalog of (ambient, subalgebra) pairs with expected verdicts.

Entry names follow the CLI convention ``suite:ambient:subalgebra`` for the
systematic suites (``berger:`` symmetric pairs, ``max:`` maximal
non-symmetric pairs, ``ml:`` sphere-transitive compact-factor pairs) and
short ``ambient:recipe`` names for the rank-one workhorse examples.  Short
aliases like ``so15:so11+su2`` resolve to their systematic rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import InputError, LieAlgebra, Subalgebra, cartan_decomposition, subalgebra
from .linalg import stack_span
from .realforms import (ParabolicData, _complex_to_quaternion_real, build_classical,
                        embed_division, get_algebra, matrix_involution, minimal_parabolic,
                        realify_complex, realify_quaternion, restricted_roots)

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
    status: str = "full"                # full | dimension-only
    orbit_count: Optional[int] = None   # for non-reductive h inside p


@dataclass
class PairData:
    entry: CatalogEntry
    g: LieAlgebra
    P: ParabolicData
    h: Subalgebra
    sigma: Optional[np.ndarray] = None  # involution fixing h (symmetric pairs)


def _pad(M: np.ndarray, N: int, offset: int) -> np.ndarray:
    out = np.zeros((N, N))
    k = M.shape[0]
    out[offset:offset + k, offset:offset + k] = M
    return out


def _so_block_matrices(n_amb: int, p: int, q: int, offset: int) -> list[np.ndarray]:
    """so(p,q) placed at the given coordinate offset inside (n_amb x n_amb) matrices."""
    if p + q < 2:
        return []
    small = build_classical("so", p, q)
    return [_pad(M, n_amb, offset) for M in small.matrices]


# -- subalgebra recipes -------------------------------------------------------

def _h_so_blocks(g: LieAlgebra, n: int, m: int) -> Subalgebra:
    """so(1,m) + so(n-m) in block position inside so(1,n)."""
    N = n + 1
    mats = _so_block_matrices(N, 1, m, 0) + _so_block_matrices(N, 0, n - m, m + 1)
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"so(1,{m})+so({n - m})")


def _h_su_blocks(g: LieAlgebra, n: int, m: int) -> Subalgebra:
    """s(u(1,m) x u(n-m)) realified inside su(1,n)."""
    N = n + 1
    blocks: list[np.ndarray] = []
    # traceless su parts of each block
    for (p, q, off) in [(1, m, 0), (0, n - m, m + 1)]:
        size = p + q
        if size >= 2:
            J = np.diag([1.0] * p + [-1.0] * q).astype(complex)
            for i in range(size):
                for j in range(i + 1, size):
                    E = np.zeros((size, size), dtype=complex)
                    E[i, j], E[j, i] = 1.0, -1.0
                    blocks.append(_pad_c(J @ E, N, off))
                    E = np.zeros((size, size), dtype=complex)
                    E[i, j] = E[j, i] = 1j
                    blocks.append(_pad_c(J @ E, N, off))
            for k in range(size - 1):
                D = np.zeros((size, size), dtype=complex)
                D[k, k], D[k + 1, k + 1] = 1j, -1j
                blocks.append(_pad_c(D, N, off))
    # the trace-balancing diagonal i diag(a I_{m+1}, b I_{n-m}), (m+1)a + (n-m)b = 0
    D = np.zeros((N, N), dtype=complex)
    a, b = float(n - m), -float(m + 1)
    for k in range(N):
        D[k, k] = 1j * (a if k <= m else b)
    blocks.append(D)
    mats = [realify_complex(Z) for Z in blocks]
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"s(u(1,{m})+u({n - m}))")


def _pad_c(M: np.ndarray, N: int, offset: int) -> np.ndarray:
    out = np.zeros((N, N), dtype=complex)
    k = M.shape[0]
    out[offset:offset + k, offset:offset + k] = M
    return out


def _h_so_in_su(g: LieAlgebra, n: int) -> Subalgebra:
    # the realified embedding lives in an identically-constructed ambient,
    # so its coefficient rows port verbatim to the registry instance
    sub = embed_division("real", (1, n), "su")
    assert np.allclose(sub.ambient.matrices, g.matrices)
    return subalgebra(g, sub.basis, name=sub.name)


def _h_sp_blocks(g: LieAlgebra, n: int, m: int) -> Subalgebra:
    """sp(1,m) + sp(n-m) in block position inside sp(1,n).

    Quaternionic realification is entrywise, so padding the realified
    blocks at a 4-aligned offset places them at the quaternionic offset.
    """
    N4 = 4 * (n + 1)
    mats = [_pad(M, N4, 0) for M in build_classical("sp", 1, m).matrices]
    mats += [_pad(M, N4, 4 * (m + 1)) for M in build_classical("sp", 0, n - m).matrices]
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"sp(1,{m})+sp({n - m})")


def _h_u_in_sp(g: LieAlgebra, n: int) -> Subalgebra:
    """u(1,n) (complex scalars inside the quaternions) inside sp(1,n)."""
    sub = embed_division("complex", (1, n), "sp")
    assert np.allclose(sub.ambient.matrices, g.matrices)
    return subalgebra(g, sub.basis, name=sub.name)


def _h_so_sp1(g: LieAlgebra, n: int) -> Subalgebra:
    """so(1,n) (real matrices) + sp(1) (imaginary scalars) inside sp(1,n)."""
    mats = [_complex_to_quaternion_real(M) for M in build_classical("so", 1, n).matrices]
    mats += [realify_quaternion(_unit_quat_diag(n + 1, u)) for u in range(1, 4)]
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"so(1,{n})+sp(1)")


def _h_su2_block_so15(g: LieAlgebra, n: int, k: int) -> Subalgebra:
    """so(1, n-2k) + su(k) (in the rotation block) inside so(1,n)."""
    N = n + 1
    p = n - 2 * k
    mats = _so_block_matrices(N, 1, p, 0)
    su = build_classical("su", 0, k)
    for M in su.matrices:
        mats.append(_pad(M, N, p + 1))
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"so(1,{p})+su({k})")


def _h_sp1_block_so15(g: LieAlgebra, n: int, k: int) -> Subalgebra:
    """so(1, n-4k) + sp(k) (in the rotation block) inside so(1,n)."""
    N = n + 1
    p = n - 4 * k
    mats = _so_block_matrices(N, 1, p, 0)
    sp = embed_division("quaternion", (0, k), "so")
    for co in sp.basis:
        M = np.einsum("i,ijk->jk", co, sp.ambient.matrices)
        mats.append(_pad(M, N, p + 1))
    rows = np.array([g.coefficients_of(M) for M in mats])
    return subalgebra(g, rows, name=f"so(1,{p})+sp({k})")


def _conj_diag_sign(g: LieAlgebra, signs: np.ndarray) -> np.ndarray:
    return matrix_involution(g, np.diag(signs))


# -- catalog assembly ---------------------------------------------------------

_ALIASES = {
    "so15:so11+su2": "ml:so(1,5):so(1,1)+su(2)",
    "so15:so11+so4": "berger:so(1,5):so(1,1)+so(4)",
    "sl2^3:sl2x2": "sl2^3:sl2^2",
}


def catalog_entries(n_max: int = 4) -> list[CatalogEntry]:
    """Deterministically ordered catalog; the berger sweeps cover 2 <= n <= n_max."""
    entries: list[CatalogEntry] = []

    entries += [
        CatalogEntry("sl2:k", "sl2", "maximal compact so(2)", EXPECT_SPHERICAL,
                     "one-dimensional subalgebra, symmetric"),
        CatalogEntry("sl2:a", "sl2", "split torus a", EXPECT_SPHERICAL,
                     "one-dimensional subalgebra, symmetric", orbit_count=4),
        CatalogEntry("sl2:n", "sl2", "nilpotent line n", EXPECT_SPHERICAL,
                     "one-dimensional subalgebra, nilpotent", orbit_count=2),
        CatalogEntry("so13:ma", "so(1,3)", "m + a inside p", EXPECT_SPHERICAL,
                     "parabolic Levi factor", orbit_count=3),
        CatalogEntry("sl2^3:diag", "sl2^3", "diagonal copy of sl2", EXPECT_SPHERICAL,
                     "diagonal in a triple product"),
        CatalogEntry("sl2^3:sl2^2", "sl2^3", "(x,y) -> (x,x,y)", EXPECT_SPHERICAL,
                     "partial diagonal, symmetric in the product"),
        CatalogEntry("sl3:so3", "sl3", "maximal compact so(3)", EXPECT_SPHERICAL,
                     "maximal compact subalgebra"),
    ]

    for n in range(2, n_max + 1):
        for m in range(1, n):
            entries.append(CatalogEntry(
                f"berger:so(1,{n}):so(1,{m})+so({n - m})", f"so(1,{n})",
                f"so(1,{m})+so({n - m}) block pair", EXPECT_SPHERICAL, "symmetric pair"))
    for n in range(2, n_max + 1):
        for m in range(1, n):
            entries.append(CatalogEntry(
                f"berger:su(1,{n}):s(u(1,{m})+u({n - m}))", f"su(1,{n})",
                f"s(u(1,{m})+u({n - m})) block pair", EXPECT_SPHERICAL, "symmetric pair"))
        entries.append(CatalogEntry(
            f"berger:su(1,{n}):so(1,{n})", f"su(1,{n})",
            f"real form so(1,{n})", EXPECT_SPHERICAL, "symmetric pair"))
    for n in range(2, n_max + 1):
        for m in range(1, n):
            entries.append(CatalogEntry(
                f"berger:sp(1,{n}):sp(1,{m})+sp({n - m})", f"sp(1,{n})",
                f"sp(1,{m})+sp({n - m}) block pair", EXPECT_SPHERICAL, "symmetric pair"))
        entries.append(CatalogEntry(
            f"berger:sp(1,{n}):u(1,{n})", f"sp(1,{n})",
            f"complex restriction u(1,{n})", EXPECT_SPHERICAL, "symmetric pair"))

    from .jordan import f4_bundle
    status = f4_bundle().symmetric_status
    for sub in ("so(1,8)", "sp(1,2)+sp(1)"):
        entries.append(CatalogEntry(
            f"berger:f4:{sub}", "f4", f"fixed algebra {sub}", EXPECT_SPHERICAL,
            "symmetric pair (exceptional)",
            status="full" if status.get(sub, False) else "dimension-only"))

    entries += [
        CatalogEntry("ml:so(1,5):so(1,1)+su(2)", "so(1,5)", "so(1,1)+su(2) block pair",
                     EXPECT_SPHERICAL, "compact factor transitive on spheres"),
        CatalogEntry("ml:so(1,5):so(1,1)+sp(1)", "so(1,5)", "so(1,1)+sp(1) block pair",
                     EXPECT_SPHERICAL, "compact factor transitive on spheres"),
        CatalogEntry("berger:so(1,5):so(1,1)+so(4)", "so(1,5)", "so(1,1)+so(4) block pair",
                     EXPECT_SPHERICAL, "symmetric pair"),
        CatalogEntry("max:sp(1,2):so(1,2)+sp(1)", "sp(1,2)", "so(1,2)+sp(1)",
                     EXPECT_OBSTRUCTED, "maximal reductive, non-symmetric"),
        CatalogEntry("max:sp(1,3):so(1,3)+sp(1)", "sp(1,3)", "so(1,3)+sp(1)",
                     EXPECT_OBSTRUCTED, "maximal reductive, non-symmetric"),
        CatalogEntry("max:f4:su(2,1)+su(3)", "f4", "su(2,1)+su(3)",
                     EXPECT_NOT_SPHERICAL, "maximal reductive, non-symmetric"),
        CatalogEntry("max:f4:so(1,2)+g2", "f4", "so(1,2)+g2",
                     EXPECT_NOT_SPHERICAL, "maximal reductive, non-symmetric"),
    ]
    return entries


@lru_cache(maxsize=None)
def _entry_map(n_max: int = 4) -> dict[str, CatalogEntry]:
    return {e.name: e for e in catalog_entries(n_max)}


def get_entry(name: str, n_max: int = 4) -> CatalogEntry:
    name = _ALIASES.get(name, name)
    table = _entry_map(max(n_max, 4))
    if name not in table:
        raise KeyError(name)
    return table[name]


@lru_cache(maxsize=None)
def _parabolic_for(ambient: str) -> ParabolicData:
    """Standard parabolic; for product ambients the same factor parabolic is replicated."""
    g = get_algebra(ambient)
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


_BERGER_RE_SO = re.compile(r"^berger:so\(1,(\d+)\):so\(1,(\d+)\)\+so\((\d+)\)$")
_BERGER_RE_SU = re.compile(r"^berger:su\(1,(\d+)\):s\(u\(1,(\d+)\)\+u\((\d+)\)\)$")
_BERGER_RE_SU_SO = re.compile(r"^berger:su\(1,(\d+)\):so\(1,(\d+)\)$")
_BERGER_RE_SP = re.compile(r"^berger:sp\(1,(\d+)\):sp\(1,(\d+)\)\+sp\((\d+)\)$")
_BERGER_RE_SP_U = re.compile(r"^berger:sp\(1,(\d+)\):u\(1,(\d+)\)$")


def build_pair(name: str, n_max: int = 4) -> PairData:
    """Construct (g, P, h, sigma) for a catalog entry name or alias."""
    entry = get_entry(name, n_max)
    g = get_algebra(entry.ambient)
    P = _parabolic_for(entry.ambient)
    nm = entry.name
    h: Subalgebra
    sigma: Optional[np.ndarray] = None

    if nm == "sl2:k":
        k, _ = cartan_decomposition(g)
        h = subalgebra(g, k.basis, name="k")
    elif nm == "sl2:a":
        h = subalgebra(g, P.roots.a, name="a")
    elif nm == "sl2:n":
        h = subalgebra(g, P.n.basis, name="n")
    elif nm == "so13:ma":
        h = subalgebra(g, stack_span(P.m.basis, P.roots.a), name="m+a")
    elif nm == "sl2^3:diag":
        d = g.dim // 3
        h = subalgebra(g, np.hstack([np.eye(d)] * 3), name="diag")
    elif nm == "sl2^3:sl2^2":
        d = g.dim // 3
        eye = np.eye(d)
        zero = np.zeros((d, d))
        rows = np.vstack([np.hstack([eye, eye, zero]), np.hstack([zero, zero, eye])])
        h = subalgebra(g, rows, name="sl2^2:(x,x,y)")
    elif nm == "sl3:so3":
        k, _ = cartan_decomposition(g)
        h = subalgebra(g, k.basis, name="so(3)")
    elif _BERGER_RE_SO.match(nm):
        n, m, _ = map(int, _BERGER_RE_SO.match(nm).groups())
        h = _h_so_blocks(g, n, m)
        sigma = _conj_diag_sign(g, np.array([1.0] * (m + 1) + [-1.0] * (n - m)))
    elif _BERGER_RE_SU.match(nm):
        n, m, _ = map(int, _BERGER_RE_SU.match(nm).groups())
        h = _h_su_blocks(g, n, m)
        signs = np.repeat(np.array([1.0] * (m + 1) + [-1.0] * (n - m)), 2)
        sigma = _conj_diag_sign(g, signs)
    elif _BERGER_RE_SU_SO.match(nm):
        n = int(_BERGER_RE_SU_SO.match(nm).group(1))
        h = _h_so_in_su(g, n)
        sigma = _conj_diag_sign(g, np.array([1.0, -1.0] * (n + 1)))
    elif _BERGER_RE_SP.match(nm):
        n, m, _ = map(int, _BERGER_RE_SP.match(nm).groups())
        h = _h_sp_blocks(g, n, m)
        signs = np.repeat(np.array([1.0] * (m + 1) + [-1.0] * (n - m)), 4)
        sigma = _conj_diag_sign(g, signs)
    elif _BERGER_RE_SP_U.match(nm):
        n = int(_BERGER_RE_SP_U.match(nm).group(1))
        h = _h_u_in_sp(g, n)
        iq = realify_quaternion(_unit_quat_diag(n + 1, 1))
        sigma = matrix_involution(g, iq)
    elif nm == "ml:so(1,5):so(1,1)+su(2)":
        h = _h_su2_block_so15(g, 5, 2)
    elif nm == "ml:so(1,5):so(1,1)+sp(1)":
        h = _h_sp1_block_so15(g, 5, 1)
    elif nm == "max:sp(1,2):so(1,2)+sp(1)":
        h = _h_so_sp1(g, 2)
    elif nm == "max:sp(1,3):so(1,3)+sp(1)":
        h = _h_so_sp1(g, 3)
    elif nm in ("berger:f4:so(1,8)", "berger:f4:sp(1,2)+sp(1)",
                "max:f4:su(2,1)+su(3)", "max:f4:so(1,2)+g2"):
        from .jordan import f4_bundle
        bundle = f4_bundle()
        key = {"berger:f4:so(1,8)": "so(1,8)",
               "berger:f4:sp(1,2)+sp(1)": "sp(1,2)+sp(1)",
               "max:f4:su(2,1)+su(3)": "su21+su3",
               "max:f4:so(1,2)+g2": "so12+g2"}[nm]
        if key not in bundle.subalgebras:
            raise InputError(f"{nm}: embedding unavailable (dimension-only entry)")
        h = subalgebra(bundle.algebra, bundle.subalgebras[key], name=key, validate=False)
        if key in bundle.involutions:
            sigma = bundle.involutions[key]
    else:
        raise KeyError(nm)
    return PairData(entry=entry, g=g, P=P, h=h, sigma=sigma)


def _unit_quat_diag(N: int, unit: int) -> np.ndarray:
    Q = np.zeros((N, N, 4))
    for i in range(N):
        Q[i, i, unit] = 1.0
    return Q
