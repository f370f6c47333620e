"""Orbit dimensions on the flag manifold, Bruhat cells, and the orbit
counter for non-reductive subalgebras of a rank-one minimal parabolic.

The non-reductive normal form splits h inside p = m + a + n as
h = m1 + R X + n1 with m1 = h ∩ m, n1 the largest h-ideal inside n, and
X = Y + Z normalized so the indivisible positive root takes value 1 on Z.
The B_theta-orthocomplement n0 of n1 in n then carries the whole orbit
combinatorics: the open cell splits into 1, 2 or 3 orbits according to
whether n0 is zero, of dimension > 1, or a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (InputError, LieAlgebra, NormalizationError, NotSphericalError,
                   Subalgebra, UnsupportedOperation)
from .linalg import (DEFAULT_TOL, brackets, complement_in, in_span, intersect_spans, null_rows,
                     orth_rows, span_residual, stack_span)
from .realforms import ParabolicData
from .spherical import SphericityReport, chart_rank, sample_group_element, sample_rng


def orbit_dim_at(g: LieAlgebra, h: Subalgebra, P: ParabolicData, word: np.ndarray,
                 tol: float = DEFAULT_TOL) -> int:
    """Dimension of the h-orbit through the coset x P, x a word: dim h - dim(h ∩ Ad(x) p),
    which is rank π(Ad(x)⁻¹ h) (``chart_rank``)."""
    return chart_rank(g, h.basis, P, word, tol)


def sampled_orbit_dims(g: LieAlgebra, h: Subalgebra, P: ParabolicData,
                       samples: int, seed: int, tol: float = DEFAULT_TOL) -> list[int]:
    """Orbit dimensions at the identity (the empty word), the Weyl point, and sampled words."""
    points = [np.zeros((0, g.dim)), P.weyl]
    points += [sample_group_element(P, sample_rng(seed, i)) for i in range(samples)]
    return [orbit_dim_at(g, h, P, x, tol) for x in points]


def bruhat_cell_of(g: LieAlgebra, P: ParabolicData, word: np.ndarray,
                   tol: float = DEFAULT_TOL) -> str:
    """'closed' when x P is the base coset (x in P), 'open' otherwise; x is a word.

    Rank one only: the N-orbit through x P is open exactly when x lies
    outside P, so the test is rank π(Ad(x)⁻¹ n) = dim n (``chart_rank``).
    """
    if P.roots.rank != 1:
        raise UnsupportedOperation("Bruhat cell classification is implemented for rank one")
    return "open" if chart_rank(g, P.n.basis, P, word, tol) == P.n.dim else "closed"


@dataclass
class NonreductiveNormalForm:
    """Normal form of a non-reductive h inside a rank-one minimal parabolic."""

    h: Subalgebra
    P: ParabolicData
    m1: np.ndarray                     # basis rows of h ∩ m
    X: Optional[np.ndarray]            # None when h = m1 + n1 (requires n1 = n)
    Z: Optional[np.ndarray]            # a-component of X, alpha(Z) = 1
    n1: np.ndarray
    n1_graded: tuple[np.ndarray, np.ndarray]
    n0: np.ndarray
    n0_graded: tuple[np.ndarray, np.ndarray]
    j: Optional[int]                   # 1 or 2 when dim n0 == 1

    @property
    def dims(self) -> tuple[int, int]:
        """(n, k) = (dim n, dim n1)."""
        return (self.P.n.dim, 0 if self.n1.size == 0 else self.n1.shape[0])


def normalize_nonreductive(g: LieAlgebra, h: Subalgebra,
                           P: ParabolicData) -> NonreductiveNormalForm:
    """Split h ⊂ p as m1 + R X + n1 and grade the orthocomplement n0.

    Raises InputError when h is not inside p, NormalizationError when the
    reductive part of h does not sit inside m + a (conjugate first), and
    NotSphericalError when X has no a-component while n1 is proper in n.
    """
    if span_residual(h.basis, P.p.basis) > 1e-8:
        raise InputError("h is not contained in p; conjugate h into p first")
    if P.roots.rank != 1:
        raise UnsupportedOperation("normal form requires real rank one")
    dim = g.dim

    h_cap_n = intersect_spans(h.basis, P.n.basis)
    # largest h-ideal inside h ∩ n: repeatedly drop directions whose h-bracket leaves the space
    bracket_scale = float(np.linalg.norm(h.basis)) * (1.0 + float(np.abs(g.bracket_tensor).max()))
    n1 = h_cap_n
    while n1.shape[0]:
        comp = complement_in(n1, np.eye(dim))
        maps = brackets(g.bracket_tensor, h.basis, n1).transpose(1, 0, 2)  # (dim n1, dim h, dim)
        out = maps @ comp.T
        coeffs = null_rows(out.reshape(n1.shape[0], -1).T, scale=bracket_scale)
        new = orth_rows(coeffs @ n1) if coeffs.shape[0] else np.zeros((0, dim))
        if new.shape[0] == n1.shape[0]:
            break
        n1 = new
    if n1.shape[0] == 0:
        n1 = np.zeros((0, dim))

    ma = stack_span(P.m.basis, P.roots.a)
    m1 = intersect_spans(h.basis, P.m.basis)
    w = intersect_spans(h.basis, ma)
    n1_dim = n1.shape[0]
    if w.shape[0] + n1_dim != h.dim:
        raise NormalizationError(
            "reductive part of h is not inside m + a; conjugate h before normalizing")

    X = Z = None
    if w.shape[0] == m1.shape[0] + 1:
        xdir = complement_in(m1, w, metric=g.b_theta)
        if xdir.shape[0] != 1:
            raise NormalizationError("could not split R X off m1")
        X = xdir[0]
        # the a-component Z of X = Y + Z, split against the joint (m, a) basis
        stacked = stack_span(P.m.basis, P.roots.a)
        coords = X @ np.linalg.pinv(stacked)
        t = coords[P.m.dim:]
        Z = t @ P.roots.a
        alpha_val = float(P.roots.simple_roots[0] @ t)
        if abs(alpha_val) < 1e-9:
            if n1_dim != P.n.dim:
                raise NotSphericalError("X has no a-component and n1 is proper in n")
            X = Z = None
        else:
            X = X / alpha_val
            Z = Z / alpha_val
    elif w.shape[0] == m1.shape[0]:
        if n1_dim != P.n.dim:
            raise NotSphericalError("h = m1 + n1 with n1 proper in n cannot be spherical")
    else:
        raise NormalizationError("h ∩ (m + a) exceeds m1 by more than a line")

    # normalizer condition: [m1 + R X, n1] ⊂ n1
    l_part = stack_span(m1, X.reshape(1, -1) if X is not None else np.zeros((0, dim)))
    if l_part.size and n1_dim:
        br = brackets(g.bracket_tensor, l_part, n1).reshape(-1, dim)
        if span_residual(br, n1) > 1e-8:
            raise NormalizationError("m1 + R X does not normalize n1")

    galpha = P.roots.space_of([1])
    g2alpha = P.roots.space_of([2])

    def grade(space: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if space.shape[0] == 0:
            return (np.zeros((0, dim)), np.zeros((0, dim)))
        p1 = intersect_spans(space, galpha)
        p2 = intersect_spans(space, g2alpha) if g2alpha.shape[0] else np.zeros((0, dim))
        if p1.shape[0] + p2.shape[0] != space.shape[0]:
            raise NormalizationError("subspace of n is not graded by the root spaces")
        return (p1, p2)

    n0 = complement_in(n1, P.n.basis, metric=g.b_theta)
    n1_graded = grade(n1)
    n0_graded = grade(n0)
    j = None
    if n0.shape[0] == 1:
        j = 1 if in_span(n0, galpha, 1e-7) else 2

    return NonreductiveNormalForm(h=h, P=P, m1=m1, X=X, Z=Z, n1=n1,
                                  n1_graded=n1_graded, n0=n0, n0_graded=n0_graded, j=j)


@dataclass
class OrbitCountReport:
    """Orbit count on G/P for a non-reductive spherical h, with cell typology."""

    pair_name: str
    count: int
    types: list[str]
    n: int
    k: int
    j: Optional[int]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "orbit-count",
            "pair": self.pair_name,
            "count": self.count,
            "types": list(self.types),
            "n": self.n,
            "k": self.k,
            "j": self.j,
        }


def nonreductive_orbit_count(nf: NonreductiveNormalForm,
                             sphericality_witness: SphericityReport) -> OrbitCountReport:
    """Orbit count from the normal form: 2 when n1 = n, 3 when dim n0 > 1, 4 when dim n0 = 1."""
    if sphericality_witness.verdict != "spherical":
        raise InputError("orbit counting requires a spherical witness report")
    n, k = nf.dims
    if k == n:
        count, types = 2, ["closed-cell", "full-cell"]
    elif n - k == 1:
        count, types = 4, ["closed-cell", "k-plane", "half-space+", "half-space-"]
    else:
        count, types = 3, ["closed-cell", "k-plane", "punctured-complement"]
    return OrbitCountReport(pair_name=sphericality_witness.pair_name, count=count,
                            types=types, n=n, k=k, j=nf.j)


@dataclass
class CoincidenceReport:
    """Per-point comparison of orbit dimensions for nested subalgebras h ⊂ h'."""

    pair_name: str
    sup_name: str
    samples: int
    seed: int
    dims_h: list[int]
    dims_sup: list[int]
    coincide: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "coincidence",
            "pair": self.pair_name,
            "sup": self.sup_name,
            "samples": self.samples,
            "seed": self.seed,
            "dims_h": list(map(int, self.dims_h)),
            "dims_sup": list(map(int, self.dims_sup)),
            "coincide": self.coincide,
        }


def symmetric_coincidence(g: LieAlgebra, h: Subalgebra, hprime: Subalgebra,
                          P: ParabolicData, samples: int = 64, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> CoincidenceReport:
    """Compare h- and h'-orbit dimensions at the identity, the Weyl point and samples."""
    if not hprime.contains(h):
        raise InputError("h is not contained in h'")
    dims_h = sampled_orbit_dims(g, h, P, samples, seed, tol)
    dims_hp = sampled_orbit_dims(g, hprime, P, samples, seed, tol)
    return CoincidenceReport(pair_name=h.name or "h", sup_name=hprime.name or "h'",
                             samples=samples, seed=seed, dims_h=dims_h, dims_sup=dims_hp,
                             coincide=dims_h == dims_hp)
