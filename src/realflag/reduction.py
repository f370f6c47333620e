"""Rank-one reduction machinery: the parabolic attached to a simple root,
the Levi projection along its nilradical, and the induced pair.

For a simple root alpha, p_alpha = p + g^{-alpha} + g^{-2alpha} splits as
l_alpha ⊕ u_alpha with l_alpha = m + a + sum_j g^{j alpha} of real rank
one and u_alpha the remaining positive root spaces.  The projection onto
l_alpha along u_alpha is a Lie algebra homomorphism, and the image of
h ∩ p_alpha under it is spherical in l_alpha whenever h + p = g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, LieAlgebra, Subalgebra
from .linalg import intersect_spans, numeric_rank, orth_rows, stack_span
from .realforms import ParabolicData


@dataclass(frozen=True, eq=False)
class AlphaParabolicData:
    """p_alpha with its Levi decomposition and projection matrix."""

    algebra: LieAlgebra
    P: ParabolicData
    alpha: int                         # index of the simple root
    p_alpha: Subalgebra
    l_alpha: Subalgebra
    u_alpha: np.ndarray                # basis rows of the nilradical
    projector: np.ndarray              # dim x dim, kernel u_alpha, image l_alpha
    l_cap_p: np.ndarray                # basis rows of l_alpha ∩ p


def parabolic_alpha(g: LieAlgebra, P: ParabolicData, i: int) -> AlphaParabolicData:
    """Build p_alpha = p + g^{-alpha} + g^{-2alpha} for the simple root alpha_i; its Levi
    holds m, a and the roots whose simple-root coordinates vanish off i."""
    roots = P.roots
    if not 0 <= i < len(roots.simple_roots):
        raise InputError("alpha is not a simple root of the parabolic")

    on_line = ~np.delete(roots.coords, i, axis=1).any(axis=1)
    levi_spaces = [roots.m, roots.a]
    levi_spaces += [sp for sp, on in zip(roots.root_spaces, on_line) if on]
    nil_spaces = [sp for sp, on, pos in zip(roots.root_spaces, on_line, roots.positive)
                  if pos and not on]
    l_basis = orth_rows(stack_span(*levi_spaces))
    u_basis = orth_rows(stack_span(*nil_spaces)) if nil_spaces else np.zeros((0, g.dim))
    p_alpha_basis = orth_rows(stack_span(l_basis, u_basis))
    if l_basis.shape[0] + u_basis.shape[0] != p_alpha_basis.shape[0]:
        raise InputError("Levi and nilradical overlap; root data inconsistent")

    # projection onto l_alpha along u_alpha, as a matrix on the coefficient space
    if u_basis.shape[0]:
        stacked = np.vstack([l_basis, u_basis])
        coords = np.linalg.pinv(stacked.T)          # coordinates in the combined basis
        projector = l_basis.T @ coords[: l_basis.shape[0], :]
    else:
        projector = l_basis.T @ l_basis
    l_cap_p = intersect_spans(l_basis, P.p.basis)

    return AlphaParabolicData(
        algebra=g, P=P, alpha=i,
        p_alpha=Subalgebra(g, p_alpha_basis, name="p_alpha"),
        l_alpha=Subalgebra(g, l_basis, name="l_alpha"),
        u_alpha=u_basis, projector=projector, l_cap_p=l_cap_p)


def induced_pair(g: LieAlgebra, h: Subalgebra,
                 ap: AlphaParabolicData) -> tuple[Subalgebra, Subalgebra, bool]:
    """(l_alpha, h_alpha, openness): h_alpha is the Levi projection of h ∩ p_alpha.

    The flag is true iff h_alpha + (l_alpha ∩ p) fills l_alpha; it must
    hold whenever h + p = g.
    """
    hp = intersect_spans(h.basis, ap.p_alpha.basis)
    if hp.shape[0]:
        image = orth_rows(hp @ ap.projector.T)
    else:
        image = np.zeros((0, g.dim))
    h_alpha = Subalgebra(g, image, name=f"{h.name or 'h'}_alpha")
    flag = numeric_rank(stack_span(image, ap.l_cap_p)) == ap.l_alpha.dim
    return ap.l_alpha, h_alpha, flag
