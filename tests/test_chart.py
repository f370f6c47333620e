"""The n̄-chart rank kernel against the stacked-matrix formulas it replaced.

``spherical.chart_rank`` ranks π(Ad(x)⁻¹ rows), π the projection onto n̄
along p.  On every catalog row at ``--n 5`` and at the identity, the Weyl
point and eight seeded n̄ samples, ``local_dim`` must equal the rank of the
(dim h + dim p, dim g) stack of h and Ad(x) p, and ``orbit_dim_at`` must
equal dim h - dim(h ∩ Ad(x) p); on every rank-one ambient the Bruhat cell
must be open exactly when n + Ad(x) p fills g.
"""

import numpy as np
import pytest

from realflag.catalog import catalog_entries
from realflag.orbits import bruhat_cell_of, orbit_dim_at
from realflag.spherical import local_dim, sample_group_element, sample_rng

from oracles import intersect_orbit_dim, stacked_local_dim
from test_orbits import RANK_ONE_AMBIENTS


def _points(P, samples=8):
    """The empty word, the Weyl point and seed-0 n̄ samples."""
    g = P.algebra
    return ([np.zeros((0, g.dim)), P.weyl]
            + [sample_group_element(P, sample_rng(0, i)) for i in range(samples)])


@pytest.mark.parametrize("name", [e.name for e in catalog_entries(5)])
def test_chart_kernel_matches_the_stacked_formulas(pair, name):
    pd = pair(name, 5)
    g, h, P = pd.g, pd.h, pd.P
    for x in _points(P):
        assert local_dim(g, h, P, x) == stacked_local_dim(g, h.basis, P, x)
        assert orbit_dim_at(g, h, P, x) == intersect_orbit_dim(g, h.basis, P, x)


@pytest.mark.parametrize("ambient", RANK_ONE_AMBIENTS)
def test_bruhat_cells_match_the_stacked_formula(parabolic_of, ambient):
    P = parabolic_of(ambient)
    g = P.algebra
    n_words = [sample_rng(42, i).standard_normal((2, P.n.dim)) @ P.n.basis for i in range(4)]
    for x in _points(P) + n_words:
        full = stacked_local_dim(g, P.n.basis, P, x) == g.dim
        assert bruhat_cell_of(g, P, x) == ("open" if full else "closed")
