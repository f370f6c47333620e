"""Answers depend on the subspace h, not on the basis chosen to span it.

Every row of ``catalog_entries(5)`` is checked under two seeded changes of
basis of h, each a matrix with condition number exactly 100: the verdict, the
per-sample dimensions, the orbit count of a row that has one, and for every
simple root the dimension of the induced subalgebra and its openness flag.
"""

from functools import lru_cache

import numpy as np
import pytest

from realflag.catalog import build_pair, catalog_entries
from realflag.core import Subalgebra
from realflag.orbits import nonreductive_orbit_count, normalize_nonreductive
from realflag.reduction import induced_pair, parabolic_alpha
from realflag.spherical import is_spherical

N_MAX = 5
CONDITION = 100.0


def _change_of_basis(k: int, seed: int) -> np.ndarray:
    """U diag(s) V^T with U, V seeded orthogonal and s log-spaced from 1 to CONDITION
    (just 1 when k = 1)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return U @ np.diag(np.geomspace(1.0, CONDITION, k)) @ V.T


def _answers(pd, h: Subalgebra) -> dict:
    """Everything that must not depend on the basis of h."""
    rep = is_spherical(pd.g, h, pd.P, seed=0)
    out = {"verdict": rep.verdict, "per_sample_dims": rep.per_sample_dims}
    if pd.entry.orbit_count is not None:
        nf = normalize_nonreductive(pd.g, h, pd.P)
        out["orbit_count"] = nonreductive_orbit_count(nf, rep).count
    steps = []
    for i in range(len(pd.P.roots.simple_roots)):
        _, h_alpha, flag = induced_pair(pd.g, h, parabolic_alpha(pd.g, pd.P, i))
        steps.append((h_alpha.dim, flag))
    out["induced"] = steps
    return out


@lru_cache(maxsize=None)
def _reference(name: str) -> dict:
    pd = build_pair(name, N_MAX)
    return _answers(pd, pd.h)


def test_change_of_basis_has_the_stated_condition_number():
    for k in (1, 2, 7):
        assert np.isclose(np.linalg.cond(_change_of_basis(k, 3)), CONDITION if k > 1 else 1.0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", [e.name for e in catalog_entries(N_MAX)])
def test_answers_do_not_depend_on_the_basis_of_h(name, seed):
    pd = build_pair(name, N_MAX)
    A = _change_of_basis(pd.h.dim, seed)
    moved = Subalgebra(pd.g, A @ pd.h.basis, name=pd.h.name)
    ref = _reference(name)
    assert _answers(pd, moved) == ref
    if pd.entry.orbit_count is not None:
        assert ref["orbit_count"] == pd.entry.orbit_count
