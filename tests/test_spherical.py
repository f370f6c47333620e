import numpy as np
import pytest

from realflag.catalog import catalog_entries
from realflag.core import InputError, Subalgebra, subalgebra
from realflag.realforms import get_algebra, minimal_parabolic, restricted_roots
from realflag.spherical import (is_spherical, local_dim, sample_group_element,
                                sample_rng)

# Seed-0 verdicts and per-sample dimensions at 64 samples for every full row of
# catalog_entries(5), recorded with the earlier sampler of two-row words in a
# realization operator-norm ball; n̄ samples must reproduce them.
GOLDEN = {
    "sl2:k": ("spherical", [3]),
    "sl2:a": ("spherical", [3]),
    "sl2:n": ("spherical", [3]),
    "so13:ma": ("spherical", [6]),
    "sl2^3:diag": ("spherical", [9]),
    "sl2^3:sl2^2": ("spherical", [9]),
    "sl3:so3": ("spherical", [8]),
    "berger:so(1,2):so(1,1)+so(1)": ("spherical", [3]),
    "berger:so(1,3):so(1,1)+so(2)": ("spherical", [6]),
    "berger:so(1,3):so(1,2)+so(1)": ("spherical", [6]),
    "berger:so(1,4):so(1,1)+so(3)": ("spherical", [10]),
    "berger:so(1,4):so(1,2)+so(2)": ("spherical", [10]),
    "berger:so(1,4):so(1,3)+so(1)": ("spherical", [10]),
    "berger:so(1,5):so(1,1)+so(4)": ("spherical", [15]),
    "berger:so(1,5):so(1,2)+so(3)": ("spherical", [15]),
    "berger:so(1,5):so(1,3)+so(2)": ("spherical", [15]),
    "berger:so(1,5):so(1,4)+so(1)": ("spherical", [15]),
    "berger:su(1,2):s(u(1,1)+u(1))": ("spherical", [8]),
    "berger:su(1,2):so(1,2)": ("spherical", [8]),
    "berger:su(1,3):s(u(1,1)+u(2))": ("spherical", [15]),
    "berger:su(1,3):s(u(1,2)+u(1))": ("spherical", [15]),
    "berger:su(1,3):so(1,3)": ("spherical", [15]),
    "berger:su(1,4):s(u(1,1)+u(3))": ("spherical", [24]),
    "berger:su(1,4):s(u(1,2)+u(2))": ("spherical", [24]),
    "berger:su(1,4):s(u(1,3)+u(1))": ("spherical", [24]),
    "berger:su(1,4):so(1,4)": ("spherical", [24]),
    "berger:su(1,5):s(u(1,1)+u(4))": ("spherical", [35]),
    "berger:su(1,5):s(u(1,2)+u(3))": ("spherical", [35]),
    "berger:su(1,5):s(u(1,3)+u(2))": ("spherical", [35]),
    "berger:su(1,5):s(u(1,4)+u(1))": ("spherical", [35]),
    "berger:su(1,5):so(1,5)": ("spherical", [35]),
    "berger:sp(1,2):sp(1,1)+sp(1)": ("spherical", [21]),
    "berger:sp(1,2):u(1,2)": ("spherical", [21]),
    "berger:sp(1,3):sp(1,1)+sp(2)": ("spherical", [36]),
    "berger:sp(1,3):sp(1,2)+sp(1)": ("spherical", [36]),
    "berger:sp(1,3):u(1,3)": ("spherical", [36]),
    "berger:sp(1,4):sp(1,1)+sp(3)": ("spherical", [55]),
    "berger:sp(1,4):sp(1,2)+sp(2)": ("spherical", [55]),
    "berger:sp(1,4):sp(1,3)+sp(1)": ("spherical", [55]),
    "berger:sp(1,4):u(1,4)": ("spherical", [55]),
    "berger:sp(1,5):sp(1,1)+sp(4)": ("spherical", [78]),
    "berger:sp(1,5):sp(1,2)+sp(3)": ("spherical", [78]),
    "berger:sp(1,5):sp(1,3)+sp(2)": ("spherical", [78]),
    "berger:sp(1,5):sp(1,4)+sp(1)": ("spherical", [78]),
    "berger:sp(1,5):u(1,5)": ("spherical", [78]),
    "berger:f4:so(1,8)": ("spherical", [52]),
    "berger:f4:sp(1,2)+sp(1)": ("spherical", [52]),
    "ml:so(1,5):so(1,1)+su(2)": ("spherical", [15]),
    "ml:so(1,5):so(1,1)+sp(1)": ("spherical", [15]),
    "max:sp(1,2):so(1,2)+sp(1)": ("dimension-obstructed", []),
    "max:sp(1,3):so(1,3)+sp(1)": ("dimension-obstructed", []),
    "max:f4:su(2,1)+su(3)": ("not-spherical-at-confidence", [51] * 64),
    "max:f4:so(1,2)+g2": ("not-spherical-at-confidence", [51] * 64),
}

# sl2:a at seed 0: the n̄ word of the first sample, which already certifies
SL2_SEED0_WORD = [[-0.41970988055219205, -0.12807789411173226, 1.3753847613973167]]


@pytest.fixture(scope="module")
def canonical_sl2():
    """sl2 with the split torus pinned to R diag(1,-1): p = upper triangular."""
    L = get_algebra("sl2")
    aH = np.zeros((1, 3))
    aH[0, L.labels.index("H0")] = 1.0
    rr = restricted_roots(L, a_basis=aH, xi=np.array([1.0]))
    P = minimal_parabolic(L, rr)
    return L, P


class TestLocalDim:
    def test_h_equals_p_at_identity(self, canonical_sl2):
        L, P = canonical_sl2
        assert local_dim(L, P.p, P, np.zeros((0, L.dim))) == P.p.dim

    def test_a_at_weyl_point_is_two(self, canonical_sl2):
        # Ad(s) p is the opposite parabolic, which already contains a
        L, P = canonical_sl2
        a = subalgebra(L, P.roots.a, name="a")
        assert local_dim(L, a, P, P.weyl) == 2

    def test_a_at_generic_rotation_is_three(self, canonical_sl2):
        # the rotation exp(phi (E - F)) as the word exp(tE) exp(-sF) exp(tE),
        # t = tan(phi/2), s = sin(phi)
        L, P = canonical_sl2
        a = subalgebra(L, P.roots.a, name="a")
        E = np.zeros(3); E[L.labels.index("E01")] = 1.0
        F = np.zeros(3); F[L.labels.index("E10")] = 1.0
        phi = np.pi / 8
        word = np.array([np.tan(phi / 2) * E, -np.sin(phi) * F, np.tan(phi / 2) * E])
        assert local_dim(L, a, P, word) == 3

    def test_n_at_identity_is_two(self, canonical_sl2):
        L, P = canonical_sl2
        assert local_dim(L, P.n, P, np.zeros((0, L.dim))) == 2


class TestIsSpherical:
    def test_sl2_a_spherical(self, pair):
        pd = pair("sl2:a")
        rep = is_spherical(pd.g, pd.h, pd.P, samples=16, seed=0)
        assert rep.verdict == "spherical"
        assert rep.max_dim == rep.dim_g
        assert rep.witness is not None
        # the witness certifies, recomputed independently of the report
        assert local_dim(pd.g, pd.h, pd.P, rep.witness) == pd.g.dim

    def test_dimension_obstruction(self, pair):
        pd = pair("max:sp(1,2):so(1,2)+sp(1)")
        rep = is_spherical(pd.g, pd.h, pd.P, samples=4, seed=0)
        assert rep.verdict == "dimension-obstructed"
        assert rep.per_sample_dims == []
        assert rep.dim_h + rep.dim_p < rep.dim_g
        assert (rep.dim_h, rep.dim_gp) == (6, 7)

    def test_so15_su2_pair_spherical(self, pair):
        pd = pair("so15:so11+su2")
        rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0)
        assert rep.verdict == "spherical"

    def test_monotone_in_samples(self, pair):
        pd = pair("max:f4:su(2,1)+su(3)")
        r1 = is_spherical(pd.g, pd.h, pd.P, samples=3, seed=0)
        r2 = is_spherical(pd.g, pd.h, pd.P, samples=10, seed=0)
        assert r2.max_dim >= r1.max_dim
        assert r2.per_sample_dims[:3] == r1.per_sample_dims

    def test_deterministic(self, pair):
        pd = pair("sl2^3:diag")
        r1 = is_spherical(pd.g, pd.h, pd.P, samples=8, seed=5)
        r2 = is_spherical(pd.g, pd.h, pd.P, samples=8, seed=5)
        assert r1.to_dict()["per_sample_dims"] == r2.to_dict()["per_sample_dims"]
        assert r1.verdict == r2.verdict

    def test_verdict_stable_across_seeds(self, pair):
        pd = pair("sl2^3:diag")
        verdicts = {is_spherical(pd.g, pd.h, pd.P, samples=16, seed=s).verdict
                    for s in (0, 1, 2)}
        assert verdicts == {"spherical"}

    def test_conjugation_invariance(self, pair):
        pd = pair("sl2:a")
        base = is_spherical(pd.g, pd.h, pd.P, samples=8, seed=0).verdict
        for trial in range(10):
            y = sample_group_element(pd.P, sample_rng(1234, trial))
            moved = Subalgebra(pd.g, pd.g.ad_group(y, pd.h.basis, pd.P.roots.depth),
                               name="moved")
            rep = is_spherical(pd.g, moved, pd.P, samples=8, seed=0)
            assert rep.verdict == base

    def test_requires_samples(self, pair):
        pd = pair("sl2:a")
        with pytest.raises(InputError):
            is_spherical(pd.g, pd.h, pd.P, samples=0, seed=0)

    def test_golden_covers_the_catalog(self):
        assert set(GOLDEN) == {e.name for e in catalog_entries(5) if e.status == "full"}

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_seed0(self, pair, name):
        pd = pair(name, 5)
        rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=name)
        assert (rep.verdict, rep.per_sample_dims) == GOLDEN[name]

    def test_golden_sampled_word(self, pair):
        pd = pair("sl2:a")
        rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0)
        assert rep.witness.shape == (1, 3)
        assert np.abs(rep.witness - SL2_SEED0_WORD).max() <= 1e-15
        assert rep.to_dict()["schema"] == 3

    def test_report_dict_fields(self, pair):
        pd = pair("sl2:n")
        doc = is_spherical(pd.g, pd.h, pd.P, samples=4, seed=0).to_dict()
        for key in ("schema", "pair", "dim_g", "dim_h", "dim_p", "dim_gp", "samples",
                    "seed", "tol", "per_sample_dims", "max_dim", "verdict", "witness"):
            assert key in doc
