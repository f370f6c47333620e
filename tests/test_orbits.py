import numpy as np
import pytest
from scipy.linalg import expm

from realflag.catalog import catalog_entries
from realflag.core import InputError, NotSphericalError, subalgebra
from realflag.linalg import stack_span
from realflag.orbits import (bruhat_cell_of, nonreductive_orbit_count, normalize_nonreductive,
                             orbit_dim_at, sampled_orbit_dims, symmetric_coincidence)
from realflag.realforms import get_algebra
from realflag.spherical import is_spherical, local_dim, sample_group_element, sample_rng

from oracles import circle_orbit_count, sphere_orbit_count


def _witness(pd, samples=16):
    return is_spherical(pd.g, pd.h, pd.P, samples=samples, seed=0, pair_name=pd.entry.name)


class TestOrbitDim:
    def test_diag_at_origin(self, pair):
        pd = pair("sl2^3:diag")
        assert orbit_dim_at(pd.g, pd.h, pd.P, np.zeros((0, pd.g.dim))) == 1

    def test_partial_diag_at_origin(self, pair):
        pd = pair("sl2^3:sl2^2")
        assert orbit_dim_at(pd.g, pd.h, pd.P, np.zeros((0, pd.g.dim))) == 2

    def test_open_orbit_has_flag_dimension(self, pair):
        pd = pair("sl2^3:diag")
        rep = _witness(pd)
        assert orbit_dim_at(pd.g, pd.h, pd.P, rep.witness) == pd.P.dim_flag

    def test_local_dim_identity_relation(self, pair):
        # dim(h + Ad(x)p) = dim p + orbit dimension, at every sampled point
        pd = pair("so13:ma")
        for i in range(12):
            x = sample_group_element(pd.P, sample_rng(3, i))
            assert (local_dim(pd.g, pd.h, pd.P, x)
                    == pd.P.p.dim + orbit_dim_at(pd.g, pd.h, pd.P, x))

    def test_bounded_by_h_and_flag(self, pair):
        pd = pair("so15:so11+su2")
        dims = sampled_orbit_dims(pd.g, pd.h, pd.P, samples=8, seed=0)
        assert all(d <= min(pd.h.dim, pd.P.dim_flag) for d in dims)


RANK_ONE_AMBIENTS = ["sl2", "so(1,2)", "so(1,3)", "so(1,4)", "so(1,5)", "su(1,2)", "su(1,3)",
                     "su(1,4)", "su(1,5)", "sp(1,2)", "sp(1,3)", "sp(1,4)", "sp(1,5)", "f4"]


class TestBruhat:
    def test_identity_closed(self, pair):
        pd = pair("sl2:a")
        assert bruhat_cell_of(pd.g, pd.P, np.zeros((0, pd.g.dim))) == "closed"

    def test_weyl_open(self, pair):
        pd = pair("sl2:a")
        assert bruhat_cell_of(pd.g, pd.P, pd.P.weyl) == "open"

    def test_exp_nbar_open(self, pair):
        pd = pair("sl2:a")
        assert bruhat_cell_of(pd.g, pd.P, pd.P.nbar.basis[:1]) == "open"

    def test_rank_one_ambients_are_the_catalogs(self, parabolic_of):
        ambients = {e.ambient for e in catalog_entries(5) if e.status == "full"}
        assert set(RANK_ONE_AMBIENTS) == {a for a in ambients if parabolic_of(a).roots.rank == 1}

    @pytest.mark.parametrize("ambient", RANK_ONE_AMBIENTS)
    def test_cell_partition(self, parabolic_of, ambient):
        # words in exp(n) lie in P; the Weyl point and n̄ samples lie in the big cell
        P = parabolic_of(ambient)
        g = P.algebra
        assert bruhat_cell_of(g, P, np.zeros((0, g.dim))) == "closed"
        for i in range(16):
            word = sample_rng(42, i).standard_normal((2, P.n.dim)) @ P.n.basis
            assert bruhat_cell_of(g, P, word) == "closed"
        assert bruhat_cell_of(g, P, P.weyl) == "open"
        for i in range(64):
            assert bruhat_cell_of(g, P, sample_group_element(P, sample_rng(0, i))) == "open"

    def test_higher_rank_unsupported(self, pair):
        pd = pair("sl2^3:diag")
        from realflag.core import UnsupportedOperation
        with pytest.raises(UnsupportedOperation):
            bruhat_cell_of(pd.g, pd.P, np.zeros((0, pd.g.dim)))


class TestNormalForm:
    def test_sl2_a(self, pair):
        pd = pair("sl2:a")
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        assert nf.m1.shape[0] == 0
        assert nf.X is not None
        t = nf.Z @ np.linalg.pinv(pd.P.roots.a)
        assert abs(float(pd.P.roots.simple_roots[0] @ t) - 1.0) < 1e-9
        assert nf.n1.shape[0] == 0
        assert nf.n0.shape[0] == 1 and nf.j == 1

    def test_sl2_n(self, pair):
        pd = pair("sl2:n")
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        assert nf.X is None
        assert nf.dims == (1, 1)

    def test_so13_ma(self, pair):
        pd = pair("so13:ma")
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        assert nf.m1.shape[0] == pd.P.m.dim
        assert nf.X is not None and nf.n1.shape[0] == 0
        assert nf.n0.shape[0] == 2 and nf.j is None

    def test_grading_exactness(self, pair):
        for name in ("sl2:a", "sl2:n", "so13:ma"):
            pd = pair(name)
            nf = normalize_nonreductive(pd.g, pd.h, pd.P)
            p1, p2 = nf.n0_graded
            assert p1.shape[0] + p2.shape[0] == nf.n0.shape[0]
            q1, q2 = nf.n1_graded
            assert q1.shape[0] + q2.shape[0] == nf.n1.shape[0]

    def test_su12_ma_has_2alpha_part(self, parabolic_of):
        g = get_algebra("su(1,2)")
        P = parabolic_of("su(1,2)")
        h = subalgebra(g, stack_span(P.m.basis, P.roots.a), name="m+a")
        nf = normalize_nonreductive(g, h, P)
        p1, p2 = nf.n0_graded
        assert (p1.shape[0], p2.shape[0]) == (2, 1)

    def test_h_not_in_p_rejected(self, pair):
        pd = pair("sl2:a")
        h = subalgebra(pd.g, pd.P.nbar.basis, name="nbar")
        with pytest.raises(InputError):
            normalize_nonreductive(pd.g, h, pd.P)

    def test_n1_proper_without_a_component_rejected(self, parabolic_of):
        # h = a single line of n (m1 = 0, no a-part, n1 proper in n): not spherical
        g = get_algebra("so(1,3)")
        P = parabolic_of("so(1,3)")
        galpha = P.roots.space_of([1.0])
        h = subalgebra(g, galpha[:1], name="line")
        with pytest.raises(NotSphericalError):
            normalize_nonreductive(g, h, P)

    def test_normalizer_invariant(self, pair):
        pd = pair("so13:ma")
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        l_part = stack_span(nf.m1, nf.X.reshape(1, -1))
        br = np.einsum("ai,bj,ijk->abk", l_part, pd.P.n.basis, pd.g.bracket_tensor)
        # [m1 + RX, n] stays inside n here (n1 = 0 so nothing to check beyond n itself)
        from realflag.linalg import span_residual
        assert span_residual(br.reshape(-1, pd.g.dim), pd.P.n.basis) < 1e-8


class TestOrbitCounts:
    @pytest.mark.parametrize("name,count,types", [
        ("sl2:n", 2, ["closed-cell", "full-cell"]),
        ("so13:ma", 3, ["closed-cell", "k-plane", "punctured-complement"]),
        ("sl2:a", 4, ["closed-cell", "k-plane", "half-space+", "half-space-"]),
    ])
    def test_counts(self, pair, name, count, types):
        pd = pair(name)
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        rep = nonreductive_orbit_count(nf, _witness(pd))
        assert rep.count == count
        assert rep.types == types
        # count/dims consistency
        n, k = rep.n, rep.k
        assert (rep.count == 2) == (k == n)
        assert (rep.count == 3) == (n - k > 1)
        assert (rep.count == 4) == (n - k == 1)

    def test_full_parabolic_counts_two(self, pair):
        # h = p: the whole nilpotent radical is kept, one open-cell orbit
        pd = pair("sl2:a")
        h = pd.P.p
        wit = is_spherical(pd.g, h, pd.P, samples=16, seed=0, pair_name="sl2:p")
        nf = normalize_nonreductive(pd.g, h, pd.P)
        rep = nonreductive_orbit_count(nf, wit)
        assert rep.count == 2 and nf.dims == (1, 1)

    def test_count_four_with_double_root_present(self, parabolic_of):
        # a + (line of g^alpha) + g^{2alpha} inside su(1,2): k = n-1 through
        # a graded n1 that contains the center
        g = get_algebra("su(1,2)")
        P = parabolic_of("su(1,2)")
        galpha = P.roots.space_of([1.0])
        g2alpha = P.roots.space_of([2.0])
        h = subalgebra(g, stack_span(P.roots.a, galpha[:1], g2alpha), name="a+line+center")
        wit = is_spherical(g, h, P, samples=32, seed=0, pair_name="su12:a+line+center")
        assert wit.verdict == "spherical"
        nf = normalize_nonreductive(g, h, P)
        assert nf.dims == (3, 2)
        assert [s.shape[0] for s in nf.n1_graded] == [1, 1]
        rep = nonreductive_orbit_count(nf, wit)
        assert rep.count == 4 and nf.j == 1

    def test_requires_spherical_witness(self, pair):
        pd = pair("sl2:a")
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        bad = _witness(pair("max:sp(1,2):so(1,2)+sp(1)"))
        with pytest.raises(InputError):
            nonreductive_orbit_count(nf, bad)

    def test_flow_oracle_agreement(self, pair):
        # independent discretized-flow counts on the compact models
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = np.diag([1.0, -1.0])
        assert circle_orbit_count([E]) == 2
        assert circle_orbit_count([A]) == 4
        boost = np.zeros((4, 4)); boost[0, 1] = boost[1, 0] = 1.0
        rot = np.zeros((4, 4)); rot[2, 3], rot[3, 2] = -1.0, 1.0
        assert sphere_orbit_count([boost, rot]) == 3
        for name, expected in [("sl2:n", 2), ("sl2:a", 4), ("so13:ma", 3)]:
            pd = pair(name)
            nf = normalize_nonreductive(pd.g, pd.h, pd.P)
            assert nonreductive_orbit_count(nf, _witness(pd)).count == expected


class TestDilation:
    def _check(self, g, P, nf):
        # X lies in m + a and is not ad-nilpotent: flow with a general exponential
        G = g.b_theta
        for j, space in zip((1, 2), nf.n0_graded):
            for x in space:
                for t in (-1.0, 0.3, 1.0):
                    y = expm(t * g.ad(nf.X)) @ x
                    lhs = float(np.sqrt(y @ G @ y))
                    rhs = float(np.exp(j * t) * np.sqrt(x @ G @ x))
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)

    def test_catalog_normal_forms(self, pair, parabolic_of):
        for name in ("sl2:a", "so13:ma"):
            pd = pair(name)
            nf = normalize_nonreductive(pd.g, pd.h, pd.P)
            self._check(pd.g, pd.P, nf)
        # pairs with a 2-alpha component
        for amb in ("su(1,2)", "sp(1,2)"):
            g = get_algebra(amb)
            P = parabolic_of(amb)
            h = subalgebra(g, stack_span(P.m.basis, P.roots.a), name="m+a")
            nf = normalize_nonreductive(g, h, P)
            assert nf.n0_graded[1].shape[0] > 0
            self._check(g, P, nf)


class TestCoincidence:
    def test_reflexive(self, pair):
        pd = pair("so15:so11+su2")
        rep = symmetric_coincidence(pd.g, pd.h, pd.h, pd.P, samples=4, seed=0)
        assert rep.coincide

    def test_so15_instance(self, pair):
        h = pair("so15:so11+su2")
        hp = pair("so15:so11+so4")
        rep = symmetric_coincidence(h.g, h.h, hp.h, h.P, samples=64, seed=0)
        assert rep.coincide

    def test_sl2_cubed_mismatch_at_origin(self, pair):
        h = pair("sl2^3:diag")
        hp = pair("sl2^3:sl2^2")
        rep = symmetric_coincidence(h.g, h.h, hp.h, h.P, samples=4, seed=0)
        assert not rep.coincide
        assert rep.dims_h[0] == 1 and rep.dims_sup[0] == 2

    def test_containment_enforced(self, pair):
        h = pair("so15:so11+so4")
        hp = pair("so15:so11+su2")
        with pytest.raises(InputError):
            symmetric_coincidence(h.g, h.h, hp.h, h.P, samples=2, seed=0)
