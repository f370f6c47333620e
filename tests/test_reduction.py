import numpy as np
import pytest

from realflag.core import InputError, Subalgebra, pairwise_brackets, subalgebra
from realflag.linalg import in_span, numeric_rank, orth_rows, stack_span
from realflag.realforms import _transposed_theta, restricted_roots
from realflag.reduction import induced_pair, parabolic_alpha
from realflag.spherical import is_spherical


def _translated(pd, samples=16):
    """h moved by a sphericality witness so that h + p = g at the identity."""
    rep = is_spherical(pd.g, pd.h, pd.P, samples=samples, seed=0)
    assert rep.witness is not None
    return Subalgebra(pd.g, pd.g.ad_group(rep.witness, pd.h.basis, pd.P.roots.depth),
                      name=f"{pd.h.name}@w")


class TestParabolicAlpha:
    def test_rank_one_degenerate(self, pair):
        pd = pair("sl2:k")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        assert ap.p_alpha.dim == pd.g.dim
        assert ap.u_alpha.shape[0] == 0
        # flag reduces to sphericality at the identity: true for k (Iwasawa),
        # false for p itself (p + p is a proper subspace)
        _, _, flag = induced_pair(pd.g, pd.h, ap)
        assert flag
        _, _, flag_p = induced_pair(pd.g, pd.P.p, ap)
        assert not flag_p

    def test_sl3_dimensions(self, pair):
        pd = pair("sl3:so3")
        for alpha in range(len(pd.P.roots.simple_roots)):
            ap = parabolic_alpha(pd.g, pd.P, alpha)
            assert ap.p_alpha.dim == 6
            assert ap.l_alpha.dim + ap.u_alpha.shape[0] == ap.p_alpha.dim
            ap.p_alpha.validate()
            ap.l_alpha.validate()

    def test_sl2cubed_structure(self, pair):
        pd = pair("sl2^3:diag")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        # levi contains the root's own sl2 factor plus the other split torus directions
        assert ap.l_alpha.dim == 5
        assert ap.u_alpha.shape[0] == 2

    def test_non_simple_rejected(self, pair):
        pd = pair("sl3:so3")
        for bad in (-1, 2):
            with pytest.raises(InputError):
                parabolic_alpha(pd.g, pd.P, bad)

    def test_levi_rank_one(self, pair):
        # the derived algebra of l_alpha has exactly one indivisible positive root
        pd = pair("sl3:so3")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        # [l, l] is spanned by the brackets of basis pairs, and it is closed
        derived = subalgebra(pd.g, orth_rows(pairwise_brackets(pd.g, ap.l_alpha.basis)))
        # realized by its matrices, with theta -X^T read on them
        mats = np.tensordot(derived.basis, pd.g.matrices, 1)
        alg = _transposed_theta([f"l{i}" for i in range(derived.dim)], mats, "levi-derived")
        rr = restricted_roots(alg)
        assert rr.rank == 1
        assert rr.coords.tolist() == [[1], [-1]]


class TestLeviProjection:
    def test_identity_on_levi(self, pair):
        pd = pair("sl3:so3")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        for v in ap.l_alpha.basis:
            assert np.allclose(ap.projector @ v, v, atol=1e-10)

    def test_kernel_is_nilradical(self, pair):
        pd = pair("sl3:so3")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        for v in ap.u_alpha:
            assert np.linalg.norm(ap.projector @ v) < 1e-10

    def test_idempotent(self, pair):
        pd = pair("sl2^3:diag")
        ap = parabolic_alpha(pd.g, pd.P, 1)
        assert np.allclose(ap.projector @ ap.projector, ap.projector, atol=1e-10)

    @pytest.mark.parametrize("name,alpha_idx", [("sl3:so3", 0), ("sl3:so3", 1),
                                                ("sl2^3:diag", 0)])
    def test_homomorphism_residual(self, pair, name, alpha_idx):
        pd = pair(name)
        ap = parabolic_alpha(pd.g, pd.P, alpha_idx)
        rng = np.random.default_rng(0)
        pa = ap.p_alpha.basis
        X = rng.standard_normal((1000, pa.shape[0])) @ pa
        Y = rng.standard_normal((1000, pa.shape[0])) @ pa
        br = np.einsum("ti,tj,ijk->tk", X, Y, pd.g.bracket_tensor)
        lhs = br @ ap.projector.T
        rhs = np.einsum("ti,tj,ijk->tk", X @ ap.projector.T, Y @ ap.projector.T,
                        pd.g.bracket_tensor)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(lhs).max())

    def test_bracket_with_nilradical_projects_to_zero(self, pair):
        pd = pair("sl3:so3")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(ap.p_alpha.dim) @ ap.p_alpha.basis
        u = rng.standard_normal(ap.u_alpha.shape[0]) @ ap.u_alpha
        assert np.linalg.norm(ap.projector @ pd.g.bracket(x, u)) < 1e-8


class TestInducedPair:
    def test_full_algebra(self, pair):
        pd = pair("sl3:so3")
        ap = parabolic_alpha(pd.g, pd.P, 0)
        full = Subalgebra(pd.g, np.eye(pd.g.dim), name="g")
        _, h_alpha, flag = induced_pair(pd.g, full, ap)
        assert flag and h_alpha.dim == ap.l_alpha.dim

    def test_sl3_so3_open_for_each_root(self, pair):
        pd = pair("sl3:so3")
        assert numeric_rank(stack_span(pd.h.basis, pd.P.p.basis)) == pd.g.dim
        for alpha in range(len(pd.P.roots.simple_roots)):
            ap = parabolic_alpha(pd.g, pd.P, alpha)
            _, h_alpha, flag = induced_pair(pd.g, pd.h, ap)
            assert flag
            h_alpha.validate(1e-7)
            assert in_span(h_alpha.basis, ap.l_alpha.basis, 1e-7)

    def test_sl2cubed_diag_open_after_translation(self, pair):
        pd = pair("sl2^3:diag")
        h_t = _translated(pd)
        assert numeric_rank(stack_span(h_t.basis, pd.P.p.basis)) == pd.g.dim
        for alpha in range(len(pd.P.roots.simple_roots)):
            ap = parabolic_alpha(pd.g, pd.P, alpha)
            _, h_alpha, flag = induced_pair(pd.g, h_t, ap)
            assert flag

    def test_h_alpha_inside_cap_plus_nilradical(self, pair):
        # infinitesimal form of the containment used to glue double cosets
        from realflag.linalg import intersect_spans
        pd = pair("sl2^3:diag")
        h_t = _translated(pd)
        for alpha in range(len(pd.P.roots.simple_roots)):
            ap = parabolic_alpha(pd.g, pd.P, alpha)
            _, h_alpha, _ = induced_pair(pd.g, h_t, ap)
            cap = intersect_spans(h_t.basis, ap.p_alpha.basis)
            assert in_span(h_alpha.basis, stack_span(cap, ap.u_alpha), 1e-7)

    def test_openness_propagation_catalog(self, pair):
        # whenever h + p = g at the identity, every induced pair is open
        for name in ("sl3:so3", "berger:su(1,2):so(1,2)"):
            pd = pair(name)
            if numeric_rank(stack_span(pd.h.basis, pd.P.p.basis)) != pd.g.dim:
                pd_h = _translated(pd)
            else:
                pd_h = pd.h
            for alpha in range(len(pd.P.roots.simple_roots)):
                ap = parabolic_alpha(pd.g, pd.P, alpha)
                _, _, flag = induced_pair(pd.g, pd_h, ap)
                assert flag
