import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from realflag import core
from realflag.catalog import catalog_entries
from realflag.core import (ConstructionError, InputError, LieAlgebra, UnsupportedOperation,
                           _jacobi_residual, _matrix_residual,
                           cartan_decomposition, from_entries, load_algebra, save_algebra,
                           subalgebra, to_entries, validate_algebra)
from realflag.linalg import brackets, signature_of
from realflag.realforms import _root_lattice, _sl2_weyl, get_algebra
from realflag.spherical import sample_group_element, sample_rng

from oracles import (ad_dense, commutator_coefficients, jacobi_residual, jacobi_slabs,
                     killing_einsum, realization_slabs)
from test_orbits import RANK_ONE_AMBIENTS


def _unit(L, label):
    v = np.zeros(L.dim)
    v[L.labels.index(label)] = 1.0
    return v


def _ad(L, word, depth=None):
    """The full matrix Ad(x): the row action on the identity, transposed; the series is
    cut at ``depth``, or at ``dim``, where it ends for every ad-nilpotent row."""
    return L.ad_group(word, np.eye(L.dim), L.dim if depth is None else depth).T


# 2 m + 1, m the height of the highest restricted root
DEPTHS = {"sl2": 3, "so(1,2)": 3, "so(1,3)": 3, "so(1,4)": 3, "so(1,5)": 3, "sl2^3": 3,
          "sl3": 5, "su(1,2)": 5, "su(1,3)": 5, "su(1,4)": 5, "su(1,5)": 5, "sp(1,2)": 5,
          "sp(1,3)": 5, "sp(1,4)": 5, "sp(1,5)": 5, "f4": 5,
          "su(2,2)": 7, "sp(2,3)": 9, "so(3,4)": 11, "su(3,3)": 11}


class TestBracket:
    def test_antisymmetry_on_any_vector(self, sl2):
        rng = np.random.default_rng(0)
        X = rng.standard_normal(3)
        assert np.linalg.norm(sl2.bracket(X, X)) < 1e-12

    def test_sl2_EF_is_H(self, sl2):
        # oracle: 2x2 matrix commutator
        E, F = _unit(sl2, "E01"), _unit(sl2, "E10")
        expected = commutator_coefficients(list(sl2.matrices),
                                           sl2.labels.index("E01"), sl2.labels.index("E10"))
        got = sl2.bracket(E, F)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, _unit(sl2, "H0"), atol=1e-12)

    def test_so3_cyclic(self):
        so3 = get_algebra("so(3)")
        # standard cyclic basis, checked against matrix commutators
        Lx = np.array([[0.0, 0, 0], [0, 0, -1], [0, 1, 0]])
        Ly = np.array([[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]])
        Lz = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 0]])
        sub = np.array([so3.coefficients_of(M) for M in (Lx, Ly, Lz)])
        e = np.eye(3)
        # [e1, e2] = e3 cyclically, oracle = commutators of Lx, Ly, Lz
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            oracle = commutator_coefficients([Lx, Ly, Lz], i, j)
            assert np.allclose(oracle, e[k], atol=1e-12)
            assert np.allclose(so3.bracket(sub[i], sub[j]), sub[k], atol=1e-10)

    def test_dimension_mismatch(self, sl2):
        with pytest.raises(InputError):
            sl2.bracket(np.zeros(4), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_bilinear(self, seed):
        L = get_algebra("sl2")
        rng = np.random.default_rng(seed)
        X, Y, Z = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        lhs = L.bracket(a * X + b * Y, Z)
        rhs = a * L.bracket(X, Z) + b * L.bracket(Y, Z)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestKilling:
    def test_sl2_BHH(self, sl2):
        H = _unit(sl2, "H0")
        assert abs(H @ sl2.killing @ H - 8.0) < 1e-10

    def test_so3_signature(self):
        assert signature_of(get_algebra("so(3)").killing) == (0, 3)

    def test_so12_signature(self):
        assert signature_of(get_algebra("so(1,2)").killing) == (2, 1)

    def test_ad_invariance(self, so14):
        rng = np.random.default_rng(3)
        B = so14.killing
        c = so14.bracket_tensor
        X = rng.standard_normal((1000, so14.dim))
        Y = rng.standard_normal((1000, so14.dim))
        Z = rng.standard_normal((1000, so14.dim))
        bzx = np.einsum("ti,tj,ijk->tk", Z, X, c)
        bzy = np.einsum("ti,tj,ijk->tk", Z, Y, c)
        resid = np.einsum("tk,kl,tl->t", bzx, B, Y) + np.einsum("tk,kl,tl->t", X, B, bzy)
        scale = max(1.0, np.abs(np.einsum("tk,kl,tl->t", bzx, B, Y)).max())
        assert np.abs(resid).max() / scale < 1e-8


# every ambient of the catalog at --n 5, and the two exceptional algebras
KERNEL_AMBIENTS = sorted({e.ambient for e in catalog_entries(5)} | {"f4", "g2"})


def _generic_basis(L: LieAlgebra, seed: int, realized: bool = False) -> LieAlgebra:
    """L on a seeded random basis: every constant c[a, b, k] with a != b is nonzero.  If
    ``realized``, it keeps L's realization and theta, carried to the new basis."""
    T = np.random.default_rng(seed).standard_normal((L.dim, L.dim))
    c = brackets(L.bracket_tensor, T, T) @ np.linalg.inv(T)
    c = (c - c.transpose(1, 0, 2)) / 2.0
    if not realized:
        return LieAlgebra(labels=L.labels, structure=c, name=f"{L.name} (generic basis)")
    return LieAlgebra(labels=L.labels, structure=c, matrices=np.tensordot(T, L.matrices, 1),
                      theta=np.linalg.inv(T).T @ L.theta @ T.T,
                      name=f"{L.name} (generic basis)")


class TestContractionKernels:
    """``killing`` and ``ad`` against the dense contractions they replaced."""

    @pytest.mark.parametrize("name", KERNEL_AMBIENTS)
    def test_killing_equals_the_einsum(self, name):
        L = get_algebra(name)
        B, oracle = L.killing, killing_einsum(L.bracket_tensor)
        assert np.array_equal(B, B.T)
        if name in ("f4", "g2"):            # exact dyadic constants: every sum is exact
            assert np.array_equal(B, oracle)
        else:
            assert np.abs(B - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("name", KERNEL_AMBIENTS + ["sp(1,2) generic"])
    def test_ad_equals_the_dense_product(self, name):
        L = (_generic_basis(get_algebra("sp(1,2)"), 0) if name.endswith("generic")
             else get_algebra(name))
        rng = np.random.default_rng(5)
        for X in rng.standard_normal((4, L.dim)):
            A, oracle = L.ad(X), ad_dense(L.bracket_tensor, X)
            assert np.abs(A - oracle).max() <= 1e-15 * np.abs(oracle).max()
            for j, e in enumerate(np.eye(L.dim)):
                assert np.abs(A[:, j] - L.bracket(X, e)).max() <= 1e-15 * np.abs(oracle).max()

    def test_generic_basis_has_no_zero_constant(self, sp12):
        c = _generic_basis(sp12, 0).bracket_tensor
        off_diagonal = ~np.eye(sp12.dim, dtype=bool)
        assert (c[off_diagonal] != 0).all() and not c[~off_diagonal].any()


class TestAdjoint:
    def test_zero(self, sl2):
        assert np.linalg.norm(sl2.ad(np.zeros(3))) == 0.0

    def test_sl2_H_eigenvalues(self, sl2):
        ev = np.sort(np.linalg.eigvals(sl2.ad(_unit(sl2, "H0"))).real)
        assert np.allclose(ev, [-2.0, 0.0, 2.0], atol=1e-10)

    def test_ad_matches_bracket(self, so14):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, Y = rng.standard_normal((2, so14.dim))
            assert np.allclose(so14.ad(X) @ Y, so14.bracket(X, Y), atol=1e-10)


class TestAdGroup:
    @pytest.mark.parametrize("name", ["f4", "sp(1,3)"])
    def test_matches_reference_einsum(self, name, parabolic_of):
        # reference: conjugate the realization by the group element, extract coefficients
        L = get_algebra(name)
        word = sample_group_element(parabolic_of(name), np.random.default_rng(5))
        x = np.eye(L.matrices.shape[1])
        for X in word:
            x = x @ expm(np.tensordot(X, L.matrices, 1))
        conj = np.einsum("ab,ibc,cd->iad", x, L.matrices, np.linalg.inv(x))
        ref = (conj.reshape(L.dim, -1) @ np.linalg.pinv(L.matrices.reshape(L.dim, -1))).T
        assert np.abs(_ad(L, word) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["f4", "sp(1,3)", "su(3,3)"])
    def test_nbar_samples_match_scipy(self, name, parabolic_of):
        L = get_algebra(name)
        for i in range(8):
            word = sample_group_element(parabolic_of(name), sample_rng(0, i))
            ref = expm(L.ad(word[0]))
            assert np.abs(_ad(L, word) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["sl2", "sl3", "so(1,4)", "su(1,2)", "sp(1,3)", "so(3,4)",
                                      "su(3,3)", "f4"])
    def test_weyl_words_match_scipy(self, name, parabolic_of):
        # exp(E) exp(theta E) exp(E) is the reflection exp(pi/2 (E + theta E))
        L = get_algebra(name)
        roots = parabolic_of(name).roots
        for i in range(len(roots.simple_roots)):
            word = _sl2_weyl(L, roots, i)
            E = word[0]
            assert word.shape == (3, L.dim) and np.array_equal(word[2], E)
            ref = expm(np.pi / 2 * L.ad(E + L.theta @ E))
            assert np.abs(_ad(L, word) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("scale", [1.0, np.nan], ids=["H0", "nan"])
    def test_rejects_a_row_that_is_not_ad_nilpotent(self, sl2, scale):
        with pytest.raises(InputError, match="ad-nilpotent"):
            _ad(sl2, scale * _unit(sl2, "H0")[None])

    @pytest.mark.parametrize("name", ["f4", "sp(1,3)"])
    def test_is_a_bracket_automorphism(self, name, parabolic_of):
        L = get_algebra(name)
        ad = _ad(L, sample_group_element(parabolic_of(name), np.random.default_rng(7)))
        X, Y = np.random.default_rng(8).standard_normal((2, L.dim))
        lhs = ad @ L.bracket(X, Y)
        assert np.abs(lhs - L.bracket(ad @ X, ad @ Y)).max() <= 1e-12 * np.abs(lhs).max()

    @pytest.mark.parametrize("name", ["f4", "sp(1,3)"])
    def test_word_times_reversed_negation_is_identity(self, name, parabolic_of):
        L = get_algebra(name)
        word = sample_group_element(parabolic_of(name), np.random.default_rng(9))
        assert np.abs(_ad(L, np.vstack([word, -word[::-1]])) - np.eye(L.dim)).max() <= 1e-12
        assert np.array_equal(_ad(L, np.zeros((0, L.dim))), np.eye(L.dim))

    # an exactly ad-nilpotent element of sl3's nbar (integer coordinates on E10, E20, E21)
    # scaled by a power of two to each 1-norm; 300 is where scipy squares six times
    @pytest.mark.parametrize("norm", [1e-3, 0.2, 0.9, 2.0, 5.0, 20.0, 300.0])
    def test_exponential_matches_scipy(self, norm):
        L = get_algebra("sl3")
        X = _unit(L, "E10") * 3.0 + _unit(L, "E20") * 5.0 - _unit(L, "E21") * 2.0
        X *= 2.0 ** np.round(np.log2(norm / np.abs(L.ad(X)).sum(axis=0).max()))
        ref = expm(L.ad(X))
        assert np.linalg.norm(_ad(L, X[None]) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("t", [1e-3, 0.2, 1.0, 2.5, 50.0])
    def test_exponential_of_a_nilpotent_is_its_finite_series(self, t):
        L = get_algebra("sl3")
        A = L.ad(t * _unit(L, "E02"))
        series, term, k = np.eye(L.dim), np.eye(L.dim), 0
        while term.any():
            k += 1
            term = term @ A / k
            series += term
        assert k == 3
        got = _ad(L, t * _unit(L, "E02")[None])
        assert np.linalg.norm(got - series) <= 1e-13 * np.linalg.norm(series)

    @pytest.mark.parametrize("name", sorted(DEPTHS))
    def test_depth_from_the_highest_root(self, name, parabolic_of):
        P = parabolic_of(name)
        assert P.roots.depth == DEPTHS[name]

    def test_depth_needs_integer_simple_root_coordinates(self, parabolic_of):
        # against doubled simple roots, alpha_1 has coordinates (1/2, 0)
        roots = parabolic_of("sl3").roots
        a_gram = roots.a @ roots.algebra.b_theta @ roots.a.T
        with pytest.raises(ConstructionError, match="integer"):
            _root_lattice(roots.root_vectors, 2.0 * roots.simple_roots, a_gram)

    @pytest.mark.parametrize("name", RANK_ONE_AMBIENTS + ["sl3", "sl2^3", "so(3,4)", "su(3,3)"])
    def test_cut_at_the_depth_matches_the_full_series(self, name, parabolic_of):
        # rows of n̄ samples and of Weyl triples: (ad X)^depth = 0, so the tail is rounding
        P = parabolic_of(name)
        L, depth = P.algebra, P.roots.depth
        words = [sample_group_element(P, sample_rng(0, i)) for i in range(8)]
        words += [_sl2_weyl(L, P.roots, i) for i in range(len(P.roots.simple_roots))]
        for word in words:
            full = _ad(L, word)
            cut = _ad(L, word, depth=depth)
            assert np.abs(cut - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("name", ["sl2", "so(1,4)", "sl3", "su(1,2)", "sp(1,3)", "f4",
                                      "su(2,2)", "sp(2,3)", "so(3,4)", "su(3,3)"])
    def test_cut_below_the_depth_raises(self, name, parabolic_of):
        # the depth is tight: (ad Y)^(depth - 1) of a generic n̄ row is far above rounding
        P = parabolic_of(name)
        word = sample_group_element(P, sample_rng(0, 0))
        _ad(P.algebra, word, depth=P.roots.depth)
        with pytest.raises(InputError, match="ad-nilpotent"):
            _ad(P.algebra, word, depth=P.roots.depth - 1)

    @pytest.mark.parametrize("name", ["sl2", "su(1,2)", "f4", "su(3,3)"])
    def test_cut_raises_on_a_row_outside_the_grading(self, name, parabolic_of):
        # E + theta E lies in k: ad of it is not nilpotent, so the series may not be cut
        P = parabolic_of(name)
        L = P.algebra
        E = P.roots.space_of(np.eye(P.roots.rank, dtype=int)[0])[0]
        with pytest.raises(InputError, match="ad-nilpotent"):
            _ad(L, (E + L.theta @ E)[None], depth=P.roots.depth)

    @pytest.mark.parametrize("name", ["f4", "sp(1,3)", "su(3,3)"])
    def test_row_action_is_the_matrix_on_the_rows(self, name, parabolic_of):
        P = parabolic_of(name)
        L = P.algebra
        rows = np.random.default_rng(3).standard_normal((5, L.dim))
        words = [sample_group_element(P, sample_rng(0, 0)), P.weyl, np.zeros((0, L.dim))]
        for word in words:
            full = np.eye(L.dim)
            for X in word:
                full = full @ expm(L.ad(X))
            ref = rows @ full.T
            got = L.ad_group(word, rows, P.roots.depth)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nilpotency_check_is_on_the_rows(self):
        # (ad E02)^2 kills E21 ([E02, E21] = E01, [E02, E01] = 0) but not all of sl3
        L = get_algebra("sl3")
        X = _unit(L, "E02")[None]
        got = L.ad_group(X, _unit(L, "E21")[None], depth=2)
        assert np.abs(got[0] - _unit(L, "E21") - _unit(L, "E01")).max() <= 1e-15
        assert np.array_equal(L.ad_group(X, X, depth=1), X)
        with pytest.raises(InputError, match="ad-nilpotent"):
            L.ad_group(X, np.eye(L.dim), depth=2)
        with pytest.raises(InputError, match="ad-nilpotent"):
            L.ad_group(X, _unit(L, "E20")[None], depth=2)

    @pytest.mark.parametrize("shape", [(52,), (2, 51), (1, 2, 52)],
                             ids=["vector", "wrong-width", "three-index"])
    def test_rejects_a_wrongly_shaped_word(self, shape):
        with pytest.raises(InputError, match="word"):
            _ad(get_algebra("f4"), np.zeros(shape))


class TestClosure:
    def test_nilpotent_line(self, sl2):
        assert subalgebra(sl2, _unit(sl2, "E01")).dim == 1

    def test_EF_generate(self, sl2):
        E, F = _unit(sl2, "E01"), _unit(sl2, "E10")
        with pytest.raises(InputError, match="not closed"):
            subalgebra(sl2, np.vstack([E, F]))
        assert subalgebra(sl2, np.vstack([E, F, sl2.bracket(E, F)])).dim == 3

    def test_so3_inside_so13(self):
        so13 = get_algebra("so(1,3)")
        rows = [so13.coefficients_of(M) for M in so13.matrices
                if np.abs(M[0]).max() == 0.0]  # rotations fixing the time axis
        assert subalgebra(so13, np.array(rows)).dim == 3


CARTAN_FORMS = ["sl2", "so(1,3)", "su(1,2)", "sp(1,2)", "sl3"]


class TestCartan:
    def test_so14(self, so14):
        k, s = cartan_decomposition(so14)
        assert (k.dim, s.shape[0]) == (6, 4)

    def test_su12(self, su12):
        k, s = cartan_decomposition(su12)
        assert (k.dim, s.shape[0]) == (4, 4)

    def test_compact(self):
        k, s = cartan_decomposition(get_algebra("so(3)"))
        assert s.shape[0] == 0

    def test_bracket_relations(self, so14):
        k, s = cartan_decomposition(so14)
        ks = np.einsum("ai,bj,ijk->abk", k.basis, s, so14.bracket_tensor).reshape(-1, so14.dim)
        ss = np.einsum("ai,bj,ijk->abk", s, s, so14.bracket_tensor).reshape(-1, so14.dim)
        from realflag.linalg import span_residual
        assert span_residual(ks, s) < 1e-8
        assert span_residual(ss, k.basis) < 1e-8

    def test_killing_signs(self, so14):
        k, s = cartan_decomposition(so14)
        B = so14.killing
        assert signature_of(k.basis @ B @ k.basis.T) == (0, k.dim)
        assert signature_of(s @ B @ s.T) == (s.shape[0], 0)

    @pytest.mark.parametrize("name", CARTAN_FORMS)
    def test_theta_eigenspaces(self, name):
        # k is fixed by theta, s is negated, and the two are B_theta-orthogonal and fill g
        L = get_algebra(name)
        k, s = cartan_decomposition(L)
        assert k.dim + s.shape[0] == L.dim
        assert np.abs(k.basis @ L.theta.T - k.basis).max() < 1e-10
        assert np.abs(s @ L.theta.T + s).max() < 1e-10
        assert np.abs(k.basis @ L.b_theta @ s.T).max() < 1e-10

    @pytest.mark.parametrize("name", CARTAN_FORMS)
    def test_bracket_relations_across_forms(self, name):
        # absolute residuals: [k, k] is pure rounding when k is abelian, as in sl2
        L = get_algebra(name)
        k, s = cartan_decomposition(L)
        from realflag.linalg import brackets

        def off_span(A, B, basis):
            br = brackets(L.bracket_tensor, A, B).reshape(-1, L.dim)
            return np.abs(br - br @ basis.T @ basis).max()
        assert off_span(k.basis, k.basis, k.basis) < 1e-10
        assert off_span(k.basis, s, s) < 1e-10
        assert off_span(s, s, k.basis) < 1e-10

    def test_requires_theta(self, sl2):
        from realflag.core import LieAlgebra
        bare = LieAlgebra(labels=sl2.labels, matrices=sl2.matrices, theta=None)
        with pytest.raises(UnsupportedOperation):
            cartan_decomposition(bare)


class TestProperties:
    @pytest.mark.parametrize("name", ["sl2", "so(1,3)", "so(1,4)", "su(1,2)", "sp(1,2)", "sl3"])
    def test_jacobi_sampled(self, name):
        assert jacobi_residual(get_algebra(name), 1000, seed=0) < 1e-8

    @pytest.mark.parametrize("name", ["sl2", "so(1,4)", "su(1,2)", "sp(1,2)", "sl2^3"])
    def test_b_theta_positive_definite(self, name):
        L = get_algebra(name)
        ev = np.linalg.eigvalsh(L.b_theta)
        assert ev.min() > 0

    @pytest.mark.parametrize("name", ["sl2", "so(1,4)", "su(1,2)"])
    def test_validate(self, name):
        validate_algebra(get_algebra(name))


def _so3_and_centre(centre, defect=0.0):
    """so(3) plus a 2-dimensional centre placed before or after it, with a realization on R^5.

    so(3) acts on R^3 by (M_a)_jk = -eps_ajk and the centre by E_33, E_44.  ``defect`` adds
    [e_0, e_2] += defect e_0 inside so(3), which keeps the bracket exactly antisymmetric and
    breaks Jacobi in the so(3) triple only: (0, 1, 2) after the centre, (d-3, d-2, d-1) before.
    """
    c, mats = np.zeros((5, 5, 5)), np.zeros((5, 5, 5))
    for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[a, b, k], c[b, a, k] = 1.0, -1.0
        mats[a, b, k], mats[a, k, b] = -1.0, 1.0
    c[0, 2, 0], c[2, 0, 0] = defect, -defect
    mats[3, 3, 3] = mats[4, 4, 4] = 1.0
    order = [0, 1, 2, 3, 4] if centre == "after" else [3, 4, 0, 1, 2]
    return c[np.ix_(order, order, order)], mats[order]


class TestValidate:
    def test_rejects_a_perturbed_jacobi_entry(self, so14):
        # the check runs in chunks of the largest index; perturb the first and the last row
        for i in (0, so14.dim - 1):
            c = np.array(so14.bracket_tensor)
            j, k = np.argwhere(c[i] != 0)[0]
            c[i, j, k] += 1e-3
            c[j, i, k] -= 1e-3          # still exactly antisymmetric
            with pytest.raises(ConstructionError, match="Jacobi"):
                validate_algebra(LieAlgebra(labels=so14.labels, structure=c))

    # the check sums each Jacobi triple i < j < k and each realization pair i < j once; these
    # place the only defect in the first or the last of them, so a join that skips it passes
    @pytest.mark.parametrize("centre", ["after", "before"])
    def test_jacobi_sees_the_first_and_the_last_triple(self, centre):
        c, _ = _so3_and_centre(centre, defect=0.5)
        L = LieAlgebra(labels=tuple("abcde"), structure=c)
        with pytest.raises(ConstructionError, match="Jacobi"):
            validate_algebra(L)
        c, _ = _so3_and_centre(centre)
        validate_algebra(LieAlgebra(labels=tuple("abcde"), structure=c))

    @pytest.mark.parametrize("which", [0, -1])
    def test_realization_sees_the_first_and_the_last_pair(self, which):
        # the centre comes first when mats[0] is perturbed and last when mats[-1] is; t E_34
        # added to one central matrix fails to commute with the other central matrix only, so
        # the defect is in pair (0, 1) or (d - 2, d - 1) alone
        c, mats = _so3_and_centre("before" if which == 0 else "after")
        validate_algebra(LieAlgebra(labels=tuple("abcde"), structure=c, matrices=mats.copy()))
        mats[which, 3, 4] = 1e-3
        with pytest.raises(ConstructionError, match="realization"):
            validate_algebra(LieAlgebra(labels=tuple("abcde"), structure=c, matrices=mats))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_residual_that_overflows_to_nan_fails(self, so14):
        # finite constants whose Jacobi products overflow: inf - inf is NaN, bound is inf
        c = 1e200 * np.array(so14.bracket_tensor)
        with pytest.raises(ConstructionError, match="Jacobi"):
            validate_algebra(LieAlgebra(labels=so14.labels, structure=c))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_a_residual_that_overflows_to_inf_fails(self, scale):
        # a Jacobi defect whose products overflow to one-signed infs; at 1e160 the bound
        # 1e-9 cmax^2 dim overflows to inf as well
        c, _ = _so3_and_centre("after", defect=0.5)
        with pytest.raises(ConstructionError, match="Jacobi"):
            validate_algebra(LieAlgebra(labels=tuple("abcde"), structure=scale * c))

    @pytest.mark.parametrize("what", ["structure", "theta", "matrices"])
    def test_rejects_non_finite_input(self, su12, what):
        parts = {"structure": np.array(su12.bracket_tensor), "theta": np.array(su12.theta),
                 "matrices": np.array(su12.matrices)}
        parts[what].flat[1] = np.inf
        with pytest.raises(ConstructionError, match="not finite"):
            validate_algebra(LieAlgebra(labels=su12.labels, **parts))

    @pytest.mark.parametrize("factor", [2.0, -1.0])
    def test_rejects_a_wrongly_scaled_realization(self, su12, factor):
        L = LieAlgebra(labels=su12.labels, matrices=factor * su12.matrices,
                       theta=su12.theta, structure=su12.bracket_tensor)
        with pytest.raises(ConstructionError, match="realization"):
            validate_algebra(L)


# one-entry changes of 1/16 (exact in binary) of c[a, b, k] (c[b, a, k] with it) or M_x[r, s],
# at the first pair and the last component, the last pair and the first, and a seeded entry
CHANGES = ["none", "c-first", "c-last", "c-seeded", "m-first", "m-last", "m-seeded"]


def _changed(name: str, change: str) -> LieAlgebra:
    L = (_generic_basis(get_algebra("sp(1,2)"), 0, realized=True) if name.endswith("generic")
         else get_algebra(name))
    c, mats = np.array(L.bracket_tensor), np.array(L.matrices)
    d, N = L.dim, mats.shape[1]
    rng = np.random.default_rng(CHANGES.index(change))
    if change.startswith("c-"):
        a, b = sorted(rng.choice(d, 2, replace=False))
        a, b, k = {"c-first": (0, 1, d - 1), "c-last": (d - 2, d - 1, 0),
                   "c-seeded": (a, b, rng.integers(d))}[change]
        c[a, b, k] += 0.0625
        c[b, a, k] -= 0.0625
    elif change.startswith("m-"):
        x, r, s = {"m-first": (0, 0, N - 1), "m-last": (d - 1, N - 1, 0),
                   "m-seeded": (rng.integers(d), rng.integers(N), rng.integers(N))}[change]
        mats[x, r, s] += 0.0625
    return LieAlgebra(labels=L.labels, structure=c, matrices=mats, theta=L.theta)


class TestValidateJoins:
    """The joins of ``validate_algebra`` against the dense slab loops they replaced."""

    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("name", KERNEL_AMBIENTS + ["sp(1,2) generic"])
    def test_residuals_and_verdict_equal_the_slab_loops(self, name, change):
        L = _changed(name, change)
        c, mats = L.bracket_tensor, L.matrices
        cmax = max(np.abs(c).max(), 1.0)
        scale = max(np.abs(mats).max() ** 2, 1e-30) * cmax
        oracle, oracle_m = jacobi_slabs(c), realization_slabs(c, mats)
        # equal to 1e-12 relative, or both 0; or both rounding, far below the check's bound,
        # as on the generic basis, where the joins and the slabs sum in different orders
        for ours, theirs, unit in ((_jacobi_residual(L), oracle, cmax * cmax),
                                   (_matrix_residual(L), oracle_m, scale)):
            assert (ours == theirs == 0 or abs(ours - theirs) <= 1e-12 * theirs
                    or max(ours, theirs) <= 1e-11 * unit)
        th = L.theta.T                          # the theta check, which stays dense
        theta = np.abs(c @ th - brackets(c, th, th)).max()
        if oracle > 1e-9 * cmax * cmax * L.dim:
            with pytest.raises(ConstructionError, match="Jacobi"):
                validate_algebra(L)
        elif theta > 1e-8 * cmax:
            with pytest.raises(ConstructionError, match="automorphism"):
                validate_algebra(L)
        elif oracle_m > 1e-8 * scale:
            with pytest.raises(ConstructionError, match="realization"):
                validate_algebra(L)
        else:
            validate_algebra(L)
        # every change shows
        assert (change == "none") == (max(oracle, oracle_m) <= 1e-9)

    @pytest.mark.parametrize("name", ["so(1,4)", "g2", "sp(1,2) generic"])
    def test_residuals_do_not_depend_on_the_chunks(self, name, monkeypatch):
        L = _changed(name, "c-seeded")
        whole = _jacobi_residual(L), _matrix_residual(L)
        # one leading index per chunk and a few pairs per run, the smallest the joins allow
        monkeypatch.setattr(core, "_KEYS_PER_CUBE", 0.0)
        monkeypatch.setattr(core, "_LEADS_PER_CUBE", 0.0)
        monkeypatch.setattr(core, "_PAIRS_PER_CUBE", 3.0 / L.dim ** 3)
        split = _jacobi_residual(L), _matrix_residual(L)
        for a, b in zip(whole, split):
            assert abs(a - b) <= 1e-14 * a

    # the peaks of the dense slab loops at the parent commit, with the same set-up: 4,501,704
    # B on f4, where the theta check made the peak, and 269,256 B on generic-basis sp(1,2);
    # the joins measured 3,916,745 B (the theta check, its difference now taken in place) and
    # 223,525 B (numpy 2.4).  The algebra's nonzero constants are read as ``ad`` reads them,
    # from its cache, which is built before tracing as the bracket is.
    @pytest.mark.parametrize("name, cap", [("f4", 4_501_704), ("sp(1,2) generic", 269_256)])
    def test_peak_memory_stays_under_the_slab_loops(self, name, cap):
        L = _generic_basis(get_algebra("sp(1,2)"), 0) if name.endswith("generic") else \
            get_algebra(name)
        L._nonzeros
        tracemalloc.start()
        try:
            validate_algebra(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap


# so(3): [e_0, e_1] = e_2, [e_1, e_2] = e_0, [e_2, e_0] = e_1, as rows with i < j
_SO3 = [[0, 1, 2, 1.0], [1, 2, 0, 1.0], [0, 2, 1, -1.0]]


class TestJSON:
    def test_roundtrip(self, tmp_path, so14):
        path = tmp_path / "so14.json"
        save_algebra(so14, path)
        back = load_algebra(path)
        assert back.dim == so14.dim
        assert np.allclose(back.bracket_tensor, so14.bracket_tensor, atol=1e-12)
        assert np.allclose(back.theta, so14.theta, atol=1e-12)
        assert back.labels == so14.labels

    def test_roundtrip_of_an_abelian_algebra(self, tmp_path):
        path = tmp_path / "abelian.json"
        save_algebra(LieAlgebra(labels=("a", "b"), structure=np.zeros((2, 2, 2))), path)
        assert json.loads(path.read_text())["bracket"] == []
        assert not load_algebra(path).bracket_tensor.any()

    def test_loader_validates_jacobi(self, tmp_path):
        doc = {"dim": 2, "labels": ["x", "y"],
               "bracket": [[0, 1, 0, 1.0], [0, 1, 1, 1.0]]}
        # [x,y] = x + y fails Jacobi? it does satisfy Jacobi (2-dim); corrupt antisymmetry instead
        import json
        path = tmp_path / "bad.json"
        doc = {"dim": 3, "labels": ["a", "b", "c"],
               "bracket": [[0, 1, 2, 1.0], [1, 2, 0, 1.0], [0, 2, 1, -1.0],
                           [0, 2, 0, 0.5]]}  # perturbed so(3): Jacobi fails
        path.write_text(json.dumps(doc))
        with pytest.raises(ConstructionError):
            load_algebra(path)

    @pytest.mark.parametrize("entry", [[-1, 0, 1, 1.0], [2, -3, 1, 1.0], [2, 0, 3, 1.0],
                                       [False, True, 2, 1.0]])
    def test_loader_rejects_an_index_outside_the_dimension(self, entry):
        # so(3) with its entry [e_2, e_0] = e_1 written with one index outside [0, 3); numpy
        # alone would read -1 as 2 and -3 as 0 and load so(3), and would read the booleans
        # as a mask, leaving c[0, 1, 2] at 0
        with pytest.raises(InputError, match="outside"):
            load_algebra({"dim": 3, "bracket": [[0, 1, 2, 1.0], [1, 2, 0, 1.0], entry]})

    @pytest.mark.parametrize("doc", [
        {"dim": -1, "bracket": []},
        {"dim": 0, "bracket": []},
        {"dim": "three", "bracket": []},
        {"dim": 3, "bracket": [[0, 1, 2]]},
        # so(3) plus a repeat of [e_1, e_2] = e_0, read last at a loose loader: c[1, 2, 0] = 2
        # would pass every algebra check
        {"dim": 3, "bracket": _SO3 + [[1, 2, 0, 2.0]]},
        {"dim": 3, "bracket": _SO3 + [[1, 2, 0, 1.0]]},
        {"dim": 3, "bracket": _SO3[:2] + [[2, 0, 1, 1.0]]},   # so(3) itself, one row as j < i
        {"dim": 3, "bracket": _SO3 + [[1, 1, 0, 1.0]]},
    ], ids=["negative-dim", "zero-dim", "word-dim", "short-row", "repeated-entry",
            "repeated-same-value", "bracket-i-above-j", "bracket-i-equals-j"])
    def test_loader_rejects_a_malformed_document(self, doc):
        with pytest.raises(InputError, match="malformed"):
            load_algebra(doc)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"dim": 3}')
        with pytest.raises(InputError):
            load_algebra(path)


def _entries_are_valid(index, value, shape, bracket) -> bool:
    """What ``from_entries`` accepts, decided on the Python lists with a set for repeats."""
    size, n = math.prod(shape), shape[0]
    return (len(index) == len(value)
            and not any(isinstance(f, bool) for f in index)
            and all(0 <= f < size for f in index)
            and len(set(index)) == len(index)
            and all(math.isfinite(v) for v in value)
            and (not bracket or all(f // (n * n) < f // n % n for f in index)))


@st.composite
def _entry_lists(draw, shape, bracket):
    """Index and value lists, valid about half the time: distinct indices that pass every
    check on their own (for a bracket, entries with i < j), into which one repeat or one
    failing index (negative, past the end, a boolean or, for a bracket, i >= j) may be put;
    a value is sometimes not finite, and the lengths sometimes differ by one."""
    size, n = math.prod(shape), shape[0]
    good = [f for f in range(size) if not bracket or f // (n * n) < f // n % n]
    bad = {"negative": st.integers(-3, -1), "past-the-end": st.integers(size, size + 2),
           "boolean": st.booleans()}
    if bracket:
        bad["i >= j"] = st.sampled_from([f for f in range(size) if f not in good])
    index = draw(st.lists(st.sampled_from(good), max_size=6, unique=True))
    kind = draw(st.sampled_from([None] * 5 + ["repeat", *bad]))
    if kind is not None and (kind != "repeat" or index):
        index.insert(draw(st.integers(0, len(index))),
                     draw(st.sampled_from(index) if kind == "repeat" else bad[kind]))
    length = max(0, len(index) + draw(st.sampled_from([0] * 6 + [-1, 1])))
    value = draw(st.lists(st.floats(-10, 10), min_size=length, max_size=length))
    if value and draw(st.integers(0, 6)) == 0:
        value[draw(st.integers(0, length - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                         -math.inf]))
    return index, value


_SPARSE_FLOATS = st.just(0.0) | st.just(-0.0) | st.floats(-10, 10)


class TestEntries:
    @staticmethod
    def _agrees_with_the_set_oracle(index, value, shape, bracket):
        valid = _entries_are_valid(index, value, shape, bracket)
        try:
            out = from_entries({"index": index, "value": value}, shape, bracket=bracket)
        except ValueError:
            assert not valid
            return
        assert valid
        expected = np.zeros(shape)
        for f, v in zip(index, value):
            expected.flat[f] = v
            if bracket:
                i, j, k = np.unravel_index(f, shape)
                expected[j, i, k] = -v
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_entry_lists((2, 3), bracket=False))
    @example(([0, -1], [1.0, 2.0]))
    @example(([5, 6], [1.0, 2.0]))
    @example(([3, True], [1.0, 2.0]))
    @example(([False], [1.0]))
    @example(([4, 1, 4], [1.0, 2.0, 3.0]))
    @example(([2, 0], [1.0, -math.inf]))
    @example(([2, 0], [1.0]))
    def test_raises_exactly_when_the_set_oracle_rejects(self, entries):
        self._agrees_with_the_set_oracle(*entries, (2, 3), bracket=False)

    @settings(max_examples=200, deadline=None)
    @given(_entry_lists((3, 3, 3), bracket=True))
    @example(([3, 1], [1.0, 2.0]))            # c[0, 0, 1] has i = j
    @example(([5, 9], [1.0, 2.0]))            # c[1, 0, 0] has i > j
    @example(([5, -1], [1.0, 2.0]))
    @example(([5, 5], [1.0, 2.0]))
    def test_bracket_raises_exactly_when_the_set_oracle_rejects(self, entries):
        self._agrees_with_the_set_oracle(*entries, (3, 3, 3), bracket=True)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (3, 3, 3), elements=_SPARSE_FLOATS))
    def test_roundtrip_of_any_array_is_bitwise(self, a):
        # a -0.0 is written as no entry and comes back as 0.0
        assert from_entries(to_entries(a), a.shape).tobytes() == (a + 0.0).tobytes()
        c = a - a.transpose(1, 0, 2)             # exactly antisymmetric
        back = from_entries(to_entries(c, bracket=True), c.shape, bracket=True)
        assert back.tobytes() == (c + 0.0).tobytes()
        assert np.array_equal(back, -back.transpose(1, 0, 2))

    def test_roundtrip_is_bitwise(self, so14):
        rng = np.random.default_rng(3)
        a = np.where(rng.random((4, 5, 6)) < 0.3, rng.standard_normal((4, 5, 6)), 0.0)
        entries = to_entries(a)
        assert len(entries["value"]) == np.count_nonzero(a)
        assert from_entries(entries, a.shape).tobytes() == a.tobytes()
        c = so14.bracket_tensor
        entries = to_entries(c, bracket=True)
        assert 2 * len(entries["value"]) == np.count_nonzero(c)
        assert from_entries(entries, c.shape, bracket=True).tobytes() == c.tobytes()

    def test_no_entries_is_a_zero_array(self):
        assert from_entries(to_entries(np.zeros((2, 3))), (2, 3)).tobytes() == bytes(48)

    @pytest.mark.parametrize("index,value,match", [
        ([6], [1.0], "outside"),
        ([-1], [1.0], "outside"),
        ([1.5], [1.0], "integer"),
        ([1.0], [1.0], "integer"),
        ([True], [1.0], "integer"),
        ([3, True], [1.0, 2.0], "integer"),
        ([1, 2], [1.0], "equal length"),
        ([4, 1, 4], [1.0, 2.0, 3.0], "repeated"),
        ([1], [float("nan")], "not finite"),
        ([1], [float("inf")], "not finite"),
    ], ids=["index-past-the-end", "negative-index", "float-index", "integral-float-index",
            "boolean-index", "boolean-among-integers", "unequal-lengths", "repeated-index",
            "nan-value", "inf-value"])
    def test_rejects_malformed_entries(self, index, value, match):
        with pytest.raises(ValueError, match=match):
            from_entries({"index": index, "value": value}, (2, 3))

    @pytest.mark.parametrize("ijk", [(1, 0, 2), (2, 2, 0)], ids=["i-above-j", "i-equals-j"])
    def test_rejects_a_bracket_entry_without_i_below_j(self, ijk):
        with pytest.raises(ValueError, match="i >= j"):
            from_entries({"index": [np.ravel_multi_index(ijk, (3, 3, 3))], "value": [1.0]},
                         (3, 3, 3), bracket=True)
