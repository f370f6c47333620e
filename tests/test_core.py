from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from realflag.core import (ConstructionError, InputError, LieAlgebra, UnsupportedOperation,
                           as_algebra, cartan_decomposition, killing_form, load_algebra,
                           noncompact_ideal, save_algebra, subalgebra, subalgebra_closure,
                           validate_algebra)
from realflag.linalg import numeric_rank, signature_of
from realflag.realforms import _sl2_weyl, direct_sum, get_algebra
from realflag.spherical import sample_group_element, sample_rng

from oracles import commutator_coefficients, jacobi_residual
from test_orbits import RANK_ONE_AMBIENTS


def _unit(L, label):
    v = np.zeros(L.dim)
    v[L.labels.index(label)] = 1.0
    return v


def _ad(L, word, depth=None):
    """The full matrix Ad(x): the row action on the identity, transposed."""
    return L.ad_group(word, np.eye(L.dim), depth).T


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
        rest = as_algebra(subalgebra(so3, sub, name="so3"))
        e = np.eye(3)
        # [e1, e2] = e3 cyclically, oracle = commutators of Lx, Ly, Lz
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            oracle = commutator_coefficients([Lx, Ly, Lz], i, j)
            assert np.allclose(oracle, e[k], atol=1e-12)
            assert np.allclose(rest.bracket(e[i], e[j]), e[k], atol=1e-10)

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
        B = killing_form(sl2)
        H = _unit(sl2, "H0")
        assert abs(B(H, H) - 8.0) < 1e-10

    def test_so3_signature(self):
        assert killing_form(get_algebra("so(3)")).signature == (0, 3)

    def test_so12_signature(self):
        assert killing_form(get_algebra("so(1,2)")).signature == (2, 1)

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
        for alpha in roots.simple_roots:
            word = _sl2_weyl(L, roots, alpha)
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
        roots = parabolic_of("sl3").roots
        halved = replace(roots, simple_roots=2.0 * roots.simple_roots)
        with pytest.raises(ConstructionError, match="integer"):
            halved.depth

    @pytest.mark.parametrize("name", RANK_ONE_AMBIENTS + ["sl3", "sl2^3", "so(3,4)", "su(3,3)"])
    def test_cut_at_the_depth_matches_the_full_series(self, name, parabolic_of):
        # rows of n̄ samples and of Weyl triples: (ad X)^depth = 0, so the tail is rounding
        P = parabolic_of(name)
        L, depth = P.algebra, P.roots.depth
        words = [sample_group_element(P, sample_rng(0, i)) for i in range(8)]
        words += [_sl2_weyl(L, P.roots, alpha) for alpha in P.roots.simple_roots]
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
        E = P.roots.space_of(P.roots.simple_roots[0])[0]
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
        sub = subalgebra_closure(sl2, _unit(sl2, "E01").reshape(1, -1))
        assert sub.dim == 1

    def test_EF_generate(self, sl2):
        gens = np.vstack([_unit(sl2, "E01"), _unit(sl2, "E10")])
        assert subalgebra_closure(sl2, gens).dim == 3

    def test_so3_inside_so13(self):
        so13 = get_algebra("so(1,3)")
        rows = [so13.coefficients_of(M) for M in so13.matrices
                if np.abs(M[0]).max() == 0.0]  # rotations fixing the time axis
        sub = subalgebra_closure(so13, np.array(rows))
        assert sub.dim == 3

    def test_idempotent(self, so14):
        rng = np.random.default_rng(5)
        gens = rng.standard_normal((2, so14.dim))
        once = subalgebra_closure(so14, gens)
        twice = subalgebra_closure(so14, once.basis)
        assert numeric_rank(once.basis) == numeric_rank(twice.basis)

    def test_empty_generators(self, sl2):
        with pytest.raises(InputError):
            subalgebra_closure(sl2, np.zeros((0, 3)))


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

    def test_requires_theta(self, sl2):
        from realflag.core import LieAlgebra
        bare = LieAlgebra(labels=sl2.labels, matrices=sl2.matrices, theta=None)
        with pytest.raises(UnsupportedOperation):
            cartan_decomposition(bare)


class TestNoncompactIdeal:
    def test_mixed_sum(self):
        L = direct_sum(get_algebra("so(1,2)"), get_algebra("so(3)"))
        nc, comp = noncompact_ideal(L)
        assert nc.dim == 3 and comp.dim == 3
        # the noncompact ideal is the first factor
        assert np.abs(nc.basis[:, 3:]).max() < 1e-9

    def test_compact(self):
        nc, comp = noncompact_ideal(get_algebra("so(4)"))
        assert nc.dim == 0 and comp.dim == 6

    def test_all_noncompact(self):
        L = get_algebra("sl2^3")
        nc, _ = noncompact_ideal(L)
        assert nc.dim == 9

    def test_center_in_skewed_basis(self):
        # so(1,1) + so(2) + so(1,2) with center and derived directions mixed by the basis:
        # B_theta vanishes on the center, yet the complement is still the so(2) ideal
        L = direct_sum(direct_sum(get_algebra("so(1,1)"), get_algebra("so(2)")),
                       get_algebra("so(1,2)"))
        A = np.eye(L.dim)
        A[0, 1], A[1, 0], A[0, 2], A[1, 3] = 3.0, 0.5, 1.0, 2.0
        K = as_algebra(subalgebra(L, A), name="skew")
        nc, comp = noncompact_ideal(K)
        assert nc.dim == 4 and comp.dim == 1
        amb = (comp.basis @ A)[0]                # in the block coordinates of L
        assert np.abs(np.delete(amb, 1)).max() < 1e-9 * abs(amb[1])

    def test_nonreductive_rejected(self, sl2):
        from realflag.core import LieAlgebra
        # 2-dim affine algebra [X, Y] = Y is not reductive
        c = np.zeros((2, 2, 2))
        c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
        aff = LieAlgebra(labels=("X", "Y"), structure=c, theta=np.eye(2))
        with pytest.raises(UnsupportedOperation):
            noncompact_ideal(aff)


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


class TestValidate:
    def test_rejects_a_perturbed_jacobi_entry(self, so14):
        # the check runs slice by slice over the first index; perturb the first and the last
        for i in (0, so14.dim - 1):
            c = np.array(so14.bracket_tensor)
            j, k = np.argwhere(c[i] != 0)[0]
            c[i, j, k] += 1e-3
            c[j, i, k] -= 1e-3          # still exactly antisymmetric
            with pytest.raises(ConstructionError, match="Jacobi"):
                validate_algebra(LieAlgebra(labels=so14.labels, structure=c))

    def test_every_slice_is_checked(self):
        # the Jacobiator of an exactly antisymmetric tensor is alternating, so a violated
        # triple shows up in three slices and no perturbation can tell a loop that skips one
        # slice from the full loop; record the slices the check reads instead
        reads = set()

        class SliceSpy(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, int):
                    reads.add(("first", key))
                elif isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], int):
                    reads.add(("second", key[1]))
                return super().__getitem__(key)

        L = get_algebra("sl3")
        validate_algebra(LieAlgebra(labels=L.labels,
                                    structure=np.array(L.bracket_tensor).view(SliceSpy)))
        for kind in ("first", "second"):
            assert sorted(i for k, i in reads if k == kind) == list(range(L.dim)), kind

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_residual_that_overflows_to_nan_fails(self, so14):
        # finite constants whose Jacobi products overflow: inf - inf is NaN, bound is inf
        c = 1e200 * np.array(so14.bracket_tensor)
        with pytest.raises(ConstructionError, match="Jacobi"):
            validate_algebra(LieAlgebra(labels=so14.labels, structure=c))

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


class TestJSON:
    def test_roundtrip(self, tmp_path, so14):
        path = tmp_path / "so14.json"
        save_algebra(so14, path)
        back = load_algebra(path)
        assert back.dim == so14.dim
        assert np.allclose(back.bracket_tensor, so14.bracket_tensor, atol=1e-12)
        assert np.allclose(back.theta, so14.theta, atol=1e-12)
        assert back.labels == so14.labels

    def test_loader_validates_jacobi(self, tmp_path):
        doc = {"dim": 2, "labels": ["x", "y"],
               "bracket": [[0, 1, 0, 1.0], [0, 1, 1, 1.0]]}
        # [x,y] = x + y fails Jacobi? it does satisfy Jacobi (2-dim); corrupt antisymmetry instead
        import json
        path = tmp_path / "bad.json"
        doc = {"dim": 3, "labels": ["a", "b", "c"],
               "bracket": [[0, 1, 2, 1.0], [1, 2, 0, 1.0], [2, 0, 1, 1.0],
                           [0, 2, 0, 0.5]]}  # perturbed so(3): Jacobi fails
        path.write_text(json.dumps(doc))
        with pytest.raises(ConstructionError):
            load_algebra(path)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"dim": 3}')
        with pytest.raises(InputError):
            load_algebra(path)


class TestAsAlgebra:
    def test_restriction_consistent(self, so14):
        k, _ = cartan_decomposition(so14)
        sub = as_algebra(k, name="k")
        assert sub.dim == 6
        validate_algebra(sub)
        assert killing_form(sub).signature == (0, 6)
