from dataclasses import replace

import numpy as np
import pytest

from realflag.core import (ConstructionError, InputError, UnsupportedOperation,
                           cartan_decomposition, validate_algebra)
from realflag.linalg import in_span, orth_rows, span_residual, stack_span
from realflag import catalog
import realflag.realforms as realforms
from realflag.realforms import (_QT, _root_lattice, _transposed_theta, algebra_power,
                                build_classical, classical_basis, from_matrices, get_algebra,
                                minimal_parabolic, realify, restricted_roots)
from realflag.catalog import catalog_entries
from realflag.reduction import parabolic_alpha

from oracles import (classical_loops, classical_recipe_matrices, float_alpha_line,
                     power_by_direct_sums)
from test_core import DEPTHS

WEYL_AMBIENTS = sorted(DEPTHS) + ["sl4"]
# length of the longest Weyl element; every other ambient of WEYL_AMBIENTS has real rank one
WEYL_LENGTHS = {"sl3": 3, "sl2^3": 3, "su(2,2)": 4, "sp(2,3)": 4, "sl4": 6, "so(3,4)": 9,
                "su(3,3)": 9}
LATTICE_AMBIENTS = ["sl2", "so(1,3)", "so(1,5)", "su(1,3)", "su(1,5)", "sp(1,3)", "sp(1,5)",
                    "sl3", "sl4", "su(2,2)", "sp(2,3)", "so(3,4)", "su(3,3)", "sl2^3", "f4"]


def _weyl_ad(P):
    """Ad of the Weyl word as a matrix: the row action on the identity, transposed."""
    return P.algebra.ad_group(P.weyl, np.eye(P.algebra.dim), P.roots.depth).T


def _realify_quaternion_loop(Q):
    """Reference: one 4 x 4 block per quaternion entry."""
    n = Q.shape[0]
    out = np.zeros((4 * n, 4 * n))
    for i in range(n):
        for j in range(n):
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = np.einsum("m,mlk->kl", Q[i, j], _QT)
    return out


class TestConstructors:
    @pytest.mark.parametrize("family,p,q,dim", [
        ("so", 1, 4, 10), ("su", 1, 2, 8), ("sp", 1, 2, 21),
        ("so", 0, 3, 3), ("su", 0, 2, 3), ("sp", 0, 1, 3),
    ])
    def test_dimensions(self, family, p, q, dim):
        L = build_classical(family, p, q)
        assert L.dim == dim
        validate_algebra(L)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_realify_quaternion_matches_the_block_loop(self, n):
        # every quaternionic matrix realified for sp(1, n) and for u(1, n) inside it
        Q = np.concatenate([classical_basis("sp", 1, n)[1],
                            np.pad(classical_basis("su", 1, n, traceless=False)[1],
                                   ((0, 0), (0, 0), (0, 0), (0, 2)))])
        out = realify(Q, "H")
        assert len(out) == (n + 1) * (2 * n + 3) + (n + 1) ** 2
        assert all(np.array_equal(M, _realify_quaternion_loop(X)) for M, X in zip(out, Q))

    def test_sp12_flag_dimension(self, parabolic_of):
        assert parabolic_of("sp(1,2)").dim_flag == 7

    def test_bad_signature(self):
        with pytest.raises(InputError):
            build_classical("so", 1, 0)
        with pytest.raises(InputError):
            build_classical("u", 1, 1)

    def test_k_s_dimensions_and_signs(self):
        for name in ["so(1,4)", "su(1,3)", "sp(1,2)", "sl3"]:
            L = get_algebra(name)
            k, s = cartan_decomposition(L)
            assert k.dim + s.shape[0] == L.dim
            B = L.killing
            from realflag.linalg import signature_of
            assert signature_of(k.basis @ B @ k.basis.T) == (0, k.dim)
            assert signature_of(s @ B @ s.T) == (s.shape[0], 0)

    def test_registry_shorthand(self):
        assert get_algebra("so13").dim == get_algebra("so(1,3)").dim
        assert get_algebra("sl2^2").dim == 6
        assert get_algebra("sp(1,3)").dim == 36
        assert get_algebra("g2").dim == 14
        assert get_algebra("f4").dim == 52
        with pytest.raises(InputError):
            get_algebra("e8")


def _is_signed_permutation(M: np.ndarray) -> bool:
    A = np.abs(M)
    return (set(np.unique(M)) <= {-1.0, 0.0, 1.0}
            and (A.sum(axis=0) == 1).all() and (A.sum(axis=1) == 1).all())


class TestPivotReader:
    @pytest.mark.parametrize("name", sorted({e.ambient for e in catalog_entries(5)}))
    def test_catalog_ambients_are_exact(self, name):
        # the bracket is read at pivot entries whose block is a signed identity (so, sp and
        # f4) or unimodular (su, sl); theta -X^T, or the f4 sign conjugation, is read there too
        L = get_algebra(name)
        c = L.bracket_tensor
        assert np.array_equal(24 * c, np.round(24 * c))
        assert not (np.signbit(c) & (c == 0)).any()
        assert _is_signed_permutation(L.theta)
        cols, inv = L._pivots
        block = L.matrices.reshape(L.dim, -1)[:, cols]
        assert np.array_equal(inv, np.round(inv)) and np.array_equal(block, np.round(block))
        assert round(abs(np.linalg.det(block))) == 1
        if name.startswith(("so", "sp", "f4")):
            assert _is_signed_permutation(block)

    def test_pivots_are_searched_once_per_algebra(self, pivot_searches):
        # theta is read at the pivots of the algebra that is returned, which keeps them
        L = build_classical("sp", 1, 4)
        L.bracket_tensor, L.coefficients_of(L.matrices)
        assert pivot_searches == [L]

    def test_coefficients_match_least_squares(self, su12):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, su12.dim))
        flat = su12.matrices.reshape(su12.dim, -1)
        stack = (X @ flat).reshape(5, *su12.matrices.shape[1:])
        ref = np.linalg.lstsq(flat.T, (X @ flat).T, rcond=None)[0].T
        assert np.abs(su12.coefficients_of(stack) - ref).max() <= 1e-13
        assert np.abs(su12.coefficients_of(stack[0]) - ref[0]).max() <= 1e-13

    def test_dependent_realization_raises(self, so14):
        mats = np.concatenate([so14.matrices, so14.matrices[:1] + so14.matrices[1:2]])
        L = replace(so14, labels=so14.labels + ("x",), matrices=mats, theta=None)
        with pytest.raises(InputError, match="not linearly independent"):
            L.bracket_tensor

    def test_unclosed_realization_raises(self):
        # two matrices whose commutator leaves their span: the pivot read alone cannot tell
        from realflag.core import LieAlgebra
        E, F = np.zeros((2, 2, 2))
        E[0, 1] = F[1, 0] = 1.0
        L = LieAlgebra(labels=("E", "F"), matrices=np.array([E, F]))
        with pytest.raises(ConstructionError, match="do not close"):
            L.bracket_tensor


CLASSICAL = [(fam, p, q) for fam in ("so", "su", "sp") for p in range(4) for q in range(6)
             if p + q >= (1 if fam == "sp" else 2)]
CLASSICAL_ROWS = [row.entry.name for row in catalog._rows(5)
                  if classical_recipe_matrices(row.recipe) is not None]


class TestHandLoops:
    """The one basis formula and realifier against the per-family loops they replaced."""

    @pytest.mark.parametrize("family,p,q", CLASSICAL)
    def test_classical_basis_matches_the_hand_loops(self, family, p, q):
        L = build_classical(family, p, q)
        labels, mats = classical_loops(family, p, q)
        ref = _transposed_theta(labels, mats, L.name)
        # su differs from the loop only in the sign of some zero entries
        assert list(L.labels) == labels and np.array_equal(L.matrices, mats)
        assert L.bracket_tensor.tobytes() == ref.bracket_tensor.tobytes()
        assert L.theta.tobytes() == ref.theta.tobytes()

    def test_every_classical_recipe_is_compared(self):
        names = {"_block_sum", "_su_blocks", "_so_in_su", "_u_in_sp", "_so_sp1"}
        assert {row.entry.name for row in catalog._rows(5)
                if getattr(row.recipe, "func", row.recipe).__name__ in names} == set(CLASSICAL_ROWS)
        assert len(CLASSICAL_ROWS) == 42

    @pytest.mark.parametrize("name", CLASSICAL_ROWS)
    def test_catalog_h_basis_matches_the_hand_loops(self, name):
        pd = catalog.build_pair(name, 5)
        ref = from_matrices(pd.g, classical_recipe_matrices(catalog._row(name, 5).recipe))
        assert pd.h.basis.tobytes() == ref.basis.tobytes()

    @pytest.mark.parametrize("name,copies", [("sl2", 2), ("sl2", 3), ("sl3", 2)])
    def test_power_matches_direct_sums(self, name, copies):
        L = get_algebra(name)
        A, B = algebra_power(L, copies), power_by_direct_sums(L, copies)
        assert A.labels == B.labels and A.name == B.name
        for a, b in ((A.matrices, B.matrices), (A.bracket_tensor, B.bracket_tensor),
                     (A.theta, B.theta)):
            assert a.tobytes() == b.tobytes()


class TestPowers:
    def test_power_dims(self):
        L = algebra_power(get_algebra("so(3)"), 2)
        assert L.dim == 6
        validate_algebra(L)

    def test_power_cross_brackets_vanish(self):
        L = algebra_power(get_algebra("so(1,2)"), 2)
        X = np.zeros(6); X[0] = 1.0
        Y = np.zeros(6); Y[4] = 1.0
        assert np.linalg.norm(L.bracket(X, Y)) < 1e-12

    def test_power_killing_block_diagonal(self):
        L1 = get_algebra("so(1,2)")
        B = algebra_power(L1, 2).killing
        assert np.abs(B[:3, 3:]).max() < 1e-10
        assert np.allclose(B[:3, :3], L1.killing, atol=1e-10)
        assert np.allclose(B[3:, 3:], L1.killing, atol=1e-10)


class TestRestrictedRoots:
    @pytest.mark.parametrize("name,mult", [
        ("so(1,2)", (1, 0)), ("so(1,3)", (2, 0)), ("so(1,4)", (3, 0)), ("so(1,5)", (4, 0)),
        ("su(1,2)", (2, 1)), ("su(1,3)", (4, 1)),
        ("sp(1,2)", (4, 3)), ("sp(1,3)", (8, 3)),
    ])
    def test_multiplicities(self, name, mult):
        rr = restricted_roots(get_algebra(name))
        assert rr.multiplicities == mult

    def test_compact_raises(self):
        with pytest.raises(UnsupportedOperation):
            restricted_roots(get_algebra("so(4)"))

    def test_multiplicities_seed_independent(self):
        for name in ("su(1,3)", "sp(1,2)"):
            L = get_algebra(name)
            mults = {restricted_roots(L, seed=s).multiplicities for s in (0, 1, 2)}
            assert len(mults) == 1

    def test_decomposition_fills(self, so14):
        rr = restricted_roots(so14)
        total = rr.m.shape[0] + rr.a.shape[0] + sum(s.shape[0] for s in rr.root_spaces)
        assert total == so14.dim

    def test_eigenvalue_action(self, sp12):
        rr = restricted_roots(sp12)
        Z = rr.a[0]
        for j in (1, 2, -1, -2):
            space = rr.space_of([float(j)])
            if space.shape[0] == 0:
                continue
            img = space @ sp12.ad(Z).T
            assert np.abs(img - j * space).max() < 1e-8

    def test_m_centralizes_a(self, sp12):
        rr = restricted_roots(sp12)
        br = np.einsum("ai,bj,ijk->abk", rr.m, rr.a, sp12.bracket_tensor)
        assert np.abs(br).max() < 1e-9

    def test_m_dim_identity(self, sp12):
        rr = restricted_roots(sp12)
        k, _ = cartan_decomposition(sp12)
        ma, m2a = rr.multiplicities
        assert rr.m.shape[0] == k.dim - ma - m2a

    def test_root_space_brackets(self, su12):
        rr = restricted_roots(su12)
        ga = rr.space_of([1.0])
        g2a = rr.space_of([2.0])
        gma = rr.space_of([-1.0])
        br = np.einsum("ai,bj,ijk->abk", ga, ga, su12.bracket_tensor).reshape(-1, su12.dim)
        if np.linalg.norm(br) > 1e-9:
            assert span_residual(br, g2a) < 1e-8
        br = np.einsum("ai,bj,ijk->abk", ga, gma, su12.bracket_tensor).reshape(-1, su12.dim)
        assert span_residual(br, stack_span(rr.m, rr.a)) < 1e-8

    def test_prescribed_a_validation(self, so14):
        k, s = cartan_decomposition(so14)
        with pytest.raises(InputError):
            restricted_roots(so14, a_basis=k.basis[:1])   # not inside s


class TestMinimalParabolic:
    @pytest.mark.parametrize("name,dgp", [
        ("sl2", 1), ("so(1,2)", 1), ("so(1,4)", 3), ("su(1,2)", 3), ("sp(1,2)", 7),
    ])
    def test_flag_dimension(self, name, dgp, parabolic_of):
        assert parabolic_of(name).dim_flag == dgp

    def test_p_is_subalgebra_n_nilpotent_ideal(self, parabolic_of):
        P = parabolic_of("sp(1,2)")
        g = P.algebra
        P.p.validate()
        # [p, n] inside n
        br = np.einsum("ai,bj,ijk->abk", P.p.basis, P.n.basis, g.bracket_tensor)
        assert span_residual(br.reshape(-1, g.dim), P.n.basis) < 1e-8
        # nilpotency: [n, [n, n]] = 0 in rank one
        nn = np.einsum("ai,bj,ijk->abk", P.n.basis, P.n.basis, g.bracket_tensor).reshape(-1, g.dim)
        nnn = np.einsum("ai,bj,ijk->abk", P.n.basis, nn, g.bracket_tensor)
        assert np.abs(nnn).max() < 1e-8

    @pytest.mark.parametrize("name", WEYL_AMBIENTS)
    def test_weyl_swaps_root_spaces(self, name, parabolic_of):
        # Ad(w) moves t @ a to t @ A @ a, so it maps the root space of beta onto that of
        # A^-1 beta, a root of the opposite sign: n goes onto nbar
        P = parabolic_of(name)
        roots, ad = P.roots, _weyl_ad(P)
        A = np.linalg.lstsq(roots.a.T, ad @ roots.a.T, rcond=None)[0].T
        for beta, space, positive in zip(roots.root_vectors, roots.root_spaces, roots.positive):
            image = np.linalg.solve(A, beta)
            k = np.linalg.norm(roots.root_vectors - image, axis=1).argmin()
            assert np.allclose(roots.root_vectors[k], image, atol=1e-6)
            assert roots.positive[k] != positive
            assert roots.root_spaces[k].shape[0] == space.shape[0]
            assert in_span(space @ ad.T, roots.root_spaces[k], 1e-7)

    @pytest.mark.parametrize("name", WEYL_AMBIENTS)
    def test_weyl_isometry_of_killing(self, name, parabolic_of):
        P = parabolic_of(name)
        B = P.algebra.killing
        ad = _weyl_ad(P)
        assert np.abs(ad.T @ B @ ad - B).max() < 1e-8 * max(1.0, np.abs(B).max())

    @pytest.mark.parametrize("name", WEYL_AMBIENTS)
    def test_weyl_fixes_a(self, name, parabolic_of):
        P = parabolic_of(name)
        assert in_span(P.roots.a @ _weyl_ad(P).T, P.roots.a, 1e-7)

    @pytest.mark.parametrize("name", WEYL_AMBIENTS)
    def test_weyl_word_is_reduced(self, name, parabolic_of):
        # one sl2 triple per letter of a reduced word for the longest element
        length = WEYL_LENGTHS.get(name, 1)
        assert len(parabolic_of(name).weyl) == 3 * length

    def test_weyl_needs_an_integral_cartan_matrix(self, parabolic_of):
        # against (alpha_1, alpha_2/2) every root has integer coordinates, but
        # <alpha_1, (alpha_2/2)^vee> = -2 is integral and <alpha_2/2, alpha_1^vee> = -1/2 is not
        roots = parabolic_of("sl3").roots
        a_gram = roots.a @ roots.algebra.b_theta @ roots.a.T
        with pytest.raises(ConstructionError, match="Cartan matrix"):
            _root_lattice(roots.root_vectors, roots.simple_roots * [[1.0], [0.5]], a_gram)

    def test_weyl_descent_stops_at_the_number_of_positive_roots(self, parabolic_of):
        # the affine Cartan matrix [[2, -2], [-2, 2]] has an infinite Weyl group:
        # the descent never ends on its own
        roots = parabolic_of("sl3").roots
        affine = replace(roots, cartan=np.array([[2, -2], [-2, 2]]))
        with pytest.raises(ConstructionError, match="descent"):
            minimal_parabolic(roots.algebra, affine)

    def test_f4_sl2_root_vector_is_an_eigenvector(self, parabolic_of):
        # [H, E] = alpha(H) E for the rescaled root vector of the Weyl word, H = [E, -theta E]
        P = parabolic_of("f4")
        L = P.algebra
        E = realforms._sl2_weyl(L, P.roots, 0)[0]
        HE = L.bracket(L.bracket(E, -(L.theta @ E)), E)
        assert np.linalg.norm(HE - (E @ HE) / (E @ E) * E) <= 1e-14 * np.linalg.norm(HE)

    def test_dim_p_plus_flag(self, parabolic_of):
        for name in ["so(1,4)", "su(1,2)", "sp(1,2)"]:
            P = parabolic_of(name)
            assert P.p.dim + P.dim_flag == P.algebra.dim
            assert P.dim_flag == sum(P.roots.multiplicities)


class TestRootLattice:
    @pytest.mark.parametrize("name", LATTICE_AMBIENTS)
    def test_integer_coordinates_name_the_roots(self, name, parabolic_of):
        P = parabolic_of(name)
        roots, g = P.roots, P.algebra
        coords, S = roots.coords, len(roots.simple_roots)
        assert coords.dtype.kind == "i" and roots.cartan.dtype.kind == "i"
        resid = coords @ roots.simple_roots - roots.root_vectors
        assert np.abs(resid).max() <= 1e-9 * np.abs(roots.root_vectors).max()
        assert ((coords >= 0).all(axis=1) | (coords <= 0).all(axis=1)).all()
        assert np.array_equal(roots.positive, coords.sum(axis=1) > 0)
        assert np.array_equal(np.diag(roots.cartan), np.full(S, 2))
        assert (roots.cartan[~np.eye(S, dtype=bool)] <= 0).all()
        for i, alpha in enumerate(roots.simple_roots):
            unit = np.eye(S, dtype=int)[i]
            hit = np.flatnonzero((coords == unit).all(axis=1))
            assert hit.size == 1 and np.array_equal(roots.root_vectors[hit[0]], alpha)
            assert np.linalg.norm(roots.root_vectors - alpha, axis=1).argmin() == hit[0]
            assert roots.space_of(unit) is roots.root_spaces[hit[0]]
            # the Levi and the nilradical of p_alpha are the float alpha-line matching's
            levi, nil = float_alpha_line(roots, alpha)
            ap = parabolic_alpha(g, P, i)
            expected = orth_rows(stack_span(roots.m, roots.a,
                                            *[roots.root_spaces[k] for k in levi]))
            assert np.array_equal(ap.l_alpha.basis, expected)
            if nil:
                expected = orth_rows(stack_span(*[roots.root_spaces[k] for k in nil]))
                assert np.array_equal(ap.u_alpha, expected)
            else:
                assert ap.u_alpha.shape[0] == 0
