import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from realflag.core import ConstructionError, InputError, killing_form, validate_algebra
from realflag.jordan import (F4_SUBALGEBRAS, OCT_TABLE, SOLVER_TOL, EmbeddingError,
                             F4Bundle, JordanElement, Octonion,
                             _complex_conjugation_derivation, _coords_to_matrix,
                             _derivation_system, _f4_algebra, _matrix_to_coords,
                             _table_hash, _trace_free_rows, build_g2, cone_point,
                             derivation_algebra, f4_subalgebra, jordan_coords,
                             jordan_mul, jordan_tensor, omul, oconj,
                             projective_orbit_dim, projective_stabilizer_dim,
                             sample_cone_points, trace_form)
from realflag.linalg import RANK_BAND, signature_of
from realflag.realforms import _complex_basis_u, build_classical


class TestOctonions:
    def test_unit(self):
        b = Octonion(np.arange(8.0))
        assert np.allclose((Octonion.unit(0) * b).coeffs, b.coeffs)

    def test_imaginary_square(self):
        for i in range(1, 8):
            e = Octonion.unit(i)
            assert np.allclose((e * e).coeffs, -Octonion.unit(0).coeffs)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (8,), elements=st.floats(-5, 5)),
           arrays(np.float64, (8,), elements=st.floats(-5, 5)))
    def test_norm_multiplicative(self, a, b):
        x, y = Octonion(a), Octonion(b)
        assert abs((x * y).norm() - x.norm() * y.norm()) <= 1e-12 * max(1.0, x.norm() * y.norm())

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (8,), elements=st.floats(-3, 3)),
           arrays(np.float64, (8,), elements=st.floats(-3, 3)))
    def test_alternative(self, a, b):
        lhs = omul(a, omul(a, b))
        rhs = omul(omul(a, a), b)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_norm_multiplicative_thousand_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b = rng.standard_normal((2, 8))
            na = np.linalg.norm(omul(a, b)) - np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(na) < 1e-12 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))

    def test_conjugation_antihomomorphism(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 8))
        assert np.allclose(oconj(omul(a, b)), omul(oconj(b), oconj(a)), atol=1e-12)


# sha256 of the octonion table, the Jordan tensor and the solver tolerance; it keys the f4 cache
TABLE_HASH = "9f9a4d97c18d4cdd81d9a8c25bf49c3e70196f571cd3630ee63d2c0216db77b4"


class TestJordanAlgebra:
    def test_tensor_equals_the_pairwise_products(self):
        # reference: one jordan_coords call per pair a <= b
        ref = np.zeros((27, 27, 27))
        eye = np.eye(27)
        for a in range(27):
            for b in range(a, 27):
                ref[a, b] = ref[b, a] = jordan_coords(eye[a], eye[b])
        assert np.array_equal(jordan_tensor(), ref)

    def test_table_hash_is_pinned(self):
        # a different hash makes every saved f4.json a miss that is rebuilt
        assert _table_hash() == TABLE_HASH

    def test_matrix_to_coords_checks_every_matrix_of_a_stack(self):
        M = _coords_to_matrix(np.eye(27))
        assert np.array_equal(_matrix_to_coords(M), np.eye(27))
        M[5, 1, 0, 2] += 1.0                      # breaks c3~ in the sixth matrix only
        with pytest.raises(ConstructionError, match="twisted Hermitian"):
            _matrix_to_coords(M)

    def test_identity(self):
        rng = np.random.default_rng(2)
        y = JordanElement(rng.standard_normal(3), rng.standard_normal((3, 8)))
        assert np.allclose(jordan_mul(JordanElement.identity(), y).coords, y.coords, atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = JordanElement(rng.standard_normal(3), rng.standard_normal((3, 8)))
            y = JordanElement(rng.standard_normal(3), rng.standard_normal((3, 8)))
            assert np.allclose(jordan_mul(x, y).coords, jordan_mul(y, x).coords, atol=1e-12)

    def test_trace_form_symmetric(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 27))
        assert abs(trace_form(x, y) - trace_form(y, x)) < 1e-12

    def test_trace_form_signature(self):
        P = jordan_tensor()
        S = np.einsum("abc,c->ab", P, np.array([1.0, 1, 1] + [0.0] * 24))
        assert signature_of((S + S.T) / 2) == (11, 16)


class TestConePoints:
    def test_basic_slots(self):
        pt = cone_point(Octonion.unit(0), np.zeros(8))
        w = pt.w
        assert np.allclose(w[:3], [0.0, 1.0, -1.0])
        assert abs(pt.x.trace()) < 1e-12
        assert np.linalg.norm(jordan_coords(w, w)) < 1e-10

    def test_second_slot(self):
        pt = cone_point(np.zeros(8), Octonion.unit(0))
        assert np.linalg.norm(jordan_coords(pt.w, pt.w)) < 1e-10
        assert abs(pt.x.trace()) < 1e-12

    def test_c3_relation(self):
        # c3 = -conj(c1 c2), i.e. conj(c3) = -c1 c2
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        pt = cone_point(v[:8], v[8:])
        c1, c2, c3 = pt.w[3:11], pt.w[11:19], pt.w[19:27]
        assert np.allclose(oconj(c3), -omul(c1, c2), atol=1e-12)

    def test_imaginary_unit_slots(self):
        # c1 = a j, c2 = b l with j = e2, l = e4: c3 = -ab n for n = l j
        a, b = 0.6, 0.8
        pt = cone_point(a * np.eye(8)[2], b * np.eye(8)[4])
        n = omul(np.eye(8)[4], np.eye(8)[2])
        assert np.allclose(pt.w[19:27], -a * b * n, atol=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(InputError):
            cone_point(np.ones(8), np.zeros(8))

    def test_complex_part_never_zero(self):
        pts = sample_cone_points(10_000, seed=1)
        assert min(pt.complex_part_norm() for pt in pts) > 1e-9

    def test_sampling_deterministic(self):
        a = sample_cone_points(5, seed=9)
        b = sample_cone_points(5, seed=9)
        assert all(np.allclose(x.w, y.w) for x, y in zip(a, b))


def _unsplit_system(table):
    """The derivation system of ``table`` row by row, as one dense matrix."""
    n = table.shape[0]
    rows = []
    for a in range(n):
        for b in range(a, n):
            blk = np.zeros((n, n, n))
            for e in range(n):
                blk[e, e, :] += table[a, b]
                blk[e, :, a] -= table[:, b, e]
                blk[e, :, b] -= table[a, :, e]
            rows.append(blk.reshape(n, n * n))
    return np.vstack(rows)


class TestDerivationAlgebra:
    @pytest.fixture(scope="class", params=["octonions", "jordan"])
    def solved(self, request):
        table, dim = (OCT_TABLE, 14) if request.param == "octonions" else (jordan_tensor(), 52)
        basis, margin = derivation_algebra(table, dim)
        return table, dim, basis, margin

    def test_basis_is_orthonormal(self, solved):
        flat = solved[2].reshape(len(solved[2]), -1)
        assert np.abs(flat @ flat.T - np.eye(len(flat))).max() <= 1e-14

    def test_every_ordered_pair_obeys_leibniz(self, solved):
        # the system holds only a <= b; octonions do not commute, so b > a is a consequence
        table, _, basis, _ = solved
        lhs = np.einsum("kij,abj->kabi", basis, table)
        rhs = np.einsum("kia,ibe->kabe", basis, table) + np.einsum("kib,aie->kabe", basis, table)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_spans_the_null_space_of_the_unsplit_system(self, solved):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        table, dim, basis, _ = solved
        # R of A = QR has A's null space; null_space(A) itself would allocate a square U
        N = scipy_linalg.null_space(np.linalg.qr(_unsplit_system(table), mode="r"))
        flat = basis.reshape(len(basis), -1)
        assert N.shape[1] == len(flat) == dim
        assert np.linalg.norm(flat.T - N @ (N.T @ flat.T), 2) <= 1e-12

    @pytest.mark.parametrize("which", ["octonions", "jordan", "generic"])
    def test_sparse_system_equals_the_unsplit_system(self, which):
        # the exact tables pin the dropping of entries that cancel; a generic table, whose
        # sums round, pins the order in which shared entries are summed
        table = {"octonions": lambda: OCT_TABLE, "jordan": jordan_tensor,
                 "generic": lambda: np.random.default_rng(0).standard_normal((6, 6, 6))}[which]()
        rows, cols, vals, n_rows = _derivation_system(table)
        A = np.zeros((n_rows, table.shape[0] ** 2))
        A[rows, cols] = vals
        assert np.array_equal(A, _unsplit_system(table))
        assert (vals != 0).all() and np.array_equal(np.nonzero(A), (rows, cols))

    def test_wrong_dimension_raises(self, solved):
        table, dim, _, _ = solved
        with pytest.raises(ConstructionError, match=f"expected {dim + 1}"):
            derivation_algebra(table, dim + 1)

    def test_margin_clears_the_band(self, solved):
        upper, lower = solved[3]
        assert upper > SOLVER_TOL * RANK_BAND and lower < SOLVER_TOL / RANK_BAND

    def test_cut_inside_the_band_raises(self, monkeypatch):
        # g2's smallest kept singular value is about 0.46 s_1: a cut at 0.1 s_1 is ambiguous
        import realflag.jordan as jordan_mod
        monkeypatch.setattr(jordan_mod, "SOLVER_TOL", 0.1)
        with pytest.raises(ConstructionError, match="ambiguous"):
            derivation_algebra(OCT_TABLE, 14)


class TestG2:
    def test_dim_and_signature(self):
        g2 = build_g2()
        assert g2.dim == 14
        assert killing_form(g2).signature == (0, 14)

    def test_kills_unit_preserves_imaginary(self):
        g2 = build_g2()
        for D in g2.matrices:
            assert np.linalg.norm(D[:, 0]) < 1e-9
            assert np.linalg.norm(D[0, :]) < 1e-9

    def test_validates(self):
        validate_algebra(build_g2())


def _nudged(rows, i, j, by=1e-7):
    """A copy of nested cache rows with entry (i, j) moved by ``by``."""
    rows = [list(r) for r in rows]
    rows[i][j] += by
    return rows


class TestF4:
    def test_dim_signature(self, f4bundle):
        L = f4bundle.algebra
        assert L.dim == 52
        assert killing_form(L).signature == (16, 36)

    def test_flag_dim(self, parabolic_of):
        assert parabolic_of("f4").dim_flag == 15

    def test_multiplicities(self, parabolic_of):
        assert parabolic_of("f4").roots.multiplicities == (8, 7)

    def test_validates(self, f4bundle):
        validate_algebra(f4bundle.algebra)

    def test_validation_peaks_below_32_mb(self, f4bundle):
        # the Jacobi and realization checks go one index slice at a time; the whole
        # 52^4 Jacobi tensor alone is 58 MB
        L = f4bundle.algebra
        L.bracket_tensor                   # computed once per algebra, not by the check
        tracemalloc.start()
        try:
            validate_algebra(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_solve_peaks_below_8_mb(self):
        # the system is built from its nonzeros; the dense 10206 x 729 system alone is 59 MB
        table = jordan_tensor()
        tracemalloc.start()
        try:
            derivation_algebra(table, 52)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_realization_rounds_as_the_einsum(self, f4bundle):
        # the witnesses and the derived bracket depend on these bits; Q D Q^T is off by an ulp.
        # Generic matrices, whose products round, pin the order of the factors too
        Q = _trace_free_rows()
        for derivs in (f4bundle.derivations, np.random.default_rng(0).standard_normal((52, 27, 27))):
            mats = _f4_algebra(derivs).matrices
            assert np.array_equal(mats, np.einsum("va,iab,wb->ivw", Q, derivs, Q))
            assert mats.flags.c_contiguous      # the bracket's products run on these

    def test_derivations_bracket_closed(self, f4bundle):
        rng = np.random.default_rng(6)
        flat = f4bundle.derivations.reshape(52, -1)
        for _ in range(20):
            i, j = rng.integers(0, 52, 2)
            com = (f4bundle.derivations[i] @ f4bundle.derivations[j]
                   - f4bundle.derivations[j] @ f4bundle.derivations[i])
            co = com.ravel() @ flat.T
            assert np.linalg.norm(co @ flat - com.ravel()) <= 1e-7 * max(1.0, np.linalg.norm(com))

    def test_derivations_kill_identity_and_trace_form(self, f4bundle):
        rng = np.random.default_rng(7)
        ident = JordanElement.identity().coords
        for _ in range(20):
            D = f4bundle.derivation_of(rng.standard_normal(52))
            assert np.linalg.norm(D @ ident) < 1e-9 * max(1.0, np.linalg.norm(D))
            x, y = rng.standard_normal((2, 27))
            skew = trace_form(D @ x, y) + trace_form(x, D @ y)
            assert abs(skew) < 1e-8 * max(1.0, np.linalg.norm(D))

    def test_cone_invariance(self, f4bundle):
        rng = np.random.default_rng(8)
        for pt in sample_cone_points(50, seed=2):
            D = f4bundle.derivation_of(rng.standard_normal(52))
            resid = np.einsum("a,b,abc->c", pt.w, D @ pt.w, jordan_tensor())
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(D))

    def test_cache_roundtrip(self, f4bundle, tmp_path, monkeypatch):
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
        fresh = jordan_mod.f4_bundle()
        doc = json.loads((tmp_path / "f4.json").read_text())
        assert doc["schema"] == jordan_mod.CACHE_SCHEMA == 4
        upper, lower = doc["provenance"]["solver_margin"]
        assert upper > SOLVER_TOL * RANK_BAND and lower < SOLVER_TOL / RANK_BAND
        assert set(doc) == {"schema", "provenance", "derivations", "subalgebras",
                            "involutions"}
        assert set(doc["subalgebras"]) == set(F4_SUBALGEBRAS)
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
        loaded = jordan_mod.f4_bundle()
        assert np.allclose(loaded.algebra.bracket_tensor, fresh.algebra.bracket_tensor)
        assert np.array_equal(loaded.derivations, fresh.derivations)
        assert np.array_equal(loaded.algebra.matrices, fresh.algebra.matrices)
        assert np.array_equal(loaded.algebra.theta, fresh.algebra.theta)
        assert loaded.provenance["table_hash"] == fresh.provenance["table_hash"]
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: "{not json",
        lambda doc: "[]",
        lambda doc: json.dumps({"provenance": 1}),
        lambda doc: json.dumps({**doc, "schema": 1}),
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "subalgebras"}),
        lambda doc: json.dumps({**doc, "subalgebras": {k: v for k, v in doc["subalgebras"].items()
                                                       if k != "su21+su3"}}),
        lambda doc: json.dumps({**doc, "derivations": doc["derivations"][:51]}),
        lambda doc: json.dumps({**doc, "involutions": {k: v[:3] for k, v
                                                       in doc["involutions"].items()}}),
        lambda doc: json.dumps({**doc, "subalgebras": {k: v for k, v in doc["subalgebras"].items()
                                                       if k != "so(1,8)"}}),
        lambda doc: json.dumps({**doc, "derivations": _nudged(doc["derivations"], 7, 100)}),
        lambda doc: json.dumps({**doc, "derivations": _nudged(doc["derivations"], 51, 728)}),
    ], ids=["unreadable", "non-object", "provenance-int", "schema-1", "no-subalgebras",
            "missing-embedding", "derivations-shape", "involution-shape",
            "missing-symmetric-subalgebra", "derivation-entry-1e-7", "last-derivation-entry-1e-7"])
    def test_malformed_cache_is_a_miss(self, f4bundle, tmp_path, corrupt):
        import realflag.jordan as jordan_mod
        path = tmp_path / "f4.json"
        jordan_mod._save_bundle(f4bundle, path)
        assert jordan_mod._load_bundle(path) is not None
        path.write_text(corrupt(json.loads(path.read_text())))
        assert jordan_mod._load_bundle(path) is None

    def test_clean_basis_passes_the_leibniz_check(self, f4bundle):
        from realflag.jordan import _leibniz_residual
        assert _leibniz_residual(f4bundle.derivations) < 1e-14

    def test_old_cache_is_rebuilt_once(self, f4bundle, tmp_path, monkeypatch):
        # schema 2 held the basis of the thin-SVD solve, schema 3 that of the unsplit QR solve
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        jordan_mod._save_bundle(f4bundle, tmp_path / "f4.json")
        doc = json.loads((tmp_path / "f4.json").read_text())
        builds = []

        def build():
            builds.append(1)
            return f4bundle

        monkeypatch.setattr(jordan_mod, "_build_bundle", build)
        for old in (1, 2, 3):
            (tmp_path / "f4.json").write_text(json.dumps({**doc, "schema": old}))
            builds.clear()
            for _ in range(2):
                monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
                jordan_mod.f4_bundle()
            assert len(builds) == 1
            assert json.loads((tmp_path / "f4.json").read_text())["schema"] == 4

    @pytest.mark.parametrize("fail", ["json.dumps", "os.replace"])
    def test_failed_write_keeps_the_old_cache(self, f4bundle, tmp_path, monkeypatch, fail):
        import realflag.jordan as jordan_mod
        path = tmp_path / "f4.json"
        jordan_mod._save_bundle(f4bundle, path)
        old = path.read_bytes()

        def broken(*args, **kwargs):
            raise OSError("no space left on device")

        module, name = fail.split(".")
        with monkeypatch.context() as mp:
            mp.setattr(getattr(jordan_mod, module), name, broken)
            with pytest.raises(OSError, match="no space"):
                jordan_mod._save_bundle(f4bundle, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f4.json"]


class TestEmbeddings:
    def test_conjugation_derivations_equal_the_column_loop(self):
        # reference: x -> Zx - xZ one basis matrix at a time, with the three-operand product
        def mul(A, B):
            return np.einsum("ijp,jkq,pqr->ikr", A, B, OCT_TABLE)

        zs = ([(Z.real, Z.imag) for Z in _complex_basis_u(2, 1, traceless=True)]
              + [(R, np.zeros((3, 3))) for R in build_classical("so", 2, 1).matrices])
        assert len(zs) == 11
        for Zr, Zi in zs:
            Z = np.zeros((3, 3, 8))
            Z[:, :, 0], Z[:, :, 1] = Zr, Zi
            ref = np.array([_matrix_to_coords(mul(Z, X) - mul(X, Z))
                            for X in _coords_to_matrix(np.eye(27))]).T
            assert np.array_equal(_complex_conjugation_derivation(Zr, Zi), ref)

    def test_su21_su3(self, f4bundle):
        sub = f4_subalgebra(f4bundle, "su21+su3")
        assert sub.dim == 16
        su21 = f4bundle.subalgebras["su21"]
        su3 = f4bundle.subalgebras["su3"]
        c = f4bundle.algebra.bracket_tensor
        cross = np.einsum("ai,bj,ijk->abk", su21, su3, c)
        assert np.abs(cross).max() < 1e-10
        # signature of the noncompact factor: su(2,1) has k = u(2)
        B = f4bundle.algebra.killing
        assert signature_of(su21 @ B @ su21.T) == (4, 4)
        assert signature_of(su3 @ B @ su3.T) == (0, 8)

    def test_so12_g2(self, f4bundle):
        sub = f4_subalgebra(f4bundle, "so12+g2")
        assert sub.dim == 17
        so12 = f4bundle.subalgebras["so12"]
        g2l = f4bundle.subalgebras["g2"]
        c = f4bundle.algebra.bracket_tensor
        cross = np.einsum("ai,bj,ijk->abk", so12, g2l, c)
        assert np.abs(cross).max() < 1e-10
        B = f4bundle.algebra.killing
        assert signature_of(so12 @ B @ so12.T) == (2, 1)
        assert signature_of(g2l @ B @ g2l.T) == (0, 14)

    def test_g2_lift_fixes_diagonal(self, f4bundle):
        # entrywise octonion derivations kill the three real diagonal coordinates
        for co in f4bundle.subalgebras["g2"]:
            D = f4bundle.derivation_of(co)
            assert np.abs(D[:, :3]).max() < 1e-9
            assert np.abs(D[:3, :]).max() < 1e-9

    def test_symmetric_subalgebras(self, f4bundle):
        h1 = f4_subalgebra(f4bundle, "so(1,8)")
        h2 = f4_subalgebra(f4bundle, "sp(1,2)+sp(1)")
        assert h1.dim == 36 and h2.dim == 24
        B = f4bundle.algebra.killing
        assert signature_of(h1.basis @ B @ h1.basis.T) == (8, 28)
        assert signature_of(h2.basis @ B @ h2.basis.T) == (8, 16)

    @pytest.mark.parametrize("key", list(F4_SUBALGEBRAS))
    def test_every_subalgebra_validates(self, f4bundle, key):
        sub = f4_subalgebra(f4bundle, key)
        assert sub.name == key and sub.dim == F4_SUBALGEBRAS[key]
        assert sub.ambient is f4bundle.algebra

    @pytest.mark.parametrize("case", ["unclosed", "wrong-dim"])
    def test_accessor_raises_naming_the_key(self, f4bundle, case):
        rows = {"unclosed": np.random.default_rng(0).standard_normal((17, 52)),
                "wrong-dim": f4bundle.subalgebras["g2"]}[case]
        bad = F4Bundle(algebra=f4bundle.algebra, derivations=f4bundle.derivations,
                       subalgebras={**f4bundle.subalgebras, "so12+g2": rows},
                       involutions=f4bundle.involutions, provenance=f4bundle.provenance)
        with pytest.raises(EmbeddingError, match=r"^so12\+g2"):
            f4_subalgebra(bad, "so12+g2")

    def test_module_splitting_preserved(self, f4bundle):
        # the su(2,1)+su(3) action preserves x = x_C + x_I
        idx_c = [0, 1, 2, 3, 4, 11, 12, 19, 20]
        idx_i = [i for i in range(27) if i not in idx_c]
        for co in f4bundle.subalgebras["su21+su3"]:
            D = f4bundle.derivation_of(co)
            assert np.abs(D[np.ix_(idx_i, idx_c)]).max() < 1e-9
            assert np.abs(D[np.ix_(idx_c, idx_i)]).max() < 1e-9


class TestProjectiveOrbits:
    def test_stabilizer_bound(self, f4bundle):
        pts = sample_cone_points(100, seed=3)
        stab = [projective_stabilizer_dim(f4bundle, f4bundle.subalgebras["su21+su3"], pt)
                for pt in pts]
        assert min(stab) >= 2

    def test_g2_orbit_bound(self, f4bundle):
        pts = sample_cone_points(100, seed=4)
        dims = [projective_orbit_dim(f4bundle, f4bundle.subalgebras["g2"], pt) for pt in pts]
        assert max(dims) <= 11

    def test_full_algebra_orbit_is_open(self, f4bundle):
        # f4 itself acts with open orbit on the 15-dimensional flag variety
        pts = sample_cone_points(10, seed=5)
        dims = [projective_orbit_dim(f4bundle, np.eye(52), pt) for pt in pts]
        assert max(dims) == 15

    def test_cone_and_parabolic_models_agree(self, f4bundle, pair):
        # the projective-cone route and the parabolic rank route are independent
        # constructions of the same flag manifold; generic orbit dimensions match
        from realflag.orbits import orbit_dim_at
        from realflag.spherical import sample_group_element, sample_rng
        pts = sample_cone_points(32, seed=11)
        for key, name in [("su21+su3", "max:f4:su(2,1)+su(3)"),
                          ("so12+g2", "max:f4:so(1,2)+g2")]:
            pd = pair(name)
            flag_max = max(orbit_dim_at(pd.g, pd.h, pd.P,
                                        sample_group_element(pd.P, sample_rng(7, i)))
                           for i in range(32))
            cone_max = max(projective_orbit_dim(f4bundle, f4bundle.subalgebras[key], pt)
                           for pt in pts)
            assert flag_max == cone_max == 14
