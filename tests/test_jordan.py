import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from realflag.core import (ConstructionError, InputError, from_entries, to_entries,
                           validate_algebra)
from realflag.jordan import (F4_SUBALGEBRAS, OCT_TABLE, SOLVER_TOL, EmbeddingError,
                             F4Bundle, _complex_conjugation_derivation, _coords_to_matrix,
                             _derivation_system, _matrix_to_coords,
                             _table_hash, build_g2, complex_part_norm,
                             cone_point, derivation_algebra, derivation_images,
                             f4_subalgebra, jordan_product, jordan_tensor, omul, oconj,
                             projective_orbit_dim, projective_stabilizer_dim,
                             sample_cone_points, trace_form)
from realflag.linalg import RANK_BAND, signature_of
from realflag.realforms import _complex_basis_u, build_classical

from oracles import jordan_coords


# the identity of the octonions and of the Jordan algebra, as coordinate vectors
ONE_8 = np.eye(8)[0]
ONE_27 = np.concatenate([np.ones(3), np.zeros(24)])


class TestOctonions:
    def test_unit(self):
        b = np.arange(8.0)
        assert np.allclose(omul(ONE_8, b), b)

    def test_imaginary_square(self):
        for e in np.eye(8)[1:]:
            assert np.allclose(omul(e, e), -ONE_8)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (8,), elements=st.floats(-5, 5)),
           arrays(np.float64, (8,), elements=st.floats(-5, 5)))
    def test_norm_multiplicative(self, a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        assert abs(np.linalg.norm(omul(a, b)) - na * nb) <= 1e-12 * max(1.0, na * nb)

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
        y = np.random.default_rng(2).standard_normal(27)
        assert np.allclose(jordan_product(ONE_27, y), y, atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(3)
        for x, y in rng.standard_normal((20, 2, 27)):
            assert np.allclose(jordan_product(x, y), jordan_product(y, x), atol=1e-12)

    def test_trace_form_symmetric(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 27))
        assert abs(trace_form(x, y) - trace_form(y, x)) < 1e-12

    def test_product_and_trace_form_match_the_matrix_product(self):
        rng = np.random.default_rng(5)
        for x, y in rng.standard_normal((10, 2, 27)):
            ref = jordan_coords(x, y)
            assert np.allclose(jordan_product(x, y), ref, rtol=0, atol=1e-12)
            assert np.isclose(trace_form(x, y), ref[:3].sum(), rtol=1e-13)

    def test_trace_form_signature(self):
        P = jordan_tensor()
        S = np.einsum("abc,c->ab", P, np.array([1.0, 1, 1] + [0.0] * 24))
        assert signature_of((S + S.T) / 2) == (11, 16)


class TestConePoints:
    def test_basic_slots(self):
        w = cone_point(ONE_8, np.zeros(8))
        assert w.shape == (27,)
        assert np.allclose(w[:3], [0.0, 1.0, -1.0])
        assert abs(w[:3].sum()) < 1e-12
        assert np.linalg.norm(jordan_coords(w, w)) < 1e-10

    def test_second_slot(self):
        w = cone_point(np.zeros(8), ONE_8)
        assert np.linalg.norm(jordan_coords(w, w)) < 1e-10
        assert abs(w[:3].sum()) < 1e-12

    def test_c3_relation(self):
        # c3 = -conj(c1 c2), i.e. conj(c3) = -c1 c2
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        w = cone_point(v[:8], v[8:])
        c1, c2, c3 = w[3:11], w[11:19], w[19:27]
        assert np.allclose(oconj(c3), -omul(c1, c2), atol=1e-12)

    def test_imaginary_unit_slots(self):
        # c1 = a j, c2 = b l with j = e2, l = e4: c3 = -ab n for n = l j
        a, b = 0.6, 0.8
        w = cone_point(a * np.eye(8)[2], b * np.eye(8)[4])
        n = omul(np.eye(8)[4], np.eye(8)[2])
        assert np.allclose(w[19:27], -a * b * n, atol=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(InputError):
            cone_point(np.ones(8), np.zeros(8))

    def test_complex_part_never_zero(self):
        pts = sample_cone_points(10_000, seed=1)
        assert min(complex_part_norm(w) for w in pts) > 1e-9

    def test_sampling_deterministic(self):
        a = sample_cone_points(5, seed=9)
        assert a.shape == (5, 27)
        assert np.array_equal(a, sample_cone_points(5, seed=9))


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

    def test_basis_is_exact(self, solved):
        # entries in 1/2 Z, and every block of the system, so the whole unsplit system,
        # annihilates the basis with no rounding at all
        table, _, basis, _ = solved
        flat = basis.reshape(len(basis), -1)
        assert np.array_equal(2 * flat, np.round(2 * flat))
        rows, cols, vals, n_rows = _derivation_system(table)
        A = np.zeros((n_rows, flat.shape[1]))
        A[rows, cols] = vals
        assert not (A @ flat.T).any()

    def test_basis_is_a_reduced_row_echelon_form(self, solved):
        # each row leads with a 1 in a column where every other row is 0
        flat = solved[2].reshape(len(solved[2]), -1)
        lead = (flat != 0).argmax(axis=1)
        assert np.array_equal(flat[np.arange(len(flat)), lead], np.ones(len(flat)))
        assert np.array_equal(flat[:, lead], np.eye(len(flat)))

    def test_entries(self, solved):
        table, _, basis, _ = solved
        values = {0.0, 1.0, -1.0} | ({0.5, -0.5} if table is not OCT_TABLE else set())
        assert set(np.unique(basis)) == values
        if table is not OCT_TABLE:
            assert np.count_nonzero(basis) == 984

    def test_every_ordered_pair_obeys_leibniz(self, solved):
        # the system holds only a <= b; octonions do not commute, so b > a is a consequence
        table, _, basis, _ = solved
        lhs = np.einsum("kij,abj->kabi", basis, table)
        rhs = np.einsum("kia,ibe->kabe", basis, table) + np.einsum("kib,aie->kabe", basis, table)
        assert np.array_equal(lhs, rhs)

    def test_spans_the_null_space_of_the_unsplit_system(self, solved):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        table, dim, basis, _ = solved
        # R of A = QR has A's null space; null_space(A) itself would allocate a square U
        N = scipy_linalg.null_space(np.linalg.qr(_unsplit_system(table), mode="r"))
        flat = basis.reshape(len(basis), -1)
        assert N.shape[1] == len(flat) == dim
        assert np.linalg.norm(flat.T - N @ (N.T @ flat.T), 2) <= 1e-12
        assert np.linalg.matrix_rank(flat) == dim

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

    def test_zero_product_derives_every_map(self):
        # no equation, so no rank cut: every linear map is a derivation of the zero product
        basis, margin = derivation_algebra(np.zeros((2, 2, 2)), 4)
        assert np.array_equal(basis.reshape(4, 4), np.eye(4)) and margin == (0.0, 0.0)

    def test_margin_clears_the_band(self, solved):
        upper, lower = solved[3]
        assert upper > SOLVER_TOL * RANK_BAND and lower < SOLVER_TOL / RANK_BAND

    def test_a_basis_outside_half_integers_raises(self, monkeypatch):
        # without the RREF, the orthonormal null rows rounded to halves solve no block
        import realflag.jordan as jordan_mod
        monkeypatch.setattr(jordan_mod, "_rref", lambda rows: rows)
        with pytest.raises(ConstructionError, match="rounded basis"):
            derivation_algebra(OCT_TABLE, 14)

    @staticmethod
    def _unital(products):
        """The 4-dimensional table with unit e0 and e_a e_b = e_b e_a = e_c for (a, b, c)."""
        table = np.zeros((4, 4, 4))
        table[0, range(4), range(4)] = table[range(4), 0, range(4)] = 1.0
        for a, b, c in products:
            table[a, b, c] = table[b, a, c] = 1.0
        return table

    def test_a_free_unknown_is_its_own_null_direction(self):
        # e2 e2 = e2 e3 = e3: no equation holds D[1, 1] or D[1, 2], since the unit cancels them
        table = self._unital([(2, 2, 3), (2, 3, 3)])
        _, cols, _, _ = _derivation_system(table)
        assert {5, 6}.isdisjoint(cols)
        basis, _ = derivation_algebra(table, 3)
        flat = basis.reshape(3, -1)
        for free in (5, 6):                     # each is a derivation on its own
            assert any(np.array_equal(row, np.eye(16)[free]) for row in flat)
        assert not (_unsplit_system(table) @ flat.T).any()
        assert np.linalg.matrix_rank(_unsplit_system(table)) == 16 - 3

    def test_a_free_unknown_beside_a_basis_outside_half_integers(self):
        # e2 e2 = e3, e2 e3 = e1: D[1, 2] is free, and the derivations, 3 of them, include the
        # grading diag(0, 3, 1, 2), whose reduced row carries 1/3 and 2/3: the exact basis
        # that the solver promises does not exist, and it says so
        table = self._unital([(2, 2, 3), (2, 3, 1)])
        assert 6 not in _derivation_system(table)[1]
        assert np.linalg.matrix_rank(_unsplit_system(table)) == 16 - 3
        with pytest.raises(ConstructionError, match="rounded basis"):
            derivation_algebra(table, 3)

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
        assert signature_of(g2.killing) == (0, 14)

    def test_kills_unit_preserves_imaginary(self):
        g2 = build_g2()
        for D in g2.matrices:
            assert np.linalg.norm(D[:, 0]) < 1e-9
            assert np.linalg.norm(D[0, :]) < 1e-9

    def test_validates(self):
        validate_algebra(build_g2())

    def test_bracket_and_killing_are_exact(self):
        g2 = build_g2()
        assert set(np.unique(g2.bracket_tensor)) == {0.0, 1.0, -1.0, 2.0, -2.0}
        assert set(np.unique(g2.killing)) == {0.0, -8.0, -16.0, 8.0}


# where each kind of cached array sits in the document, and its number of entries
_ARRAYS = {"derivation": ("derivations", None, 52 * 27 * 27),
           "subalgebra": ("subalgebras", "so(1,8)", 36 * 52)}


def _entries_edit(entries, n, value=0.0, index=None, drop=False, repeat=False):
    """A copy of cached entries with entry ``n`` moved by ``value``, its flat index replaced
    by ``index(old)``, or the entry dropped or written twice."""
    indices, values = list(entries["index"]), list(entries["value"])
    n %= len(values)
    values[n] += value
    if index is not None:
        indices[n] = index(indices[n])
    if drop:
        del indices[n], values[n]
    if repeat:
        indices, values = indices + indices[n: n + 1], values + values[n: n + 1]
    return {"index": indices, "value": values}


def _entry_case(kind, n, **edit):
    """A corruption of entry ``n`` of the cached array ``kind`` of ``_ARRAYS``."""
    def corrupt(doc):
        doc = json.loads(json.dumps(doc))
        field, name, _ = _ARRAYS[kind]
        holder, key = (doc[field], name) if name else (doc, field)
        holder[key] = _entries_edit(holder[key], n, **edit)
        return json.dumps(doc)
    return corrupt


def _entry_cases(kind):
    """An index past the end, a repeated index, a float index and a NaN value."""
    size = _ARRAYS[kind][2]
    return [_entry_case(kind, 2, index=lambda f: size), _entry_case(kind, 2, repeat=True),
            _entry_case(kind, 2, index=lambda f: f + 0.5), _entry_case(kind, 2, value=np.nan)]


# deeper than the JSON parser's recursion limit
NESTED = "[" * 200_000 + "]" * 200_000


def _ulp(entries, n):
    """A copy of cached entries with entry ``n`` moved by one unit in the last place."""
    return _entries_edit(entries, n, float(np.spacing(entries["value"][n])))


def _duplicate_derivation(doc):
    """Derivation 1 replaced by derivation 0: every entry exact and Leibniz, but dependent."""
    derivs = from_entries(doc["derivations"], (52, 27, 27))
    derivs[1] = derivs[0]
    return json.dumps({**doc, "derivations": to_entries(derivs)})


class TestF4:
    def test_dim_signature(self, f4bundle):
        L = f4bundle.algebra
        assert L.dim == 52
        assert signature_of(L.killing) == (16, 36)

    def test_a_warm_load_searches_the_pivots_once(self, f4bundle, pivot_searches):
        import realflag.jordan as jordan_mod
        bundle = jordan_mod._load_bundle(jordan_mod.cache_path())
        f4_subalgebra(bundle, "so(1,8)")
        assert pivot_searches == [bundle.algebra]

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

    def test_bracket_theta_and_killing_are_exact(self, f4bundle):
        L = f4bundle.algebra
        c = L.bracket_tensor
        assert set(np.unique(c)) == {0.0, 0.5, -0.5, 1.0, -1.0}
        assert np.count_nonzero(c[np.triu_indices(52, 1)]) == 1116
        assert set(np.unique(L.killing)) == {0.0, 18.0, -18.0}
        for sigma in (L.theta, *f4bundle.involutions.values()):
            assert np.array_equal(np.abs(sigma), np.eye(52)[np.abs(sigma).argmax(axis=1)])
            assert np.array_equal(sigma @ sigma, np.eye(52))

    def test_realization_is_the_derivations(self, f4bundle):
        assert f4bundle.algebra.matrices.shape == (52, 27, 27)
        assert f4bundle.derivations is f4bundle.algebra.matrices

    def test_pivot_block_is_the_identity(self, f4bundle):
        cols, inv = f4bundle.algebra._pivots
        assert np.array_equal(f4bundle.derivations.reshape(52, -1)[:, cols], np.eye(52))
        assert np.array_equal(inv, np.eye(52))

    def test_derivations_bracket_closed(self, f4bundle):
        # every commutator is exactly the combination the bracket names
        D, c = f4bundle.derivations, f4bundle.algebra.bracket_tensor
        com = np.einsum("iab,jbc->ijac", D, D)
        assert np.array_equal(com - com.transpose(1, 0, 2, 3), np.einsum("ijk,kac->ijac", c, D))

    def test_derivations_kill_identity_and_trace_form(self, f4bundle):
        rng = np.random.default_rng(7)
        for _ in range(20):
            D = f4bundle.derivation_of(rng.standard_normal(52))
            assert np.linalg.norm(D @ ONE_27) < 1e-9 * max(1.0, np.linalg.norm(D))
            x, y = rng.standard_normal((2, 27))
            skew = trace_form(D @ x, y) + trace_form(x, D @ y)
            assert abs(skew) < 1e-8 * max(1.0, np.linalg.norm(D))

    def test_cone_invariance(self, f4bundle):
        rng = np.random.default_rng(8)
        for w in sample_cone_points(50, seed=2):
            D = f4bundle.derivation_of(rng.standard_normal(52))
            resid = np.einsum("a,b,abc->c", w, D @ w, jordan_tensor())
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(D))

    def test_cache_roundtrip(self, f4bundle, tmp_path, monkeypatch):
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
        fresh = jordan_mod.f4_bundle()
        doc = json.loads((tmp_path / "f4.json").read_text())
        assert doc["schema"] == jordan_mod.CACHE_SCHEMA == 7
        upper, lower = doc["provenance"]["solver_margin"]
        assert upper > SOLVER_TOL * RANK_BAND and lower < SOLVER_TOL / RANK_BAND
        # the bracket and the involutions are recomputed on load, not stored
        assert set(doc) == {"schema", "provenance", "derivations", "subalgebras"}
        assert set(doc["subalgebras"]) == set(F4_SUBALGEBRAS)
        # every array is its nonzero entries
        assert len(doc["derivations"]["value"]) == np.count_nonzero(fresh.derivations) == 984
        for key, entries in doc["subalgebras"].items():
            assert set(entries) == {"index", "value"}
            assert len(entries["value"]) == np.count_nonzero(fresh.subalgebras[key])
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
        loaded = jordan_mod.f4_bundle()
        assert loaded is not fresh and loaded.algebra.structure is None
        pairs = [(loaded.algebra.bracket_tensor, fresh.algebra.bracket_tensor),
                 (loaded.derivations, fresh.derivations),
                 (loaded.algebra.matrices, fresh.algebra.matrices),
                 (loaded.algebra.theta, fresh.algebra.theta),
                 *((loaded.subalgebras[k], fresh.subalgebras[k]) for k in F4_SUBALGEBRAS),
                 *((loaded.involutions[k], v) for k, v in fresh.involutions.items())]
        for got, built in pairs:                   # bitwise, so a -0.0 would show too
            assert got.shape == built.shape and got.tobytes() == built.tobytes()
        assert loaded.provenance["table_hash"] == fresh.provenance["table_hash"]
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: "{not json",
        lambda doc: "[]",
        lambda doc: NESTED,
        lambda doc: json.dumps({"provenance": 1}),
        lambda doc: json.dumps({**doc, "schema": 1}),
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "subalgebras"}),
        lambda doc: json.dumps({**doc, "subalgebras": {k: v for k, v in doc["subalgebras"].items()
                                                       if k != "su21+su3"}}),
        lambda doc: json.dumps({**doc, "derivations": {
            **doc["derivations"], "value": doc["derivations"]["value"][:-1]}}),
        lambda doc: json.dumps({**doc, "subalgebras": {     # nested lists, not flat ones
            k: {"index": [v["index"]], "value": [v["value"]]}
            for k, v in doc["subalgebras"].items()}}),
        lambda doc: json.dumps({**doc, "subalgebras": {k: v for k, v in doc["subalgebras"].items()
                                                       if k != "so(1,8)"}}),
        _entry_case("derivation", 100, value=1e-7),
        _entry_case("derivation", -1, value=1e-7),
        lambda doc: json.dumps({**doc, "derivations": _ulp(doc["derivations"], 7)}),
        _entry_case("derivation", 7, value=0.5),             # still in 1/2 Z
        _entry_case("derivation", 7, drop=True),
        _duplicate_derivation,
        _entry_case("subalgebra", 3, value=np.nan),
        *_entry_cases("derivation"),
        *_entry_cases("subalgebra"),
    ], ids=["unreadable", "non-object", "deeply-nested", "provenance-int", "schema-1", "no-subalgebras",
            "missing-embedding", "derivations-shape", "subalgebra-shape",
            "missing-symmetric-subalgebra", "derivation-entry-1e-7", "last-derivation-entry-1e-7",
            "derivation-entry-one-ulp", "derivation-entry-plus-half", "derivation-entry-dropped",
            "dependent-derivations", "nan-subalgebra",
            *(f"{kind}-{case}" for kind in ("derivation", "subalgebra")
              for case in ("index-past-the-end", "index-repeated", "float-index", "nan-value"))])
    def test_malformed_cache_is_a_miss(self, f4bundle, tmp_path, corrupt):
        import realflag.jordan as jordan_mod
        path = tmp_path / "f4.json"
        jordan_mod._save_bundle(f4bundle, path)
        assert jordan_mod._load_bundle(path) is not None
        path.write_text(corrupt(json.loads(path.read_text())))
        assert jordan_mod._load_bundle(path) is None

    def test_clean_basis_passes_the_leibniz_check(self, f4bundle):
        from realflag.jordan import _leibniz_defect
        assert _leibniz_defect(f4bundle.derivations) == 0.0

    def test_warm_load_never_solves(self, f4bundle, tmp_path, monkeypatch):
        import realflag.jordan as jordan_mod
        from realflag.catalog import build_pair
        from realflag.realforms import minimal_parabolic
        from realflag.spherical import is_spherical

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm f4 load built or solved")

        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        jordan_mod._save_bundle(f4bundle, tmp_path / "f4.json")
        monkeypatch.setattr(jordan_mod, "_build_bundle", forbidden)
        monkeypatch.setattr(jordan_mod, "_solve_der_w", forbidden)
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
        bundle = jordan_mod.f4_bundle()
        assert bundle is not f4bundle
        assert minimal_parabolic(bundle.algebra).dim_flag == 15
        pd = build_pair("max:f4:so(1,2)+g2")
        assert pd.g is bundle.algebra
        report = is_spherical(pd.g, pd.h, pd.P, samples=8, seed=0)
        assert report.verdict == "not-spherical-at-confidence"

    def test_one_ulp_off_cache_is_rebuilt_once(self, f4bundle, tmp_path, monkeypatch):
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        path = tmp_path / "f4.json"
        jordan_mod._save_bundle(f4bundle, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "derivations": _ulp(doc["derivations"], 100)}))
        builds = []
        build = jordan_mod._build_bundle
        monkeypatch.setattr(jordan_mod, "_build_bundle", lambda: builds.append(1) or build())
        for _ in range(2):
            monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
            jordan_mod.f4_bundle()
        assert builds == [1]
        assert json.loads(path.read_text())["derivations"] == to_entries(f4bundle.derivations)
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)

    def test_old_cache_is_rebuilt_once(self, f4bundle, tmp_path, monkeypatch):
        # schemas 2-6 held orthonormal bases of older solves, and schema 6 the bracket and the
        # involutions too
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        jordan_mod._save_bundle(f4bundle, tmp_path / "f4.json")
        doc = json.loads((tmp_path / "f4.json").read_text())
        builds = []

        def build():
            builds.append(1)
            return f4bundle

        monkeypatch.setattr(jordan_mod, "_build_bundle", build)
        for old in (1, 2, 3, 4, 5, 6):
            (tmp_path / "f4.json").write_text(json.dumps({**doc, "schema": old}))
            builds.clear()
            for _ in range(2):
                monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
                jordan_mod.f4_bundle()
            assert len(builds) == 1
            assert json.loads((tmp_path / "f4.json").read_text())["schema"] == 7

    def test_deeply_nested_cache_is_rebuilt_once(self, f4bundle, tmp_path, monkeypatch):
        # the JSON parser gives up on it with a RecursionError, which read_json maps to a miss
        import realflag.jordan as jordan_mod
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        (tmp_path / "f4.json").write_text(NESTED)
        builds = []
        build = jordan_mod._build_bundle
        monkeypatch.setattr(jordan_mod, "_build_bundle", lambda: builds.append(1) or build())
        for _ in range(2):
            monkeypatch.setattr(jordan_mod, "_BUNDLE", None)
            jordan_mod.f4_bundle()
        assert builds == [1]
        assert jordan_mod._load_bundle(tmp_path / "f4.json") is not None
        monkeypatch.setattr(jordan_mod, "_BUNDLE", None)

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
        bad = F4Bundle(algebra=f4bundle.algebra,
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
        stab = [projective_stabilizer_dim(f4bundle, f4bundle.subalgebras["su21+su3"], w)
                for w in pts]
        assert min(stab) >= 2

    def test_g2_orbit_bound(self, f4bundle):
        pts = sample_cone_points(100, seed=4)
        dims = [projective_orbit_dim(f4bundle, f4bundle.subalgebras["g2"], w) for w in pts]
        assert max(dims) <= 11

    def test_images_are_the_combined_maps_at_the_point(self, f4bundle):
        # oracle: build each map sum_i h_ai D_i on W, then apply it to x
        w = sample_cone_points(1, seed=6)[0]
        for key in ("g2", "su21+su3"):
            h = f4bundle.subalgebras[key]
            ref = np.einsum("ai,ijk->ajk", h, f4bundle.derivations) @ w
            assert np.allclose(derivation_images(f4bundle, h, w), ref, rtol=0, atol=1e-12)
            assert np.allclose(f4bundle.derivation_of(h[-1]) @ w, ref[-1], rtol=0, atol=1e-12)

    def test_full_algebra_orbit_is_open(self, f4bundle):
        # f4 itself acts with open orbit on the 15-dimensional flag variety
        pts = sample_cone_points(10, seed=5)
        dims = [projective_orbit_dim(f4bundle, np.eye(52), w) for w in pts]
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
            cone_max = max(projective_orbit_dim(f4bundle, f4bundle.subalgebras[key], w)
                           for w in pts)
            assert flag_max == cone_max == 14
