import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from realflag.core import InputError
from realflag.linalg import (RANK_BAND, brackets, complement_in, intersect_spans, null_rows,
                             numeric_rank, orth_rows, rank_certificate, signature_of,
                             span_residual)


def test_rank_identity():
    assert numeric_rank(np.eye(5)) == 5


def test_rank_outer_product():
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(7), rng.standard_normal(9)
    assert numeric_rank(np.outer(u, v)) == 1


def test_rank_threshold():
    M = np.diag([1.0, 1e-12])
    assert numeric_rank(M, tol=1e-9) == 1


def test_rank_empty():
    assert numeric_rank(np.zeros((0, 4))) == 0
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_rank_tol_validation():
    with pytest.raises(ValueError):
        numeric_rank(np.eye(2), tol=2.0)


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-9, np.nan])
@pytest.mark.parametrize("fn", [numeric_rank, rank_certificate])
def test_bad_tol_is_an_input_error(fn, tol):
    # the library's own error type, still a ValueError for older callers
    with pytest.raises(InputError, match="tol must be in"):
        fn(np.eye(2), tol=tol)


def test_scale_is_an_absolute_reference_for_the_cut():
    noise = np.diag([3e-16, 2e-16, 1e-16])
    assert numeric_rank(noise) == 3
    assert numeric_rank(noise, scale=1.0) == 0
    assert numeric_rank(np.diag([1.0, 1e-3, 1e-12]), scale=1e-6) == 2
    rank, upper, lower, ambiguous = rank_certificate(np.diag([0.5, 1e-16]), scale=2.0)
    assert (rank, upper, lower, ambiguous) == (1, 0.25, 5e-17, False)


def test_rank_monotone_in_tol():
    M = np.diag([1.0, 1e-3, 1e-6, 1e-12])
    ranks = [numeric_rank(M, tol) for tol in (1e-13, 1e-8, 1e-4, 1e-1)]
    assert ranks == sorted(ranks, reverse=True)


def _padded_diag(*values):
    M = np.zeros((5, 7))
    M[np.arange(len(values)), np.arange(len(values))] = values
    return M


# a rotation moves singular values by rounding, so a rank decided at the cut may
# flip; such a decision must then be flagged on both sides
@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (5, 7), elements=st.floats(-10, 10)), st.integers(0, 2**31))
@example(_padded_diag(1.0, 1e-9), 0)
@example(np.full((5, 7), 5e-324), 0)
def test_rank_orthogonal_invariance(M, seed):
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    Q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    rotated, plain = rank_certificate(Q1 @ M @ Q2), rank_certificate(M)
    assert rotated[0] == plain[0] or (rotated[3] and plain[3])


@pytest.mark.parametrize("M, expected", [
    (np.diag([1.0, 1e-3, 1e-15]), (2, 1e-3, 1e-15, False)),
    (np.eye(3), (3, 1.0, 0.0, False)),
    (_padded_diag(1.0, 1e-9), (1, 1.0, 1e-9, True)),
    (_padded_diag(1.0, 1e-9 * RANK_BAND * 1.01), (2, 1e-8 * 1.01, 0.0, False)),
    (np.full((5, 7), 5e-324), None),
    (np.zeros((3, 3)), (0, 0.0, 0.0, True)),
    (np.zeros((0, 4)), (0, 0.0, 0.0, False)),
], ids=["clear-gap", "full-rank", "at-the-cut", "outside-the-band", "subnormal", "zero", "empty"])
def test_rank_certificate(M, expected):
    cert = rank_certificate(M)
    assert cert[0] == numeric_rank(M)
    if expected is None:            # subnormal entries: the cut underflows
        assert cert[3]
        return
    assert cert[0] == expected[0] and cert[3] == expected[3]
    assert cert[1:3] == pytest.approx(expected[1:3], rel=1e-12, abs=1e-300)


def test_intersect_spans():
    A = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])
    B = np.array([[0.0, 1, 0, 0], [0, 0, 1, 0]])
    inter = intersect_spans(A, B)
    assert inter.shape[0] == 1
    assert abs(abs(inter[0, 1]) - 1.0) < 1e-12


def test_intersect_disjoint():
    A = np.array([[1.0, 0, 0, 0]])
    B = np.array([[0.0, 0, 1, 0]])
    assert intersect_spans(A, B).shape[0] == 0


def test_complement_with_metric():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((6, 6))
    G = G @ G.T + 6 * np.eye(6)
    sub = rng.standard_normal((2, 6))
    comp = complement_in(sub, np.eye(6), metric=G)
    assert comp.shape[0] == 4
    assert np.abs(sub @ G @ comp.T).max() < 1e-10


def test_complement_inside_a_proper_ambient():
    # the complement stays inside span(ambient), is orthogonal to sub and fills the rest
    rng = np.random.default_rng(3)
    ambient = rng.standard_normal((4, 7))
    sub = rng.standard_normal((2, 4)) @ ambient
    comp = complement_in(sub, ambient)
    assert comp.shape[0] == 2
    assert np.abs(sub @ comp.T).max() < 1e-10
    assert span_residual(comp, ambient) < 1e-10
    assert numeric_rank(np.vstack([sub, comp])) == 4


def test_complement_of_nothing_and_of_everything():
    ambient = np.eye(5)[:3]
    assert complement_in(np.zeros((0, 5)), ambient).shape[0] == 3
    assert complement_in(np.zeros((2, 5)), ambient).shape[0] == 3
    assert complement_in(2.0 * ambient[::-1], ambient).shape == (0, 5)


def test_null_rows():
    M = np.array([[1.0, 1, 0], [0, 0, 0]])
    ker = null_rows(M)
    assert ker.shape[0] == 2
    assert np.abs(M @ ker.T).max() < 1e-12


def test_signature():
    assert signature_of(np.diag([3.0, -2.0, 0.0, 1.0])) == (2, 1)


def test_span_residual_zero_for_members():
    rng = np.random.default_rng(2)
    basis = orth_rows(rng.standard_normal((3, 8)))
    vec = rng.standard_normal(3) @ basis
    assert span_residual(vec.reshape(1, -1), basis) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 7), st.integers(0, 2**31))
@example(0, 3, 4, 0)
@example(3, 0, 4, 0)
@example(1, 1, 1, 0)
@example(1, 4, 6, 1)
def test_brackets_matches_reference_einsum(na, nb, d, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((d, d, d)) * 10.0 ** rng.uniform(-3, 3)
    A = rng.standard_normal((na, d))
    B = rng.standard_normal((nb, d))
    out = brackets(c, A, B)
    ref = np.einsum("ai,bj,ijk->abk", A, B, c)
    assert out.shape == (na, nb, d)
    # relative to the size of the summands, so cancellation cannot inflate the error
    scale = np.einsum("ai,bj,ijk->abk", np.abs(A), np.abs(B), np.abs(c)).max(initial=0.0)
    assert np.abs(out - ref).max(initial=0.0) <= 1e-12 * scale
