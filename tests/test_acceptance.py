"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and sample budgets are pinned here and nowhere else.
"""

import time

import numpy as np
from scipy.linalg import expm

from realflag.catalog import build_pair, catalog_entries
from realflag.core import Subalgebra, subalgebra
from realflag.jordan import (build_g2, f4_bundle, jordan_tensor, omul,
                             projective_orbit_dim, projective_stabilizer_dim,
                             sample_cone_points)
from realflag.linalg import numeric_rank, signature_of, stack_span
from realflag.orbits import (nonreductive_orbit_count, normalize_nonreductive,
                             orbit_dim_at, symmetric_coincidence)
from realflag.realforms import build_classical, get_algebra
from realflag.reduction import induced_pair, parabolic_alpha
from realflag.spherical import is_spherical, sample_group_element, sample_rng

from conftest import _parabolic_for
from oracles import circle_orbit_count, jacobi_residual, sphere_orbit_count


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_1_dimension_table():
    t0 = time.monotonic()
    for n in range(2, 7):
        assert build_classical("so", 1, n).dim == n * (n + 1) // 2
        assert build_classical("su", 1, n).dim == (n + 1) ** 2 - 1
        assert build_classical("sp", 1, n).dim == (n + 1) * (2 * n + 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"dimension table took {elapsed:.2f}s"
    _report(1, f"so/su/sp dimension formulas exact for n = 2..6 in {elapsed:.2f}s")


def test_criterion_2_exceptional_builds():
    bundle = f4_bundle()
    L = bundle.algebra
    assert L.dim == 52
    assert signature_of(L.killing) == (16, 36)
    P = _parabolic_for("f4")
    assert P.dim_flag == 15
    g2 = build_g2()
    assert g2.dim == 14
    assert signature_of(g2.killing) == (0, 14)
    build_time = bundle.provenance["build_seconds"]
    assert build_time <= 300.0
    _report(2, f"f4: dim 52, signature (16,36), dim g/p 15; g2: dim 14, (0,14); "
               f"build {build_time}s (cached)")


def test_criterion_3_positive_suite():
    names = [e.name for e in catalog_entries(4)
             if e.name.startswith(("berger:", "ml:")) and e.status == "full"]
    assert len(names) >= 26
    slowest = 0.0
    for name in names:
        t0 = time.monotonic()
        pd = build_pair(name)
        rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, tol=1e-9, pair_name=name)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        assert rep.verdict == "spherical", f"{name}: {rep.verdict}"
        assert rep.max_dim == rep.dim_g
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    status = {e.name: e.status for e in catalog_entries(4)}
    assert status["berger:f4:so(1,8)"] == "full"
    assert status["berger:f4:sp(1,2)+sp(1)"] == "full"
    _report(3, f"{len(names)} symmetric/sphere-transitive pairs spherical with rank "
               f"certificates (64 samples, seed 0, tol 1e-9); slowest {slowest:.1f}s")


def test_criterion_4_negative_suite():
    # (a) sp(1,2): sample-free dimension obstruction, 6 < 7
    pd = build_pair("max:sp(1,2):so(1,2)+sp(1)")
    rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=pd.entry.name)
    assert rep.verdict == "dimension-obstructed"
    assert rep.dim_h == 6 and rep.dim_gp == 7

    # (b) sp(1,3): sampled orbit dimensions bounded by 4n-3 = 9 < 11 = dim G/P
    pd = build_pair("max:sp(1,3):so(1,3)+sp(1)")
    assert pd.P.dim_flag == 11
    dims = [orbit_dim_at(pd.g, pd.h, pd.P, sample_group_element(pd.P, sample_rng(0, i)))
            for i in range(256)]
    assert max(dims) <= 9

    # (c) f4, so(1,2)+g2: g2-orbit dimensions on the projective cone at most 11
    bundle = f4_bundle()
    pts = sample_cone_points(256, seed=0)
    g2_dims = [projective_orbit_dim(bundle, bundle.subalgebras["g2"], w) for w in pts]
    assert max(g2_dims) <= 11
    pd = build_pair("max:f4:so(1,2)+g2")
    rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=pd.entry.name)
    assert rep.verdict == "not-spherical-at-confidence"

    # (d) f4, su(2,1)+su(3): stabilizer at least 2 at every sampled cone point
    stabs = [projective_stabilizer_dim(bundle, bundle.subalgebras["su21+su3"], w)
             for w in pts]
    assert min(stabs) >= 2
    orbit_max = 16 - min(stabs)
    assert orbit_max <= 14 < 15
    pd = build_pair("max:f4:su(2,1)+su(3)")
    rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=pd.entry.name)
    assert rep.verdict == "not-spherical-at-confidence"

    _report(4, f"negatives: sp(1,2) obstructed 6 < 7; sp(1,3) orbits <= {max(dims)} <= 9; "
               f"g2 cone orbits <= {max(g2_dims)} <= 11; su(2,1)+su(3) stabilizers >= "
               f"{min(stabs)} >= 2 (256 samples each)")


def test_criterion_5_orbit_counts():
    t0 = time.monotonic()
    expected = {"sl2:n": 2, "so13:ma": 3, "sl2:a": 4}
    for name, count in expected.items():
        pd = build_pair(name)
        wit = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=name)
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        rep = nonreductive_orbit_count(nf, wit)
        assert rep.count == count, f"{name}: {rep.count} != {count}"
    # independent flow oracle on the compact models
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    A = np.diag([1.0, -1.0])
    boost = np.zeros((4, 4)); boost[0, 1] = boost[1, 0] = 1.0
    rot = np.zeros((4, 4)); rot[2, 3], rot[3, 2] = -1.0, 1.0
    oracle = {"sl2:n": circle_orbit_count([E]), "sl2:a": circle_orbit_count([A]),
              "so13:ma": sphere_orbit_count([boost, rot])}
    assert oracle == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"orbit counts 2/3/4 match the discretized flow oracle exactly in {elapsed:.1f}s")


def test_criterion_6_dilation():
    worst = 0.0
    cases = []
    for name in ("sl2:a", "so13:ma"):
        pd = build_pair(name)
        cases.append((pd.g, normalize_nonreductive(pd.g, pd.h, pd.P)))
    for amb in ("su(1,2)", "sp(1,2)"):
        g = get_algebra(amb)
        P = _parabolic_for(amb)
        h = subalgebra(g, stack_span(P.m.basis, P.roots.a), name="m+a")
        cases.append((g, normalize_nonreductive(g, h, P)))
    seen_j = set()
    # X lies in m + a and is not ad-nilpotent: flow with a general exponential
    for g, nf in cases:
        G = g.b_theta
        for j, space in zip((1, 2), nf.n0_graded):
            if space.shape[0]:
                seen_j.add(j)
            for x in space:
                for t in (-1.0, 0.3, 1.0):
                    y = expm(t * g.ad(nf.X)) @ x
                    lhs = float(np.sqrt(y @ G @ y))
                    rhs = float(np.exp(j * t) * np.sqrt(x @ G @ x))
                    worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
    assert seen_j == {1, 2}
    assert worst <= 1e-8
    _report(6, f"dilation law verified for j in {{1,2}}, t in {{-1, 0.3, 1}}; "
               f"worst relative error {worst:.2e}")


def test_criterion_7_symmetric_hull_coincidence():
    h = build_pair("so15:so11+su2")
    hp = build_pair("so15:so11+so4")
    rep = symmetric_coincidence(h.g, h.h, hp.h, h.P, samples=64, seed=0)
    assert rep.coincide

    diag = build_pair("sl2^3:diag")
    sup = build_pair("sl2^3:sl2^2")
    e = np.zeros((0, diag.g.dim))
    d1 = orbit_dim_at(diag.g, diag.h, diag.P, e)
    d2 = orbit_dim_at(sup.g, sup.h, sup.P, e)
    assert (d1, d2) == (1, 2)
    _report(7, "so(1,1)+su(2) and so(1,1)+so(4) orbit dimensions coincide at 64 samples; "
               "triple-product origin dimensions are 1 vs 2")


def test_criterion_8_reduction_steps():
    worst = 0.0
    for name in ("sl2^3:diag", "sl3:so3"):
        pd = build_pair(name)
        h = pd.h
        if numeric_rank(stack_span(h.basis, pd.P.p.basis)) != pd.g.dim:
            rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0)
            h = Subalgebra(pd.g, pd.g.ad_group(rep.witness, pd.h.basis, pd.P.roots.depth),
                           name="h@w")
        for alpha in range(len(pd.P.roots.simple_roots)):
            ap = parabolic_alpha(pd.g, pd.P, alpha)
            _, _, flag = induced_pair(pd.g, h, ap)
            assert flag, f"{name}: induced pair not open at {alpha}"
            rng = np.random.default_rng(0)
            pa = ap.p_alpha.basis
            X = rng.standard_normal((1000, pa.shape[0])) @ pa
            Y = rng.standard_normal((1000, pa.shape[0])) @ pa
            br = np.einsum("ti,tj,ijk->tk", X, Y, pd.g.bracket_tensor)
            lhs = br @ ap.projector.T
            rhs = np.einsum("ti,tj,ijk->tk", X @ ap.projector.T, Y @ ap.projector.T,
                            pd.g.bracket_tensor)
            worst = max(worst, float(np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max())))
    assert worst <= 1e-8
    _report(8, f"induced pairs open for every simple root; projection homomorphism "
               f"residual {worst:.2e} <= 1e-8")


def test_criterion_9_property_suites():
    ambients = ["sl2", "so(1,3)", "so(1,4)", "su(1,2)", "sp(1,2)", "sl3", "sl2^3"]
    for name in ambients:
        L = get_algebra(name)
        assert jacobi_residual(L, 1000, seed=0) <= 1e-8
        ev = np.linalg.eigvalsh(L.b_theta)
        assert ev.min() > 0
        # Killing ad-invariance over 1000 random triples
        rng = np.random.default_rng(0)
        B, c = L.killing, L.bracket_tensor
        X, Y, Z = (rng.standard_normal((1000, L.dim)) for _ in range(3))
        bzx = np.einsum("ti,tj,ijk->tk", Z, X, c)
        bzy = np.einsum("ti,tj,ijk->tk", Z, Y, c)
        resid = np.einsum("tk,kl,tl->t", bzx, B, Y) + np.einsum("tk,kl,tl->t", X, B, bzy)
        scale = max(1.0, float(np.abs(np.einsum("tk,kl,tl->t", bzx, B, Y)).max()))
        assert float(np.abs(resid).max()) / scale <= 1e-8

    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = rng.standard_normal((2, 8))
        err = abs(np.linalg.norm(omul(a, b)) - np.linalg.norm(a) * np.linalg.norm(b))
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))

    bundle = f4_bundle()
    P27 = jordan_tensor()
    for w in sample_cone_points(100, seed=2):
        D = bundle.derivation_of(rng.standard_normal(52))
        resid = np.einsum("a,b,abc->c", w, D @ w, P27)
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, float(np.linalg.norm(D)))

    _report(9, "Jacobi, Killing invariance, B_theta positivity, octonion norm "
               "multiplicativity and cone invariance all pass at stated tolerances")
