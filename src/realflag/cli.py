"""Command-line front end: catalog listing, sphericality checks, orbit
reports, the f4 invariant battery, and single reduction steps.

Exit codes: 0 = verdict matches the catalog expectation (or nothing was
expected), 1 = mismatch or failed battery, 2 = unknown pair name or a bad
argument, 3 = construction failure or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import (ConstructionError, InputError, LieError, Subalgebra, load_algebra,
                   read_json, subalgebra, validate_algebra)
from .catalog import VERDICT_MATCHES, build_pair, catalog_entries, get_entry
from .linalg import signature_of
from .realforms import minimal_parabolic
from .spherical import is_spherical


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for key, val in doc.items():
            if key in ("schema", "witness"):
                continue
            print(f"{key}: {val}")


def _load_pair_file(path: str):
    doc = read_json(path)
    g = load_algebra(doc)
    if "subalgebra" not in doc:
        raise ConstructionError("pair file lacks a 'subalgebra' basis block")
    try:
        rows = np.array(doc["subalgebra"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"pair file: 'subalgebra' is not a list of numeric rows ({exc})") from exc
    h = subalgebra(g, rows, name="h(file)")
    P = minimal_parabolic(g)
    return g, P, h, None


def cmd_check(args) -> int:
    name = args.pair
    expected = None
    if Path(name).is_file():
        g, P, h, _ = _load_pair_file(name)
    else:
        try:
            entry = get_entry(name, args.n)
        except KeyError:
            print(f"unknown pair {name!r}", file=sys.stderr)
            return 2
        expected = entry.expected
        pd = build_pair(name, args.n)
        g, P, h = pd.g, pd.P, pd.h
    report = is_spherical(g, h, P, samples=args.samples, seed=args.seed,
                          tol=args.tol, pair_name=name)
    _emit(report.to_dict(), args.json)
    if expected is None:
        return 0
    return 0 if report.verdict in VERDICT_MATCHES[expected] else 1


def cmd_catalog(args) -> int:
    rows = catalog_entries(args.n)
    if args.json:
        doc = {"schema": 1, "kind": "catalog",
               "entries": [e.__dict__ for e in rows]}
        print(json.dumps(doc, sort_keys=True))
        return 0
    widths = (42, 10, 26, 22, 14)
    print(f"{'name':{widths[0]}} {'ambient':{widths[1]}} {'subalgebra':{widths[2]}} "
          f"{'expected':{widths[3]}} {'status':{widths[4]}}")
    for e in rows:
        print(f"{e.name:{widths[0]}} {e.ambient:{widths[1]}} {e.subalgebra:{widths[2]}} "
              f"{e.expected:{widths[3]}} {e.status:{widths[4]}}")
    return 0


def cmd_orbits(args) -> int:
    from .orbits import nonreductive_orbit_count, normalize_nonreductive, symmetric_coincidence

    try:
        pd = build_pair(args.pair, args.n)
    except KeyError:
        print(f"unknown pair {args.pair!r}", file=sys.stderr)
        return 2
    if args.mode == "count":
        witness = is_spherical(pd.g, pd.h, pd.P, samples=args.samples, seed=args.seed,
                               tol=args.tol, pair_name=args.pair)
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        report = nonreductive_orbit_count(nf, witness)
        _emit(report.to_dict(), args.json)
        if pd.entry.orbit_count is not None and report.count != pd.entry.orbit_count:
            return 1
        return 0
    # coincide
    try:
        sup = build_pair(args.sup, args.n)
    except KeyError:
        print(f"unknown pair {args.sup!r}", file=sys.stderr)
        return 2
    if sup.entry.ambient != pd.entry.ambient:
        raise ConstructionError("pair and sup live in different ambient algebras")
    report = symmetric_coincidence(pd.g, pd.h, sup.h, pd.P,
                                   samples=args.samples, seed=args.seed, tol=args.tol)
    _emit(report.to_dict(), args.json)
    return 0 if report.coincide else 1


def cmd_reduce(args) -> int:
    from .reduction import induced_pair, parabolic_alpha

    try:
        pd = build_pair(args.pair, args.n)
    except KeyError:
        print(f"unknown pair {args.pair!r}", file=sys.stderr)
        return 2
    simples = pd.P.roots.simple_roots
    if not 0 <= args.alpha < len(simples):
        print(f"alpha index out of range (have {len(simples)} simple roots)", file=sys.stderr)
        return 2
    h = pd.h
    if args.translate:
        rep = is_spherical(pd.g, pd.h, pd.P, samples=args.samples, seed=args.seed, tol=args.tol)
        if rep.witness is not None:
            moved = pd.g.ad_group(rep.witness, pd.h.basis, depth=pd.P.roots.depth)
            h = Subalgebra(pd.g, moved, name=f"{pd.h.name}@witness")
    ap = parabolic_alpha(pd.g, pd.P, args.alpha)
    l_alpha, h_alpha, flag = induced_pair(pd.g, h, ap)
    doc = {
        "schema": 1,
        "kind": "reduction-step",
        "pair": args.pair,
        "alpha": args.alpha,
        "dim_p_alpha": ap.p_alpha.dim,
        "dim_l_alpha": l_alpha.dim,
        "dim_u_alpha": int(ap.u_alpha.shape[0]),
        "dim_h_alpha": h_alpha.dim,
        "open": bool(flag),
    }
    _emit(doc, args.json)
    return 0


def cmd_f4(args) -> int:
    from . import jordan

    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    bundle = jordan.f4_bundle()
    L = bundle.algebra
    add("dim", L.dim == 52, f"dim={L.dim}")
    sig = signature_of(L.killing)
    add("killing-signature", sig == (16, 36), f"sig={sig}")
    try:
        validate_algebra(L)
        add("algebra-invariants", True, "jacobi/theta/matrices")
    except ConstructionError as exc:
        add("algebra-invariants", False, str(exc))
    g2 = jordan.build_g2()
    add("g2", g2.dim == 14 and signature_of(g2.killing) == (0, 14),
        f"dim={g2.dim} sig={signature_of(g2.killing)}")
    P = minimal_parabolic(L)
    add("flag-dimension", P.dim_flag == 15, f"dim g/p={P.dim_flag}")

    rng = np.random.default_rng(args.seed)
    pts = jordan.sample_cone_points(args.samples, seed=args.seed)
    worst_inv = 0.0
    worst_skew = 0.0
    xc_min = np.inf
    for w in pts:
        co = rng.standard_normal(52)
        D = bundle.derivation_of(co)
        worst_inv = max(worst_inv, float(np.linalg.norm(jordan.jordan_product(w, D @ w)))
                        / max(1.0, float(w @ w)))
        x = rng.standard_normal(27)
        y = rng.standard_normal(27)
        skew = jordan.trace_form(D @ x, y) + jordan.trace_form(x, D @ y)
        worst_skew = max(worst_skew, abs(skew) / max(1.0, np.linalg.norm(x) * np.linalg.norm(y)))
        xc_min = min(xc_min, jordan.complex_part_norm(w))
    add("cone-invariance", worst_inv <= 1e-8, f"max residual {worst_inv:.2e}")
    add("trace-form-skew", worst_skew <= 1e-8, f"max residual {worst_skew:.2e}")
    add("complex-part-nonzero", xc_min > 1e-9, f"min |x_C| {xc_min:.2e}")

    stab = min(jordan.projective_stabilizer_dim(bundle, bundle.subalgebras["su21+su3"], w)
               for w in pts)
    add("su21+su3-stabilizer", stab >= 2, f"min stabilizer dim {stab}")
    g2max = max(jordan.projective_orbit_dim(bundle, bundle.subalgebras["g2"], w)
                for w in pts)
    add("g2-orbit-bound", g2max <= 11, f"max orbit dim {g2max}")

    for label, keys in (("embeddings", ("su21+su3", "so12+g2")),
                        ("symmetric-subalgebras", ("so(1,8)", "sp(1,2)+sp(1)"))):
        try:
            dims = [jordan.f4_subalgebra(bundle, key).dim for key in keys]
            add(label, True, "dims " + ", ".join(map(str, dims)))
        except ConstructionError as exc:
            add(label, False, str(exc))

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 1 if failed else 0


def _checked(convert, ok, what: str):
    """An argparse type: ``convert(text)`` if that succeeds and satisfies ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


# numpy seeds its generators from the integers in [0, 2**64)
_SEED = _checked(int, lambda s: 0 <= s < 2 ** 64, "an integer in [0, 2**64)")


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=_checked(int, lambda k: k >= 1, "an integer >= 1"),
                        default=64)
    common.add_argument("--seed", type=_SEED, default=0)
    common.add_argument("--tol", type=_checked(float, lambda t: 0.0 < t < 1.0,
                                                "a number in (0, 1)"), default=1e-9)
    common.add_argument("--json", action="store_true")
    common.add_argument("--n", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                        default=4, help="catalog family bound")

    parser = argparse.ArgumentParser(prog="realflag",
                                     description="sphericality and orbit decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="sphericality check for a named pair or pair file")
    p.add_argument("--pair", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("catalog", parents=[common], help="list the catalog")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("orbits", parents=[common],
                       help="orbit counting and coincidence reports")
    p.add_argument("mode", choices=["count", "coincide"])
    p.add_argument("--pair", required=True)
    p.add_argument("--sup")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("reduce", parents=[common],
                       help="one reduction step along a simple root")
    p.add_argument("mode", choices=["step"])
    p.add_argument("--pair", required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--translate", action="store_true",
                   help="translate h by a sphericality witness first")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("f4", parents=[common],
                       help="build and verify the exceptional algebra")
    p.add_argument("mode", choices=["verify"])
    p.set_defaults(func=cmd_f4)

    args = parser.parse_args(argv)
    if args.command == "orbits" and args.mode == "coincide" and not args.sup:
        parser.error("orbits coincide requires --sup")
    try:
        return args.func(args)
    except LieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
