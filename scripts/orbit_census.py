#!/usr/bin/env python3
"""Orbit census for the non-reductive rank-one catalog pairs: prints the
normal-form data (n, k, j), the orbit count, and the cell typology.

Usage: python scripts/orbit_census.py [--samples 64] [--seed 0]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from realflag.catalog import build_pair, catalog_entries
from realflag.cli import _SEED, _checked
from realflag.orbits import nonreductive_orbit_count, normalize_nonreductive
from realflag.spherical import is_spherical


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=_checked(int, lambda k: k >= 1, "an integer >= 1"),
                    default=64)
    ap.add_argument("--seed", type=_SEED, default=0)
    args = ap.parse_args()

    bad = 0
    for entry in catalog_entries():
        if entry.orbit_count is None:
            continue
        pd = build_pair(entry.name)
        wit = is_spherical(pd.g, pd.h, pd.P, samples=args.samples, seed=args.seed,
                           pair_name=entry.name)
        nf = normalize_nonreductive(pd.g, pd.h, pd.P)
        rep = nonreductive_orbit_count(nf, wit)
        ok = rep.count == entry.orbit_count
        bad += 0 if ok else 1
        alpha_z = "-"
        if nf.Z is not None:
            t = nf.Z @ np.linalg.pinv(pd.P.roots.a)
            alpha_z = f"{float(pd.P.roots.simple_roots[0] @ t):.3f}"
        print(f"{entry.name:10s} n={rep.n} k={rep.k} j={rep.j} alpha(Z)={alpha_z}  "
              f"count={rep.count} (expected {entry.orbit_count})  {rep.types}")
        print("  " + json.dumps(rep.to_dict(), sort_keys=True))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
