#!/usr/bin/env python3
"""Force a fresh build of the exceptional algebra, report timings, and run
the invariant battery.

Usage: python scripts/build_f4.py [--keep-cache]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from realflag import jordan
from realflag.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--keep-cache", action="store_true",
                    help="reuse the disk cache instead of rebuilding")
    args = ap.parse_args()

    t0 = time.monotonic()
    bundle = jordan.f4_bundle(rebuild=not args.keep_cache)
    print(f"bundle ready in {time.monotonic() - t0:.2f}s "
          f"(solver: {bundle.provenance['build_seconds']}s at build time)")
    print(f"cache: {jordan.cache_path()} ({jordan.cache_path().stat().st_size:,} bytes)")
    print(f"table hash: {bundle.provenance['table_hash'][:16]}...")
    upper, lower = bundle.provenance["solver_margin"]
    print(f"solver margin: s_r/s_1 = {upper:.3g}, s_r+1/s_1 = {lower:.3g} "
          f"(cut {bundle.provenance['solver_tol']:g})")
    stored = {"derivations": bundle.derivations, **bundle.subalgebras,
              **{f"involution {key}": sigma for key, sigma in bundle.involutions.items()}}
    print("cached nonzeros: " + ", ".join(
        f"{name} {np.count_nonzero(array)}" for name, array in stored.items()))
    nonzeros = int((bundle.algebra.bracket_tensor != 0).sum()) // 2
    residual = jordan._realization_residual(bundle.algebra)
    print(f"cached bracket: {nonzeros} nonzeros c[i, j, k] with i < j, "
          f"load-check residual {residual:.2g} (cut {jordan.LOAD_TOL:g})")
    print("subalgebra dimensions: " + ", ".join(
        f"{key} {len(basis)}" for key, basis in bundle.subalgebras.items()))
    print()
    return cli_main(["f4", "verify", "--samples", "50"])


if __name__ == "__main__":
    sys.exit(main())
