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
from realflag.core import _realization_residual
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
    stored = {"derivations": bundle.derivations, **bundle.subalgebras}
    print("cached nonzeros: " + ", ".join(
        f"{name} {np.count_nonzero(array)}" for name, array in stored.items()))
    L, derivs = bundle.algebra, bundle.derivations
    print(f"exact basis: entries in 1/2 Z {np.array_equal(2 * derivs, np.round(2 * derivs))}, "
          f"Leibniz defect {jordan._leibniz_defect(derivs):g} (must be 0), "
          f"pivot block the identity {np.array_equal(L._pivots[1], np.eye(L.dim))}")
    c = L.bracket_tensor
    print(f"bracket, recomputed on load: {np.count_nonzero(c) // 2} nonzeros c[i, j, k] with "
          f"i < j, values {sorted(set(np.unique(c).tolist()))}, closure residual "
          f"{_realization_residual(L.matrices, c):.2g}")
    print("subalgebra dimensions: " + ", ".join(
        f"{key} {len(basis)}" for key, basis in bundle.subalgebras.items()))
    print()
    return cli_main(["f4", "verify", "--samples", "50"])


if __name__ == "__main__":
    sys.exit(main())
