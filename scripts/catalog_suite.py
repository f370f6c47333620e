#!/usr/bin/env python3
"""Run the sphericality verdict for every catalog entry and compare against
the expected column.  Exits nonzero on any mismatch.

Usage: python scripts/catalog_suite.py [--samples 64] [--seed 0] [--n 4] [--json-out FILE]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from realflag.catalog import VERDICT_MATCHES, build_pair, catalog_entries
from realflag.cli import _SEED, _checked
from realflag.spherical import is_spherical

AT_LEAST_ONE = _checked(int, lambda k: k >= 1, "an integer >= 1")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=AT_LEAST_ONE, default=64)
    ap.add_argument("--seed", type=_SEED, default=0)
    ap.add_argument("--n", type=AT_LEAST_ONE, default=4)
    ap.add_argument("--json-out", type=Path)
    args = ap.parse_args()

    rows = []
    failures = 0
    for entry in catalog_entries(args.n):
        t0 = time.monotonic()
        pd = build_pair(entry.name, args.n)
        rep = is_spherical(pd.g, pd.h, pd.P, samples=args.samples, seed=args.seed,
                           pair_name=entry.name)
        ok = rep.verdict in VERDICT_MATCHES[entry.expected]
        failures += 0 if ok else 1
        elapsed = time.monotonic() - t0
        mark = "ok " if ok else "BAD"
        print(f"{entry.name:44s} {rep.verdict:28s} max {rep.max_dim:3d}/{rep.dim_g:3d} "
              f"{mark} {elapsed:5.1f}s")
        doc = rep.to_dict()
        doc["expected"] = entry.expected
        doc["match"] = ok
        doc.pop("witness")
        rows.append(doc)

    if args.json_out:
        args.json_out.write_text(json.dumps({"schema": 1, "rows": rows}, sort_keys=True))
    print(f"\n{len(rows)} entries, {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
