"""Child-process side of the benchmark: one fresh interpreter per call.

    worker.py fill [--skip-f4]          import, build f4 into the cache, report the environment
    worker.py pair PATH                 write the cli-session pair file
    worker.py setup --t0 T              set-up only (import realflag, f4_bundle)
    worker.py sweep --select S --n N --seed K --t0 T [--spans F]
    worker.py f4cold --seed K --t0 T [--spans F]
    worker.py cli --spans F -- ARGS...  one traced ``realflag`` command

``--t0`` is the parent's ``time.monotonic()`` just before the spawn, so set-up
time runs from the spawn until ``f4_bundle()`` returns.  Every mode except
``cli`` prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

# Catalog "expected" column -> verdicts that satisfy it.  Kept here, apart from
# the program, because it is the oracle the benchmark checks outputs against.
MATCH = {
    "spherical": {"spherical"},
    "not-spherical": {"not-spherical-at-confidence", "dimension-obstructed"},
    "dimension-obstructed": {"dimension-obstructed"},
}

SELECT = {
    "negatives": lambda e: e.name.startswith("max:"),
    "positives": lambda e: e.status == "full" and e.expected == "spherical",
}

PAIR_ENTRY = "berger:sp(1,3):u(1,3)"
F4_VERIFY_SAMPLES = 50


def digest(docs: list) -> str:
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _setup(t0: float, spans_path: str | None):
    """Import realflag and return (tracer, import_s, setup_s) once f4 is loaded."""
    t = time.perf_counter()
    import realflag  # noqa: F401
    import_s = time.perf_counter() - t
    tracer = None
    if spans_path:
        tracer = spans.Tracer(run_id=Path(spans_path).stem)
        spans.install(tracer)
    from realflag import jordan
    jordan.f4_bundle()
    return tracer, import_s, time.monotonic() - t0


def _finish(result: dict, tracer, spans_path: str | None) -> None:
    if tracer is not None:
        tracer.write(Path(spans_path))
        result["summary"] = spans.summarize(tracer.spans)
    print(json.dumps(result))


def cmd_sweep(args) -> None:
    tracer, import_s, setup_s = _setup(args.t0, args.spans)
    from realflag.catalog import build_pair, catalog_entries
    from realflag.spherical import is_spherical

    t_sweep = time.perf_counter()
    entries = [e for e in catalog_entries(args.n) if SELECT[args.select](e)]
    docs, failures, samples = [], [], 0
    for e in entries:
        pd = build_pair(e.name, args.n)
        rep = is_spherical(pd.g, pd.h, pd.P, samples=64, seed=args.seed, pair_name=e.name)
        if rep.verdict not in MATCH[e.expected]:
            failures.append(f"{e.name}: verdict {rep.verdict}, expected {e.expected}")
        samples += len(rep.per_sample_dims)
        doc = rep.to_dict()
        doc.pop("witness")
        docs.append(doc)
    work_s = time.perf_counter() - t_sweep
    _finish({"import_s": import_s, "setup_s": setup_s, "work_s": work_s,
             "attempted": len(entries), "failures": failures, "digest": digest(docs),
             "entries": len(entries), "samples": samples}, tracer, args.spans)


def cmd_f4cold(args) -> None:
    tracer, import_s, setup_s = _setup(args.t0, args.spans)
    from realflag import cli, jordan

    cache_bytes = jordan.cache_path().stat().st_size
    out = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["f4", "verify", "--samples", str(F4_VERIFY_SAMPLES),
                       "--seed", str(args.seed)])
    work_s = time.perf_counter() - t
    lines = out.getvalue().splitlines()
    failures = [f"f4 verify: {line}" for line in lines if not line.startswith("[PASS]")]
    if rc != 0 or not lines:
        failures.append(f"f4 verify: exit code {rc}, {len(lines)} lines")
    # the battery's names and outcomes; residual digits are not part of the digest
    docs = [line.split(":", 1)[0] for line in lines]
    _finish({"import_s": import_s, "setup_s": setup_s, "work_s": work_s,
             "attempted": 1, "failures": failures, "digest": digest(docs),
             "cache_bytes": cache_bytes}, tracer, args.spans)


def cmd_cli(args) -> int:
    t = time.perf_counter()
    import realflag  # noqa: F401
    import_s = time.perf_counter() - t
    tracer = spans.Tracer(run_id=Path(args.spans).stem)
    spans.install(tracer)
    from realflag import cli
    try:
        rc = cli.main(args.argv)
    finally:
        tracer.write(Path(args.spans))
        summary = spans.summarize(tracer.spans)
        summary["import_s"] = import_s
        Path(args.spans).with_suffix(".summary.json").write_text(json.dumps(summary))
    return rc


def cmd_setup(args) -> None:
    _, import_s, setup_s = _setup(args.t0, None)
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))


def cmd_fill(args) -> None:
    import numpy
    import scipy
    import realflag.cli  # noqa: F401  (compiles every module once)
    from realflag import jordan
    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()}
    if not args.skip_f4:
        jordan.f4_bundle()
        info["cache_bytes"] = jordan.cache_path().stat().st_size
    print(json.dumps(info))


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def cmd_pair(args) -> None:
    from realflag.catalog import build_pair
    from realflag.core import save_algebra
    pd = build_pair(PAIR_ENTRY)
    path = Path(args.path)
    save_algebra(pd.g, path)
    doc = json.loads(path.read_text())
    doc["subalgebra"] = pd.h.basis.tolist()
    path.write_text(json.dumps(doc))
    print(json.dumps({"pair_bytes": path.stat().st_size}))


def blas_info() -> dict:
    """OpenBLAS version and the thread count it will use, read from the loaded library."""
    import ctypes
    import numpy
    info = {"openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("fill")
    p.add_argument("--skip-f4", action="store_true")
    p.set_defaults(func=cmd_fill)
    p = sub.add_parser("pair")
    p.add_argument("path")
    p.set_defaults(func=cmd_pair)
    p = sub.add_parser("setup")
    p.add_argument("--t0", type=float, required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("sweep")
    p.add_argument("--select", choices=sorted(SELECT), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("f4cold")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_f4cold)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = ap.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
