#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of realflag.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

One client, closed loop, one process at a time.  Every timed unit is a fresh
interpreter, because the users are a researcher running the catalog suite,
single ``realflag`` commands, and a first f4 build on an empty cache; the
in-process caches of realflag (algebras, parabolics, f4) would otherwise
hide the costs those users pay.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, which alternates untraced
and traced passes so that the tracing overhead is measured in the same run.
The line before it is a detail object: per-metric medians, tail percentiles
and sample counts, the report digest, the environment and every failure.
The exit code is 1 when any output check fails, 2 when the program is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from worker import digest  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# On a shared 2-core machine the host's speed drifts by 20 % and more, from one
# call to the next and over minutes, so a run samples as much as fits in its
# --seconds: passes while the next one (and the set-up probes still owed)
# fits, then set-up-only probes in the time left.  A run samples at least MIN_SETUPS set-ups (passes on the
# catalog workloads and f4-cold supply one each).
MIN_SETUPS = 5

# Functions whose span counts and self times are per-layer metrics; each is
# named module.function or module.Class.method.  README.md says which
# end-to-end metric each should move, on which workload.
LAYER_FUNCTIONS = (
    "jordan.f4_bundle", "jordan._load_bundle", "jordan._solve_der_w", "jordan._save_bundle",
    "jordan.build_g2", "jordan.projective_orbit_dim",
    "catalog.catalog_entries", "catalog.build_pair",
    "realforms.get_algebra", "realforms.minimal_parabolic",
    "core.subalgebra", "core.pairwise_brackets", "core.LieAlgebra.coefficients_of",
    "core.LieAlgebra.ad_group", "core.load_algebra",
    "spherical.is_spherical", "spherical.local_dim", "spherical.sample_group_element",
    "linalg.numeric_rank", "linalg.orth_rows", "linalg.intersect_spans",
    "orbits.normalize_nonreductive", "orbits.orbit_dim_at",
    "reduction.parabolic_alpha", "reduction.induced_pair",
)
CLI_COMMANDS = ("catalog", "check", "orbits", "reduce", "f4")


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    cpu_s: float


@dataclass
class Pass:
    """One pass through a workload's operations."""

    work_s: float
    attempted: int
    failures: list[str]
    digest: str
    procs: list[Proc]
    setup_s: float | None = None
    import_s: list[float] = field(default_factory=list)
    command_s: dict[str, float] = field(default_factory=dict)
    summary: dict | None = None
    cache_bytes: int | None = None


def source_key() -> str:
    """Digest of the files under ``src/realflag``: the code that writes a cache."""
    src = ROOT / "src" / "realflag"
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:12]


class Session:
    """A per-run working directory inside the benchmark's own tree.

    It holds the run's ``XDG_CACHE_HOME`` and is removed on close.  The
    workload's ``REALFLAG_CACHE_DIR`` is its own too: a warm workload keeps one
    per workload and version of the sources, filled by its first run, so two
    versions run in one tree never read each other's f4 cache; f4-cold uses
    one per run and empties it before every pass.  No run reads or writes a
    user cache.
    """

    def __init__(self, workload: str, warm: bool):
        work = BENCH / ".work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
        self.cache = (work / f"cache-{workload}-{source_key()}" if warm
                      else self.dir / "cache")
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "REALFLAG_CACHE_DIR": str(self.cache),
                    "XDG_CACHE_HOME": str(self.dir / "xdg")}
        self.info: dict = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, argv: list[str], t0: float | None = None) -> Proc:
        """Run one child to completion; wall time runs from ``t0`` (default: now)."""
        with tempfile.TemporaryFile(dir=self.dir) as out, \
                tempfile.TemporaryFile(dir=self.dir) as err:
            t0 = time.monotonic() if t0 is None else t0
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(child.returncode, out.read().decode(), err.read().decode(), wall,
                        usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)

    def worker(self, *args: str) -> tuple[Proc, dict | None]:
        """Spawn worker.py with ``--t0`` set to the spawn time; parse its last line."""
        t0 = time.monotonic()
        argv = [sys.executable, str(WORKER), *args]
        if args[0] in ("setup", "sweep", "f4cold"):
            argv += ["--t0", repr(t0)]
        proc = self.spawn(argv, t0)
        lines = proc.stdout.strip().splitlines()
        if proc.rc != 0 or not lines:
            return proc, None
        try:
            return proc, json.loads(lines[-1])
        except json.JSONDecodeError:
            return proc, None


def process_failures(what: str, proc: Proc) -> list[str]:
    out = []
    if proc.rc != 0:
        out.append(f"{what}: exit code {proc.rc}")
    if "Traceback (most recent call last)" in proc.stderr:
        out.append(f"{what}: traceback: {proc.stderr.strip().splitlines()[-1]}")
    return out


class Workload:
    name = ""
    warm = True      # the cache holds f4 before any timed run
    setup_in_pass = True   # each pass reports the set-up of its process

    def prepare(self, s: Session) -> None:
        proc, info = s.worker("fill", *([] if self.warm else ["--skip-f4"]))
        if info is None:
            raise RuntimeError(f"cache fill failed: {proc.stderr.strip()[-400:]}")
        s.info.update(info)

    def setup_probe(self, s: Session) -> tuple[Proc, dict | None]:
        if not self.warm:
            shutil.rmtree(s.cache, ignore_errors=True)
        return s.worker("setup")

    def run_pass(self, s: Session, seed: int, spans_dir: Path | None, k: int) -> Pass:
        raise NotImplementedError


class CatalogSweep(Workload):
    """build_pair + is_spherical (64 samples, seed = workload seed) per selected entry."""

    def __init__(self, name: str, select: str, n: int):
        self.name, self.select, self.n = name, select, n

    def run_pass(self, s, seed, spans_dir, k):
        args = ["sweep", "--select", self.select, "--n", str(self.n), "--seed", str(seed)]
        if spans_dir is not None:
            args += ["--spans", str(spans_dir / f"pass{k}.jsonl")]
        proc, res = s.worker(*args)
        failures = process_failures("sweep worker", proc)
        if res is None:
            return Pass(proc.wall_s, 1, failures or ["sweep worker: no result"], "", [proc])
        failures += res["failures"]
        summary = res.get("summary")
        if summary is not None:
            fns = summary["functions"]
            calls = {f: fns.get(f, {}).get("calls", 0)
                     for f in ("spherical.local_dim", "catalog.build_pair")}
            if calls["spherical.local_dim"] != res["samples"]:
                failures.append(f"cross-check: local_dim.calls {calls['spherical.local_dim']}"
                                f" != evaluated samples {res['samples']}")
            if calls["catalog.build_pair"] != res["entries"]:
                failures.append(f"cross-check: build_pair.calls {calls['catalog.build_pair']}"
                                f" != entries built {res['entries']}")
        return Pass(res["work_s"], res["attempted"], failures, res["digest"], [proc],
                    setup_s=res["setup_s"], import_s=[res["import_s"]], summary=summary)


class CliSession(Workload):
    """A closed loop of light ``realflag`` commands, each a fresh process."""

    name = "cli-session"
    setup_in_pass = False
    PAIR_NAME = "pair.json"

    def prepare(self, s):
        super().prepare(s)
        self.pair = s.dir / self.PAIR_NAME
        proc, res = s.worker("pair", str(self.pair))
        if res is None:
            raise RuntimeError(f"pair file generation failed: {proc.stderr.strip()[-400:]}")
        s.info["pair_bytes"] = res["pair_bytes"]

    def mix(self) -> list[list[str]]:
        return [
            ["catalog", "--json"],
            ["check", "--pair", "sl2:a"],
            ["check", "--pair", "berger:su(1,3):so(1,3)"],
            ["check", "--pair", "berger:f4:so(1,8)"],
            ["check", "--pair", "max:sp(1,3):so(1,3)+sp(1)"],
            ["check", "--pair", str(self.pair)],
            ["orbits", "count", "--pair", "so13:ma"],
            ["orbits", "count", "--pair", "sl2:a"],
            ["orbits", "coincide", "--pair", "so15:so11+su2", "--sup", "so15:so11+so4"],
            ["reduce", "step", "--pair", "sl3:so3"],
            ["reduce", "step", "--pair", "sl2^3:diag", "--translate"],
        ]

    def run_pass(self, s, seed, spans_dir, k):
        mix = self.mix()
        order = list(range(len(mix)))
        random.Random(seed).shuffle(order)
        docs: list = [None] * len(mix)
        procs, failures, imports = [], [], []
        command_s = dict.fromkeys(CLI_COMMANDS, 0.0)
        summary = None if spans_dir is None else {"functions": {}, "sampled": 0, "verdicts": 0}
        for i in order:
            argv = mix[i] + ([] if mix[i][0] == "catalog" else ["--json", "--seed", str(seed)])
            label = f"realflag {' '.join(argv)}"
            if spans_dir is None:
                proc = s.spawn([sys.executable, "-m", "realflag.cli", *argv])
            else:
                span_file = spans_dir / f"pass{k}-cmd{i}.jsonl"
                proc = s.spawn([sys.executable, str(WORKER), "cli", "--spans", str(span_file),
                                "--", *argv])
            procs.append(proc)
            command_s[argv[0]] += proc.wall_s
            failures += process_failures(label, proc)
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError:
                failures.append(f"{label}: output is not JSON")
                continue
            if isinstance(doc, dict):
                doc.pop("witness", None)
                if doc.get("pair") == str(self.pair):
                    doc["pair"] = self.PAIR_NAME
            docs[i] = doc
            if summary is not None:
                part = json.loads(span_file.with_suffix(".summary.json").read_text())
                imports.append(part.pop("import_s"))
                merge_summary(summary, part)
                if argv[0] == "check":
                    calls = part["functions"].get("spherical.local_dim", {}).get("calls", 0)
                    if calls != len(doc.get("per_sample_dims", [])):
                        failures.append(f"cross-check: {label}: local_dim.calls {calls} != "
                                        f"{len(doc.get('per_sample_dims', []))} samples")
        return Pass(sum(p.wall_s for p in procs), len(mix), failures, digest(docs), procs,
                    import_s=imports, command_s=command_s, summary=summary)


class F4Cold(Workload):
    """Empty cache, import, build and write f4, then ``f4 verify --samples 50``."""

    name = "f4-cold"
    warm = False

    def run_pass(self, s, seed, spans_dir, k):
        shutil.rmtree(s.cache, ignore_errors=True)
        args = ["f4cold", "--seed", str(seed)]
        if spans_dir is not None:
            args += ["--spans", str(spans_dir / f"pass{k}.jsonl")]
        proc, res = s.worker(*args)
        failures = process_failures("f4cold worker", proc)
        if res is None:
            return Pass(proc.wall_s, 1, failures or ["f4cold worker: no result"], "", [proc])
        return Pass(res["work_s"], res["attempted"], failures + res["failures"],
                    res["digest"], [proc], setup_s=res["setup_s"], import_s=[res["import_s"]],
                    command_s={"f4": res["work_s"]}, summary=res.get("summary"),
                    cache_bytes=res["cache_bytes"])


WORKLOADS = {w.name: w for w in (
    CatalogSweep("catalog-negatives", "negatives", 4),
    # not in BENCHMARK.json: the time budget of a checked run covers three workloads
    CatalogSweep("catalog-positives", "positives", 5),
    CliSession(),
    F4Cold(),
)}


def merge_summary(total: dict, part: dict) -> None:
    for name, row in part["functions"].items():
        acc = total["functions"].setdefault(name, {"calls": 0, "self_ms": 0.0})
        acc["calls"] += row["calls"]
        acc["self_ms"] += row["self_ms"]
    total["sampled"] += part["sampled"]
    total["verdicts"] += part["verdicts"]


def describe(values: list[float]) -> dict:
    """Median, and the highest percentile that has at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "samples": n}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = vals[max(0, math.ceil(pct / 100 * n) - 1)]
            break
    return out


def run_timed(wl: Workload, s: Session, seed: int,
              deadline: float) -> tuple[list[Pass], list[float], list[Proc]]:
    """Untraced passes, then set-up probes, until ``deadline`` (``time.monotonic()``).

    A pass runs while it and the probes needed to reach ``MIN_SETUPS`` fit in
    the time left (at least one pass); probes then fill the rest of the run.
    Returns (passes, set-up samples, probe processes).
    """
    passes: list[Pass] = []
    setups: list[float] = []
    probes: list[Proc] = []

    def left() -> float:
        return deadline - time.monotonic()

    pass_s = probe_s = 0.0
    while True:
        if passes:
            owed = max(0, MIN_SETUPS - len(setups) - wl.setup_in_pass)
            if pass_s + owed * probe_s > left():
                break
        t = time.monotonic()
        p = wl.run_pass(s, seed, None, len(passes))
        pass_s = time.monotonic() - t
        passes.append(p)
        if p.setup_s is not None:
            setups.append(p.setup_s)
        # a probe is one set-up in a fresh process; the lightest process is the guess
        probe_s = (statistics.median(setups) if setups
                   else min(q.wall_s for q in p.procs))
    while len(setups) < MIN_SETUPS or probe_s <= left():
        proc, res = wl.setup_probe(s)
        probes.append(proc)
        probe_s = proc.wall_s
        if res is None:
            break
        setups.append(res["setup_s"])
    return passes, setups, probes


def run_traced(wl: Workload, s: Session, seed: int, deadline: float,
               spans_dir: Path) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn until the next would overrun ``deadline``.

    At least one of each kind.  Returns (untraced, traced).
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    walls: dict[bool, float] = {}
    while True:
        tracing = len(traced) < len(plain)
        if plain and traced and time.monotonic() + walls[tracing] > deadline:
            break
        t = time.monotonic()
        k = len(plain) + len(traced)
        (traced if tracing else plain).append(
            wl.run_pass(s, seed, spans_dir if tracing else None, k))
        walls[tracing] = time.monotonic() - t
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # the run's preparation counts against its seconds, so a run takes about --seconds
    deadline = time.monotonic() + seconds
    wl = WORKLOADS[name]
    s = Session(name, wl.warm)
    try:
        wl.prepare(s)
        spans_dir = None
        if trace:
            spans_dir = BENCH / "out" / f"{name}-seed{seed}"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            plain, traced = run_traced(wl, s, seed, deadline, spans_dir)
            setups, probes = [], []
        else:
            plain, setups, probes = run_timed(wl, s, seed, deadline)
            traced = []
        passes = plain + traced
    finally:
        s.close()

    failures = [f for p in passes for f in p.failures]
    for proc in probes:
        failures += process_failures("setup probe", proc)
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        failures.append(f"outputs differ between passes of one seed: {digests}")
    attempted = sum(p.attempted for p in passes) + len(probes)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": len(plain), "traced_passes": len(traced),
              "digest": digests[0] if digests else None, "env": s.info,
              "failures": failures}
    if trace:
        table = median_functions(traced)
        (spans_dir / "layers.json").write_text(json.dumps(table, indent=1, sort_keys=True))
        detail["spans_dir"] = str(spans_dir.relative_to(ROOT))
        metrics = layer_metrics(plain, traced, table, s.info)
    else:
        stats = {
            "setup_s": describe(setups or [math.nan]),
            "work_s": describe([p.work_s for p in plain]),
            "process_p50_s": describe([q.wall_s for p in plain for q in p.procs]),
        }
        detail["stats"] = stats
        detail["work_s_per_pass"] = [p.work_s for p in plain]
        detail["setup_s_samples"] = setups
        metrics = {key: {"value": st["median"], "unit": "s"} for key, st in stats.items()}
        metrics["peak_rss_mb"] = {"value": max(q.rss_mb for p in plain for q in p.procs + probes),
                                  "unit": "MB"}
    result = {"correct": not failures, "attempted": max(attempted, 1),
              "failed": len(failures), "metrics": metrics}
    return {"detail": detail, "result": result}


def median_functions(traced: list[Pass]) -> dict:
    names = sorted({n for p in traced for n in p.summary["functions"]})
    return {n: {key: statistics.median(p.summary["functions"].get(n, {}).get(key, 0)
                                       for p in traced)
                for key in ("calls", "self_ms")} for n in names}


def layer_metrics(plain: list[Pass], traced: list[Pass], table: dict, info: dict) -> dict:
    out: dict[str, dict] = {}
    imports = [t for p in plain + traced for t in p.import_s]
    out["import.realflag_s"] = {"value": statistics.median(imports) if imports else 0.0,
                                "unit": "s"}
    for fn in LAYER_FUNCTIONS:
        row = table.get(fn, {"calls": 0, "self_ms": 0.0})
        out[f"{fn}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{fn}.self_ms"] = {"value": row["self_ms"], "unit": "ms"}
    cache = [p.cache_bytes for p in plain + traced if p.cache_bytes is not None]
    out["jordan.cache_bytes"] = {"value": cache[0] if cache else info.get("cache_bytes", 0),
                                 "unit": "bytes"}
    ratio = [p.summary["sampled"] / p.summary["verdicts"] if p.summary["verdicts"] else 0.0
             for p in traced]
    out["spherical.samples_per_verdict"] = {"value": statistics.median(ratio), "unit": "ratio"}
    out["proc.cpu_s"] = {"value": statistics.median(sum(q.cpu_s for q in p.procs)
                                                    for p in plain), "unit": "s"}
    out["proc.wall_s"] = {"value": statistics.median(sum(q.wall_s for q in p.procs)
                                                     for p in plain), "unit": "s"}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = {"value": statistics.median(p.command_s.get(cmd, 0.0)
                                                          for p in plain), "unit": "s"}
    out["trace.overhead_ratio"] = {
        "value": statistics.median(p.work_s for p in traced)
        / statistics.median(p.work_s for p in plain) - 1.0, "unit": "ratio"}
    return out


# Rows of the --workload all table: the per-workload meaning of each metric.
TABLE_COLUMNS = {
    "catalog-negatives": {"work_s": "sweep_s"},
    "catalog-positives": {"work_s": "sweep_s"},
    "cli-session": {"work_s": "cli_mix_s", "process_p50_s": "cli_p50_s"},
    "f4-cold": {"work_s": "verify_s"},
}


def print_table(rows: list[dict], trace: bool) -> None:
    if trace:
        names = list(rows[0]["result"]["metrics"])
        print(f"{'metric':44s}" + "".join(f"{r['detail']['workload']:>20s}" for r in rows))
        for m in names:
            unit = rows[0]["result"]["metrics"][m]["unit"]
            print(f"{m + ' [' + unit + ']':44s}"
                  + "".join(f"{r['result']['metrics'][m]['value']:20.4g}" for r in rows))
        return
    print(f"{'workload':18s} {'metric':13s} {'unit':5s} {'median':>10s} {'tail':>16s} "
          f"{'samples':>7s}")
    for r in rows:
        d, res = r["detail"], r["result"]
        for key, st in d["stats"].items():
            label = TABLE_COLUMNS[d["workload"]].get(key, key)
            tail = f"p{st['tail_pct']:g}={st['tail']:.4g}" if "tail" in st else "-"
            print(f"{d['workload']:18s} {label:13s} {'s':5s} {st['median']:10.4g} {tail:>16s} "
                  f"{st['samples']:7d}")
        rss = res["metrics"]["peak_rss_mb"]["value"]
        print(f"{d['workload']:18s} {'peak_rss_mb':13s} {'MB':5s} {rss:10.4g} {'-':>16s} "
              f"{'-':>7s}")
        print(f"{d['workload']:18s} {'failed_ratio':13s} {'1':5s} "
              f"{res['failed'] / res['attempted']:10.4g} {'-':>16s} {res['attempted']:7d}")
        print(f"{d['workload']:18s} digest {d['digest']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its running child and removes its session directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "realflag" / "__init__.py").is_file():
        print(f"realflag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for row in rows:
        for failure in row["detail"]["failures"]:
            print(f"FAIL {row['detail']['workload']}: {failure}", file=sys.stderr)
    if args.workload == "all":
        print_table(rows, bool(args.trace))
        return 0 if all(r["result"]["correct"] for r in rows) else 1
    print(json.dumps({"detail": rows[0]["detail"]}, sort_keys=True))
    print(json.dumps(rows[0]["result"]))
    return 0 if rows[0]["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
