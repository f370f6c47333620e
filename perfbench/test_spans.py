"""Tests of the benchmark's span bookkeeping: ``python -m pytest perfbench``."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    rows = [
        ["outer", 0.0, 10.0, -1],
        ["child", 1.0, 3.0, 0],
        ["child", 4.0, 6.0, 0],
        ["grandchild", 4.5, 5.0, 2],
    ]
    assert spans.self_times(rows) == [6.0, 2.0, 1.5, 0.5]
    table = spans.summarize(rows)["functions"]
    assert table["child"] == {"calls": 2, "self_ms": 3500.0}


def test_wrapped_calls_nest(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer("t")
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.spans == [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0]]
    assert spans.self_times(tracer.spans) == [4.0, 1.0]


def test_install_patches_every_binding(tmp_path):
    # a child process, so the patched modules never reach other tests
    script = """
import json, sys
import spans
tracer = spans.Tracer("t")
spans.install(tracer)
from realflag import get_algebra, minimal_parabolic, subalgebra
from realflag.spherical import is_spherical, numeric_rank
g = get_algebra("sl2")
P = minimal_parabolic(g)
rep = is_spherical(g, subalgebra(g, P.roots.a), P, samples=3, seed=0)
fns = spans.summarize(tracer.spans)["functions"]
print(json.dumps({"samples": len(rep.per_sample_dims), "wrapped": hasattr(numeric_rank, "__wrapped__"),
                  "calls": {k: v["calls"] for k, v in fns.items()}}))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), str(BENCH.parent / "src")]),
           "REALFLAG_CACHE_DIR": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    res = json.loads(out.splitlines()[-1])
    assert res["wrapped"]
    assert res["calls"]["spherical.local_dim"] == res["samples"]
    assert res["calls"]["linalg.numeric_rank"] >= res["samples"]
    assert res["calls"]["core.LieAlgebra.ad_group"] >= res["samples"]
