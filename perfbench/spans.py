"""In-memory spans around calls into the realflag modules.

The program itself carries no instrumentation, so the benchmark wraps the
public functions and methods of each module from outside: every binding of a
wrapped function (``realflag.spherical.numeric_rank`` as well as
``realflag.linalg.numeric_rank``) is replaced, and methods are replaced on
their class.  A span records its name, start, end, parent span and run id;
spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "catalog", "spherical", "orbits", "reduction", "realforms",
           "jordan", "core", "linalg")

# Private functions that hold the f4 cold-build and cache costs; the public
# f4_bundle would otherwise absorb them as self time.
PRIVATE = {"jordan": ("_build_bundle", "_solve_der_w", "_save_bundle", "_load_bundle")}


class Tracer:
    """Collects spans of one process; ``spans`` rows are [name, start, end, parent]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()

        return traced

    def write(self, path: Path) -> None:
        """JSON lines: a header naming the run and the fields, then one row per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["name", "start", "end", "parent"]}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _traceable(obj, module_name: str) -> bool:
    return (getattr(obj, "__module__", None) == module_name
            and inspect.isfunction(inspect.unwrap(obj)))


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every realflag module, at every binding."""
    import realflag
    mods = {short: importlib.import_module(f"realflag.{short}") for short in MODULES}
    wrapped: dict[int, tuple[object, object]] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_methods(tracer, f"{short}.{attr}", obj)
            elif _traceable(obj, mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in (realflag, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _wrap_methods(tracer: Tracer, prefix: str, cls: type) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__)))
        elif isinstance(member, functools.cached_property):
            prop = functools.cached_property(tracer.wrap(name, member.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for cstart, cend in sorted(children.get(idx, ())):
            cstart, cend = max(cstart, reach), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                reach = cend
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict:
    """Per span name: ``calls`` and ``self_ms``; plus the sampling ratio inputs.

    ``sampled`` counts local_dim spans directly under an is_spherical span and
    ``verdicts`` the distinct is_spherical spans that evaluated a sample.
    """
    table: dict[str, dict] = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += self_s * 1e3
    parents = [spans[p][0] if p >= 0 else None for *_, p in spans]
    sampling = [spans[i][3] for i, (name, *_) in enumerate(spans)
                if name == "spherical.local_dim" and parents[i] == "spherical.is_spherical"]
    return {"functions": table, "sampled": len(sampling), "verdicts": len(set(sampling))}
