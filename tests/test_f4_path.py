"""Guard: no code path pays for f4 unless it uses f4.

``jordan.f4_bundle`` loads (or solves and writes) the f4 cache.  Inside the
package only the f4 ambient (``realforms.get_algebra``), the f4 catalog
recipe (``catalog._f4_pair``) and ``realflag f4 verify`` (``cli.cmd_f4``) may
reach it, besides ``jordan`` itself; listing the catalog, looking up an entry
and every non-f4 pair stay clear of the cache.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"
ALLOWED = {("jordan.py", None), ("realforms.py", "get_algebra"),
           ("catalog.py", "_f4_pair"), ("cli.py", "cmd_f4")}


def _f4_bundle_sites(files):
    """(file, enclosing top-level function, line) of every reference to ``f4_bundle``
    outside ALLOWED; ``files`` yields (file name, source) pairs."""
    sites = []
    for name, source in files:
        for top in ast.parse(source).body:
            func = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if (name, None) in ALLOWED or (name, func) in ALLOWED:
                continue
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found = any(a.name.split(".")[-1] == "f4_bundle" for a in node.names)
                elif isinstance(node, ast.Attribute):
                    found = node.attr == "f4_bundle"
                elif isinstance(node, ast.Name):
                    found = node.id == "f4_bundle"
                else:
                    found = False
                if found:
                    sites.append((name, func, node.lineno))
    return sites


def test_f4_bundle_only_where_f4_is_used():
    files = [(p.name, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    assert _f4_bundle_sites(files) == []


def test_guard_catches_a_stray_call():
    stray = textwrap.dedent("""
        from .jordan import f4_bundle
        from . import jordan

        def _f4_pair(g, P, key):
            return f4_bundle()

        def catalog_entries(n_max=4):
            return jordan.f4_bundle().subalgebras
    """)
    assert _f4_bundle_sites([("catalog.py", stray)]) == [
        ("catalog.py", None, 2), ("catalog.py", "catalog_entries", 9)]
    assert _f4_bundle_sites([("jordan.py", stray)]) == []
