"""Guard: one group path, cut at the grading's depth, no scipy, and lazy imports.

Every group element the package builds is a word of ad-nilpotent rows (n̄
samples and Weyl reflections written as root-vector triples), and
``LieAlgebra.ad_group(word, rows, depth)`` applies Ad(exp X_1 ... exp X_k) =
exp(ad X_1) ... exp(ad X_k) to a block of rows, each factor the terminating
series (ad X)^k / k!.  No module needs a general matrix exponential, and one
would bring back a second group path (exponentiate a realization matrix, then
conjugate and project), so no module defines, imports or uses ``expm`` or
``_expm``.  Every ``ad_group`` call in the package passes the ``depth`` of
its parabolic's restricted roots, positionally after the rows or by keyword,
so no caller falls back to the ``dim``-term series.  The package depends on
numpy alone: no module imports scipy, so no process pays for loading it.
Fresh interpreters take an import census: a warm f4 load and a pair-file load
leave ``numpy.ma`` unloaded, and the package and a ``check`` load neither
``jordan`` nor ``orbits`` and ``reduction`` until a name from them is used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from realflag.core import save_algebra

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"
EXPM_NAMES = {"expm", "_expm"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _expm_sites():
    """(file, line) of every definition, import or use of a name in EXPM_NAMES."""
    sites = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found = any(a.name.split(".")[-1] in EXPM_NAMES for a in node.names)
            elif isinstance(node, ast.FunctionDef):
                found = node.name in EXPM_NAMES
            elif isinstance(node, ast.Attribute):
                found = node.attr in EXPM_NAMES
            elif isinstance(node, ast.Name):
                found = node.id in EXPM_NAMES
            else:
                found = False
            if found:
                sites.append((name, node.lineno))
    return sites


def _scipy_imports():
    """(file, line) of every ``import scipy...`` and ``from scipy... import``."""
    sites = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                sites.append((name, node.lineno))
    return sites


def _ad_group_calls_without_depth():
    """(file, line) of every ``ad_group(word, rows, depth)`` call that passes no ``depth``."""
    sites = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "ad_group" and len(node.args) < 3
                    and not any(k.arg == "depth" for k in node.keywords)):
                sites.append((name, node.lineno))
    return sites


def test_no_matrix_exponential():
    offenders = [f"{f}:{line}" for f, line in _expm_sites()]
    assert not offenders, "compute group actions with LieAlgebra.ad_group: " + ", ".join(offenders)


def test_no_scipy_import():
    offenders = [f"{f}:{line}" for f, line in _scipy_imports()]
    assert not offenders, "the package depends on numpy alone: " + ", ".join(offenders)


def test_guard_sees_both_spellings(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("from scipy.linalg import expm\n")
    (tmp_path / "b.py").write_text("import scipy.linalg\n\nx = scipy.linalg.expm\n")
    (tmp_path / "c.py").write_text("import numpy as np\n\nx = np.exp(1.0)\n")
    (tmp_path / "d.py").write_text("def _expm(A):\n    return A\n\n\ny = _expm(0)\n")
    (tmp_path / "e.py").write_text("import numpy\nfrom . import scipy_free\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _expm_sites() == [("a.py", 1), ("b.py", 3), ("d.py", 1), ("d.py", 5)]
    assert _scipy_imports() == [("a.py", 1), ("b.py", 1)]


def test_every_ad_group_call_passes_depth():
    offenders = [f"{f}:{line}" for f, line in _ad_group_calls_without_depth()]
    assert not offenders, "pass depth=P.roots.depth to ad_group: " + ", ".join(offenders)


def test_depth_guard_sees_a_bare_call(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("ad = g.ad_group(word)\n")
    (tmp_path / "b.py").write_text("ad = g.ad_group(word, rows, depth=P.roots.depth)\n"
                                   "ad = g.ad_group(word, rows, 5)\n"
                                   "ad = g.ad_group(word, depth=5, rows=rows)\n")
    (tmp_path / "c.py").write_text("def ad_group(word, rows, depth=None):\n    return word\n\n\n"
                                   "ad = L.ad_group(np.zeros((0, 3)), np.eye(3))\n")
    (tmp_path / "d.py").write_text("moved = g.ad_group(word, h.basis)\n"
                                   "moved = g.ad_group(word, rows=h.basis)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _ad_group_calls_without_depth() == [("a.py", 1), ("c.py", 5), ("d.py", 1),
                                               ("d.py", 2)]


def _fresh_stdout(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this tree's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _fresh_stdout("import sys, realflag.cli, realflag.jordan\n"
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
                         ) == "[]"


def test_package_import_loads_no_jordan():
    # the jordan names are served on first use; hashlib comes in only with jordan
    assert _fresh_stdout("import sys, realflag.cli\n"
                         "print('realflag.jordan' in sys.modules, 'hashlib' in sys.modules)\n"
                         "from realflag import build_g2\n"
                         "print(build_g2.__module__)") == "False False\nrealflag.jordan"


def test_g2_build_loads_no_numpy_ma():
    # np.unique without return_inverse imports numpy.ma; the derivation solve avoids it
    assert _fresh_stdout("import sys\nfrom realflag.jordan import build_g2\nbuild_g2()\n"
                         "print('numpy.ma' in sys.modules)") == "False"


def test_warm_f4_load_loads_no_numpy_ma(f4bundle):
    # the fixture leaves a sound cache behind, so a cold build (which would fail) never runs;
    # from_entries sorts for its duplicate check, where np.unique would import numpy.ma
    assert _fresh_stdout("import sys\nfrom realflag import jordan\n"
                         "jordan._build_bundle = None\njordan.f4_bundle()\n"
                         "print('numpy.ma' in sys.modules)") == "False"


def test_pair_file_load_loads_no_numpy_ma(so14, tmp_path):
    path = tmp_path / "so14.json"
    save_algebra(so14, path)
    assert _fresh_stdout(f"import sys\nfrom realflag.core import load_algebra\n"
                         f"print(load_algebra({str(path)!r}).dim, 'numpy.ma' in sys.modules)"
                         ) == "10 False"


def test_check_loads_no_orbits_or_reduction():
    assert _fresh_stdout("import contextlib, io, sys\nimport realflag.cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    code = realflag.cli.main(['check', '--pair', 'sl2:a', '--json'])\n"
                         "print(code, [m for m in ('realflag.orbits', 'realflag.reduction')\n"
                         "             if m in sys.modules])") == "0 []"


def test_package_serves_orbits_and_reduction_names_on_first_use():
    assert _fresh_stdout("import sys, realflag\n"
                         "print([m for m in ('realflag.orbits', 'realflag.reduction')\n"
                         "       if m in sys.modules])\n"
                         "from realflag import orbit_dim_at, parabolic_alpha, induced_pair\n"
                         "from realflag import orbits, reduction\n"
                         "print(orbit_dim_at is orbits.orbit_dim_at,\n"
                         "      parabolic_alpha is reduction.parabolic_alpha,\n"
                         "      induced_pair is reduction.induced_pair)") == "[]\nTrue True True"


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone fails here, not in a user's import *
    import realflag
    missing = [name for name in realflag.__all__ if not hasattr(realflag, name)]
    assert not missing, "realflag.__all__ lists undefined names: " + ", ".join(missing)
    assert set(realflag._LAZY_NAMES) <= set(realflag.__all__)
