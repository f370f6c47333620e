"""Guard: group elements have one representation, the word.

``LieAlgebra.ad_group`` computes Ad(exp X_1 ... exp X_k) as
expm(ad X_1) ... expm(ad X_k) in ``core``.  A matrix exponential anywhere
else in the package would bring back a second, realization-space group path
(exponentiate a realization matrix, then conjugate and project), so
``scipy.linalg.expm`` may be imported and used only in ``core.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"
ALLOWED_FILE = "core.py"


def _expm_sites():
    """(file, line) of every import of expm and every ``<module>.expm`` attribute."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "expm" for a in node.names):
                sites.append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "expm":
                sites.append((path.name, node.lineno))
    return sites


def test_expm_only_in_core():
    offenders = [f"{f}:{line}" for f, line in _expm_sites() if f != ALLOWED_FILE]
    assert not offenders, "compute group actions with LieAlgebra.ad_group: " + ", ".join(offenders)


def test_core_still_exponentiates():
    assert any(f == ALLOWED_FILE for f, _ in _expm_sites())


def test_guard_sees_both_spellings(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("from scipy.linalg import expm\n")
    (tmp_path / "b.py").write_text("import scipy.linalg\n\nx = scipy.linalg.expm\n")
    (tmp_path / "c.py").write_text("import numpy as np\n\nx = np.exp(1.0)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _expm_sites() == [("a.py", 1), ("b.py", 3)]
