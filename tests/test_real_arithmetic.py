"""Guard: the package computes in real arithmetic only.

A matrix over C or H is a float array with one trailing component axis
(1, i or 1, i, j, k), as ``realforms.classical_basis`` writes it, and only
``realforms.realify`` turns such an array into real matrices.  So no module
writes an imaginary literal such as ``1j``, names a complex dtype, or reads
``.real`` or ``.imag``: a complex array would be a second way to write the
same matrices, and one that every real-valued kernel after it has to undo.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"
COMPLEX_ATTRS = {"real", "imag", "complex64", "complex128", "complex256", "complex_",
                 "cdouble", "csingle", "clongdouble"}
COMPLEX_DTYPE = re.compile(r"complex(64|128|256)?|c(8|16|32)")


def _complex_sites():
    """(file, line) of every imaginary literal, complex dtype, ``.real`` and ``.imag``."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant):
                found = (isinstance(node.value, complex)
                         or isinstance(node.value, str) and COMPLEX_DTYPE.fullmatch(node.value))
            elif isinstance(node, ast.Attribute):
                found = node.attr in COMPLEX_ATTRS
            elif isinstance(node, ast.Name):
                found = node.id == "complex"
            else:
                found = False
            if found:
                sites.append((path.name, node.lineno))
    return sorted(sites)


def test_no_complex_arithmetic():
    offenders = [f"{f}:{line}" for f, line in _complex_sites()]
    assert not offenders, ("write C and H entries on a component axis and call "
                           "realforms.realify: " + ", ".join(offenders))


def test_guard_sees_every_spelling(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("z = 1j\n")
    (tmp_path / "b.py").write_text("import numpy as np\n\nZ = np.zeros(3, dtype=complex)\n"
                                   "W = np.zeros(3, dtype=np.complex128)\n"
                                   "V = np.zeros(3).astype('complex')\n")
    (tmp_path / "c.py").write_text("a, b = Z.real, Z.imag\n")
    (tmp_path / "d.py").write_text('"""complex and quaternionic entries, realified."""\n\n'
                                   "x = complex_part_norm(w)\n"
                                   "y = jordan.complex_part_norm(w)\n"
                                   "X = np.zeros((3, 3, 2))\nre, im = X[..., 0], X[..., 1]\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _complex_sites() == [("a.py", 1), ("b.py", 3), ("b.py", 4), ("b.py", 5),
                                ("c.py", 1), ("c.py", 1)]
