"""Guard: multi-operand einsums stay out of the package.

A three-operand ``np.einsum`` without ``optimize`` is one nested C loop over
every index, orders of magnitude slower on f4 than the BLAS products that
replace it.  Structure-constant contractions go through ``linalg.brackets``
and conjugations through ``x @ mats @ xinv``; the sites below are the only
ones allowed, each with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"

# (file, enclosing function, subscripts) -> reason
ALLOWED = {
    ("jordan.py", "qmul", "i,j,ijk->k"):
        "quaternion products that build the octonion table fingerprinted by _table_hash",
    ("jordan.py", "omul", "i,j,ijk->k"):
        "octonion product behind the cone points, whose bits it fixes",
}


def _einsum_calls():
    """(file, enclosing function, subscripts, operand count, line) of every einsum call."""
    for path in sorted(SRC.glob("*.py")):
        stack = ["<module>"]

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "einsum" and node.args:
                    spec = node.args[0]
                    subs = spec.value if isinstance(spec, ast.Constant) else "<dynamic>"
                    calls.append((path.name, stack[-1], subs, len(node.args) - 1, node.lineno))
                self.generic_visit(node)

        calls = []
        Visitor().visit(ast.parse(path.read_text(), filename=str(path)))
        yield from calls


def test_no_unlisted_multi_operand_einsum():
    offenders = [f"{f}:{line} {func} {subs!r}" for f, func, subs, ops, line in _einsum_calls()
                 if ops >= 3 and (f, func, subs) not in ALLOWED]
    assert not offenders, "route these through linalg.brackets or matmul: " + ", ".join(offenders)


def test_allow_list_names_existing_sites():
    present = {(f, func, subs) for f, func, subs, ops, _ in _einsum_calls() if ops >= 3}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


def test_guard_sees_a_three_operand_call(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\ndef f(a, b, c):\n    return np.einsum('i,j,ijk->k', a, b, c)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert [(f, func, ops) for f, func, _, ops, _ in _einsum_calls()] == [("mod.py", "f", 3)]
