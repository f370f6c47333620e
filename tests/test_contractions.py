"""Guard: contracting einsums stay out of the package.

A three-operand ``np.einsum`` without ``optimize`` is one nested C loop over
every index, orders of magnitude slower on f4 than the BLAS products that
replace it.  A two-operand one that sums over an index does not call BLAS
either: the Killing form as ``ilk,jkl->ij`` took 0.68 s on sp(1,8) against
0.05 s for one GEMM.  Row stacks contract through ``linalg.brackets``, a
single vector through ``LieAlgebra.ad``, conjugations through
``x @ mats @ xinv``; the sites below are the only ones allowed, each with the
reason it stays.  An einsum that sums nothing (a transpose, an outer product)
is free.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "realflag"

# (file, enclosing function, subscripts) -> reason
ALLOWED = {
    ("jordan.py", "qmul", "i,j,ijk->k"):
        "quaternion products that build the octonion table fingerprinted by _table_hash",
    ("jordan.py", "omul", "i,j,ijk->k"):
        "octonion product behind the cone points, whose bits it fixes",
    ("jordan.py", "_oct_matmul", "...ijqr,...jkq->...ikr"):
        "octonion matrix product behind the su(2,1) conjugations of the f4 cache, whose bits "
        "it fixes; 27 x 27 operands at most",
    ("jordan.py", "_build_bundle", "i,ijk->jk"):
        "the eight su(3) combinations of g2's 8 x 8 matrices, once per cold f4 build; their "
        "bits fix the cache",
    ("realforms.py", "realify_quaternion", "ijm,mlk->ikjl"):
        "one quaternionic matrix at a time against the 4 x 4 x 4 quaternion table; its bits "
        "fix the sp(p,q) matrices and so every sp row",
}


def _sums(subs: str) -> bool:
    """True when einsum subscripts sum over an index: one of the inputs missing from the
    output, or in implicit mode (no ``->``) a repeated one."""
    if subs == "<dynamic>":
        return True
    inputs, _, output = subs.replace("...", "").replace(" ", "").partition("->")
    letters = inputs.replace(",", "")
    if "->" not in subs:
        return len(set(letters)) < len(letters)
    return bool(set(letters) - set(output))


def _contracting(ops: int, subs: str) -> bool:
    return ops >= 3 or ops == 2 and _sums(subs)


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


def test_no_unlisted_contracting_einsum():
    offenders = [f"{f}:{line} {func} {subs!r}" for f, func, subs, ops, line in _einsum_calls()
                 if _contracting(ops, subs) and (f, func, subs) not in ALLOWED]
    assert not offenders, ("route these through linalg.brackets, LieAlgebra.ad or matmul: "
                           + ", ".join(offenders))


def test_allow_list_names_existing_sites():
    present = {(f, func, subs) for f, func, subs, ops, _ in _einsum_calls()
               if _contracting(ops, subs)}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


@pytest.mark.parametrize("subs, ops, expected", [
    ("ilk,jkl->ij", 2, True), ("i,ijk->kj", 2, True), ("...ij,...jk->...ik", 2, True),
    ("ij,jk", 2, True), ("i,j->ij", 2, False), ("ij,ij->ij", 2, False), ("ij,kl", 2, False),
    ("ijk->jik", 1, False), ("i,j,ijk->k", 3, True), ("<dynamic>", 2, True)])
def test_contracting_reads_the_subscripts(subs, ops, expected):
    assert _contracting(ops, subs) == expected


def test_guard_sees_a_three_operand_call(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\ndef f(a, b, c):\n    return np.einsum('i,j,ijk->k', a, b, c)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert [(f, func, ops) for f, func, _, ops, _ in _einsum_calls()] == [("mod.py", "f", 3)]

