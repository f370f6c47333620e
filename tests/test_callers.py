"""Guard: every public function and class of the package has a caller.

A public module-level function or class in ``src/realflag`` must be read
somewhere in ``src/realflag``, ``scripts/`` or ``perfbench/`` (their test
files aside), outside its own definition.  Tests, ``__all__`` and the lazy
name map do not count: a name only they mention is code without a job.  Nor
does a read inside a definition that is itself unread, or allowed below: the
check drops those definitions and repeats until no more drop out, so a helper
that only dead code calls is dead too.  The names below are the only ones
allowed without a caller, each with the reason it stays.  Names match as
written (a ``Name`` or an attribute of that name), and definitions that only
call each other in a cycle keep each other, so the guard can miss an unused
name but never flags a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "realflag"
CALLERS = (SRC, ROOT / "scripts", ROOT / "perfbench")

# name -> reason
ALLOWED = {
    "bruhat_cell_of": "the rank-one Bruhat cell test; the Bruhat decomposition in every rank "
                      "is to generalise it and give it a caller, or delete it",
}


def _reads(node, own=None):
    """Every name read inside ``node``, except ``own``."""
    for sub in ast.walk(node):
        name = (sub.id if isinstance(sub, ast.Name)
                else sub.attr if isinstance(sub, ast.Attribute) else None)
        if name is not None and name != own:
            yield name


def _scan():
    """The names read inside each module-level function and class of the caller files, by
    (path, name), and the names read by the rest of their module-level code."""
    defs, top = {}, set()
    for root in CALLERS:
        for path in sorted(root.glob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs[path, node.name] = set(_reads(node, node.name))
                else:
                    top.update(_reads(node))
    return defs, top


def _uncalled():
    """(file, name) of every public definition in ``SRC`` that nothing reads, outside the
    definitions that are unread themselves or allowed."""
    defs, top = _scan()
    unread = set()
    while True:
        read = top.union(*(names for key, names in defs.items()
                           if key not in unread and key[1] not in ALLOWED))
        now = {key for key in defs if key[1] not in read}
        if now == unread:
            return sorted((path.name, name) for path, name in unread
                          if path.parent == SRC and not name.startswith("_"))
        unread = now


def test_every_public_name_has_a_caller():
    offenders = [f"{f}:{name}" for f, name in _uncalled() if name not in ALLOWED]
    assert not offenders, "give these a caller outside tests, or delete them: " + ", ".join(
        offenders)


def test_allow_list_names_uncalled_definitions():
    # an allowed name that gained a caller, or went, leaves the list
    uncalled = {name for _, name in _uncalled()}
    assert set(ALLOWED) <= uncalled, set(ALLOWED) - uncalled


def _guard_on(tmp_path, monkeypatch, source, allowed=()):
    (tmp_path / "mod.py").write_text(source)
    (tmp_path / "test_mod.py").write_text("from mod import *\nunused()\nouter()\nHelper()\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    monkeypatch.setitem(globals(), "CALLERS", (tmp_path,))
    monkeypatch.setitem(globals(), "ALLOWED", dict.fromkeys(allowed, "reason"))
    return _uncalled()


def test_guard_sees_an_uncalled_function(tmp_path, monkeypatch):
    assert _guard_on(tmp_path, monkeypatch,
                     "def used():\n    return 1\n\n\nVALUE = used()\n\n\n"
                     "def unused():\n    return unused() + used()\n\n\n"
                     "class Helper:\n    def make(self):\n        return Helper()\n\n\n"
                     "def _private():\n    pass\n") == [("mod.py", "Helper"), ("mod.py", "unused")]


CHAIN = ("def outer():\n    return inner()\n\n\n"
         "def inner():\n    return _helper()\n\n\n"
         "def _helper():\n    return leaf()\n\n\n"
         "def leaf():\n    return 1\n")


def test_guard_follows_a_chain_of_uncalled_functions(tmp_path, monkeypatch):
    # inner is read only by outer, which nothing reads; leaf only by a private helper of inner
    assert _guard_on(tmp_path, monkeypatch, CHAIN) == [
        ("mod.py", "inner"), ("mod.py", "leaf"), ("mod.py", "outer")]


def test_guard_drops_what_an_allowed_function_reads(tmp_path, monkeypatch):
    assert _guard_on(tmp_path, monkeypatch, CHAIN, allowed=["outer"]) == [
        ("mod.py", "inner"), ("mod.py", "leaf"), ("mod.py", "outer")]
    # a caller that is read itself keeps the chain alive
    assert _guard_on(tmp_path, monkeypatch, CHAIN + "\n\nouter()\n") == []
