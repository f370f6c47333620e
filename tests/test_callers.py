"""Guard: every public function and class of the package has a caller.

A public module-level function or class in ``src/realflag`` must be read
somewhere in ``src/realflag``, ``scripts/`` or ``perfbench/`` (their test
files aside), outside its own definition.  Tests, ``__all__`` and the lazy
name map do not count: a name only they mention is code without a job.  The
names below are the only ones allowed without a caller, each with the reason
it stays.  Names match as written (a ``Name`` or an attribute of that name),
so the guard can miss an unused name but never flags a used one.
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
    "hprime_decomposition_check": "the paper's h in h' lemma, to be reported by "
                                  "`orbits coincide`, or deleted",
    "adapted_parabolic": "the parabolic that hprime_decomposition_check's docstring asks "
                         "for; it goes with that check",
}


def _public_definitions():
    """(file, name) of every public module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.name, node.name


def _referenced_names():
    """Every name read, outside the definition of that name in the same file."""
    for root in CALLERS:
        for path in sorted(root.glob("*.py")):
            if path.name.startswith("test_"):
                continue
            for top in ast.parse(path.read_text(), filename=str(path)).body:
                own = getattr(top, "name", None)
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name)
                            else node.attr if isinstance(node, ast.Attribute) else None)
                    if name is not None and name != own:
                        yield name


def _uncalled():
    """(file, name) of every public definition that nothing reads."""
    read = set(_referenced_names())
    return sorted((f, name) for f, name in _public_definitions() if name not in read)


def test_every_public_name_has_a_caller():
    offenders = [f"{f}:{name}" for f, name in _uncalled() if name not in ALLOWED]
    assert not offenders, "give these a caller outside tests, or delete them: " + ", ".join(
        offenders)


def test_allow_list_names_uncalled_definitions():
    # an allowed name that gained a caller, or went, leaves the list
    uncalled = {name for _, name in _uncalled()}
    assert set(ALLOWED) <= uncalled, set(ALLOWED) - uncalled


def test_guard_sees_an_uncalled_function(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return unused() + used()\n\n\n"
        "class Helper:\n    def make(self):\n        return Helper()\n\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "test_mod.py").write_text("from mod import unused, Helper\nunused()\nHelper()\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    monkeypatch.setitem(globals(), "CALLERS", (tmp_path,))
    assert _uncalled() == [("mod.py", "Helper"), ("mod.py", "unused")]
