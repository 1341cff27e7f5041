"""Every public definition of ``rwre`` has a caller.

A public module-level ``def``/``class`` in ``src/rwre/`` (``__init__.py``
aside) must be named somewhere in ``src/``, ``demos/`` or ``perfbench/``
outside its own definition; code that only tests or ``__all__`` reach
belongs in ``tests/`` or nowhere.  A name counts wherever it appears as a
word, strings included, because the benchmark's tracer wraps functions by
their dotted names.  A public method or property of a class there (a
``def`` in its body) must be read as an attribute, an ``obj.name`` in the
code of the same sources outside its own definition; a docstring naming
it does not count.  Dataclass fields are no ``def`` and are exempt:
reports serialize them whole.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre"


def _sources() -> dict[pathlib.Path, str]:
    return {p: p.read_text(encoding="utf-8")
            for d in ("src", "demos", "perfbench")
            for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"}


def _public(body, kinds):
    return [n for n in body if isinstance(n, kinds) and not n.name.startswith("_")]


def _attribute_lines(tree) -> dict[str, list[int]]:
    """Line numbers of each attribute name read in a module's code."""
    out: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.setdefault(node.attr, []).append(node.lineno)
    return out


def callerless_names() -> list[str]:
    """Dotted names of public definitions used nowhere outside themselves."""
    sources = _sources()
    trees = {path: ast.parse(text) for path, text in sources.items()}
    attrs = {path: _attribute_lines(tree) for path, tree in trees.items()}
    out = []
    for mod in sorted(PACKAGE.glob("*.py")):
        if mod.name == "__init__.py":
            continue
        lines = sources[mod].splitlines(keepends=True)
        for node in _public(trees[mod].body, (ast.FunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if path == mod else text)
                       for path, text in sources.items()):
                out.append(f"{mod.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in _public(node.body, ast.FunctionDef):
                first = min([meth.lineno] + [d.lineno for d in meth.decorator_list])
                if not any(path != mod or not first <= n <= meth.end_lineno
                           for path in sources
                           for n in attrs[path].get(meth.name, ())):
                    out.append(f"{mod.stem}.{node.name}.{meth.name}")
    return out


def test_every_public_definition_has_a_caller():
    names = callerless_names()
    assert not names, f"used only by their definition or by tests: {names}"
