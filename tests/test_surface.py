"""Every public definition of ``rwre`` has a caller.

A public module-level ``def``/``class`` in ``src/rwre/`` (``__init__.py``
aside) must be named somewhere in ``src/``, ``demos/`` or ``perfbench/``
outside its own definition; code that only tests or ``__all__`` reach
belongs in ``tests/`` or nowhere.  A name counts wherever it appears as a
word in code or in a string literal, because the benchmark's tracer wraps
functions by their dotted names; a comment or a docstring naming it does
not count.  A public method or property of a class there (a
``def`` in its body) must be read as an attribute, an ``obj.name`` in the
code of the same sources outside its own definition; a docstring naming
it does not count.  Dataclass fields are no ``def`` and are exempt:
reports serialize them whole.
"""

import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre"


def _sources() -> dict[pathlib.Path, str]:
    return {p: p.read_text(encoding="utf-8")
            for d in ("src", "demos", "perfbench")
            for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"}


def _docstrings(tree) -> set[tuple[int, int]]:
    """Start positions of the docstrings of a module, its classes and its
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            out.add((node.body[0].lineno, node.body[0].col_offset))
    return out


# the text of an f-string is one STRING token before Python 3.12 and
# FSTRING_MIDDLE tokens from 3.12 on
WORD_TOKENS = {tokenize.NAME, tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.NAME)}


def _code_words(text: str, tree) -> list[tuple[int, str]]:
    """(line, text) of each name and string literal of a module, outside its
    comments and docstrings."""
    docs = _docstrings(tree)
    return [(tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in WORD_TOKENS and tok.start not in docs]


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
    words = {path: _code_words(text, trees[path]) for path, text in sources.items()}
    texts = {path: "\n".join(w for _, w in ws) for path, ws in words.items()}
    out = []
    for mod in sorted(PACKAGE.glob("*.py")):
        if mod.name == "__init__.py":
            continue
        for node in _public(trees[mod].body, (ast.FunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(w for line, w in words[mod]
                              if not first <= line <= node.end_lineno)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if path == mod else text)
                       for path, text in texts.items()):
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
