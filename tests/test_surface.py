"""Every public module-level function and class of ``rwre`` has a caller.

A public ``def``/``class`` in ``src/rwre/`` (``__init__.py`` aside) must be
named somewhere in ``src/``, ``demos/`` or ``perfbench/`` outside its own
definition; code that only tests or ``__all__`` reach belongs in ``tests/``
or nowhere.  A name counts wherever it appears as a word, strings included,
because the benchmark's tracer wraps functions by their dotted names.
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


def callerless_names() -> list[str]:
    """Dotted names of public definitions named nowhere outside themselves."""
    sources = _sources()
    out = []
    for mod in sorted(PACKAGE.glob("*.py")):
        if mod.name == "__init__.py":
            continue
        lines = sources[mod].splitlines(keepends=True)
        for node in ast.parse(sources[mod]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if path == mod else text)
                       for path, text in sources.items()):
                out.append(f"{mod.stem}.{node.name}")
    return out


def test_every_public_definition_has_a_caller():
    names = callerless_names()
    assert not names, f"named only by their definition or by tests: {names}"
