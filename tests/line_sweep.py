"""Lines of ``src/rwre/`` that the tier-1 suite never runs.

    python3 tests/line_sweep.py [pytest arguments]

runs pytest in this process (on ``tests/`` unless arguments are given)
under a ``sys.settrace`` line tracer that keeps only the frames of files
under ``src/rwre/``, then prints every line of those files that holds an
instruction and never ran, except the lines of ``ALLOWED``, each listed
there with the reason no tier-1 test reaches it, and each entry of
``ALLOWED`` that matched no such line.  It ends with the count of lines
left and exits 1 when there are any, or with pytest's exit code when a
test failed.  About three minutes on a 2-vCPU VM, twice the
suite's untraced time.

Only this process is traced: code that runs only in a child python (the
CLI's ``__main__``, c12's second pass, the UBSan kernel check) counts as
never run.  The tracer filters by file path and not by module name, as
``trace.Trace`` does: that caches its verdict per bare module name, so
once a ``stats.py`` elsewhere has been ignored, ``rwre/stats.py`` is too.
"""

from __future__ import annotations

import dis
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre"

# (file, function, the line's text without its indent) -> why tier-1
# never runs it
ALLOWED = {
    ("_kernel.py", "_check",
     'raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "'):
        "a Loop is only built from the engines' own arrays, which pass",
    ("_kernel.py", "_check", 'f"array of shape {shape}")'):
        "the same raise",
    ("_kernel.py", "_cache_dir", "except OSError:"):
        "a cache directory that cannot be made: the host's file system",
    ("_kernel.py", "_cache_dir", "continue"):
        "the same fall-through to the next cache directory",
    ("_kernel.py", "_cache_dir", 'raise OSError("no writable cache directory")'):
        "no writable home or temporary directory: the host's file system",
    ("_kernel.py", "build", "except subprocess.CalledProcessError as exc:"):
        "gcc failing on the kernel source: the host's compiler",
    ("_kernel.py", "build",
     'raise OSError(f"{cc} failed: {exc.stderr.strip()[-500:]}") from exc'):
        "the same gcc failure",
    ("acceptance.py", "crit10_path_bundles", "except AssertionError:"):
        "a c10 path bundle that breaks its bound: c10 passes at every seed tried",
    ("acceptance.py", "crit10_path_bundles", "failures += 1"):
        "the same c10 failure",
    ("acceptance.py", "run_all", "except BaseException:"):
        "c12's first pass raising while its child runs: a failing criterion",
    ("acceptance.py", "run_all", "child.kill()"):
        "the same c12 failure",
    ("acceptance.py", "run_all", "child.communicate()"):
        "the same c12 failure",
    ("acceptance.py", "run_all", "raise"):
        "the same c12 failure",
    ("regeneration.py", "_first_below",
     'raise AssertionError("no element below cutoff; caller must guarantee one")'):
        "an internal invariant: the ladder recursion only asks for a drop it has seen",
    ("cli.py", "<module>", "sys.exit(main())"):
        "`python -m rwre.cli` runs in a child python, which is not traced",
}


def _codes(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _codes(const)


def executable_lines(path: pathlib.Path) -> dict[int, str]:
    """The lines of a source file where an instruction starts, each with
    the name of the innermost function (or class, or ``<module>``) it lies
    in."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    # a nested code object comes after its parent and overrides it
    return {line: c.co_name for c in _codes(code)
            for _, line in dis.findlinestarts(c) if line}


def _run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs of ``src/rwre/`` it ran."""
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()
    keep: dict = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        kept = keep.get(code)
        if kept is None:
            kept = keep[code] = str(pathlib.Path(code.co_filename).resolve()).startswith(prefix)
        return local if kept else None

    import pytest
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(str(pathlib.Path(f).resolve()), n) for f, n in ran}


def main(argv: list[str]) -> int:
    # rwre is imported under the tracer, so its module bodies count as run
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = _run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    left, allowed = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        where = executable_lines(path)
        for n in sorted(where.keys() - {n for f, n in ran if f == str(path)}):
            key = (path.name, where[n], lines[n - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                print(f"{path.relative_to(ROOT)}:{n}: {key[2]}")
                left += 1
    for key in ALLOWED.keys() - allowed:
        print(f"allowlisted but not found among the lines never run: {key}")
    print(f"{left} line(s) of src/rwre never ran outside the allowlist")
    if code:
        print(f"pytest exited with {code}: the count covers a failing run")
        return code
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
