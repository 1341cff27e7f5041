"""Golden SHA-256 digests of the fixed-seed artifacts.

The digests pin the bytes of the 13 seed-42 acceptance ``run1/`` files and
of the small fixed-seed CLI outputs of ``CLI_RUNS``.  They live in
``golden_digests.json`` under a platform key, (machine, numpy, scipy),
because those decide the floating-point results; each entry lists the
numpy SIMD signatures on which its digests were verified.  A platform with
no entry is skipped, with a message that names its key.

Re-record the entry of this platform with

    python3 tests/golden.py --write

which runs the acceptance criteria once and the CLI commands below.  When
the digests are unchanged the SIMD signature is added to the entry; when
they moved, the entry is replaced and lists only this signature.  It prints
the ``run1`` and ``cli`` files whose digests moved, or that none did.

    python3 tests/golden.py --numpy-path

makes the same runs with the compiled step kernel switched off, so that
every walk steps with numpy, and checks them against this platform's
entry.  It prints the wall time of the acceptance criteria and of the CLI
runs: about 70 s in all, most of it c2's walk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
ACCEPTANCE_SEED = 42

# output file name -> `rwre` arguments that write it (with --out)
CLI_RUNS = {
    "paths.csv": ["paths", "--law", "expl", "--d", "2", "--eps", "0.2",
                  "--seed", "7", "--replicates", "50"],
    # d = 3: eight corner paths per bundle
    "paths_d3.csv": ["paths", "--law", "expl", "--d", "3", "--eps", "0.2",
                     "--seed", "7", "--replicates", "30", "--n", "7"],
    "hypercube.csv": ["hypercube", "--law", "trap_sym", "--d", "2", "--seed", "7",
                      "--replicates", "200", "--moments", "3"],
    "criterion_ktilde1.json": ["criteria", "--criterion", "ktilde1", "--law", "expl",
                               "--d", "2", "--eps", "0.2", "--seed", "7",
                               "--replicates", "2000"],
    "criterion_slab.json": ["criteria", "--criterion", "slab", "--law", "expl",
                            "--d", "2", "--eps", "0.2", "--seed", "7"],
    # with the config of CLI_CONFIGS
    "criterion_slab_direct.json": ["criteria", "--criterion", "slab", "--law", "expl",
                                   "--d", "2", "--eps", "0.2", "--seed", "7"],
    "criterion_pm.json": ["criteria", "--criterion", "pm", "--law", "uniform",
                          "--d", "2", "--seed", "7", "--replicates", "500"],
    # also writes walk.csv.traj.csv
    "walk.csv": ["walk", "--law", "expl", "--d", "2", "--eps", "0.2", "--seed", "7",
                 "--steps", "200", "--walks", "5", "--dump-trajectory"],
    # also writes regen.csv.velocity.json
    "regen.csv": ["regen", "--law", "expl", "--d", "2", "--eps", "0.2", "--seed", "7",
                  "--steps", "10000", "--walks", "2"],
}

# output file name -> JSON config passed with --config (no flag sets these)
CLI_CONFIGS = {
    "criterion_slab_direct.json": {"estimator": "direct", "L_grid": [2, 4, 6]},
}


def platform_key() -> str:
    import numpy
    import scipy
    return (f"{platform.machine()}-numpy{numpy.__version__}"
            f"-scipy{scipy.__version__}")


def simd_signature() -> str:
    """The numpy SIMD dispatch targets this CPU enables, joined by '-'."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return "unknown"
    return "-".join(sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))


def digest_files(directory) -> dict[str, str]:
    """SHA-256 of every file in ``directory``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pathlib.Path(directory).iterdir()) if p.is_file()}


def run_cli(outdir) -> dict[str, str]:
    """Run each of ``CLI_RUNS`` into ``outdir`` and digest the outputs."""
    from rwre import cli
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cfgdir:
        for name, args in CLI_RUNS.items():
            if name in CLI_CONFIGS:
                cfg = pathlib.Path(cfgdir) / f"{name}.config.json"
                cfg.write_text(json.dumps(CLI_CONFIGS[name]), encoding="utf-8")
                args = args + ["--config", str(cfg)]
            code = cli.main(args + ["--out", str(outdir / name)])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"rwre {' '.join(args)} exited with {code}")
    return digest_files(outdir)


def _load() -> dict:
    if not DIGESTS.exists():
        return {"acceptance_seed": ACCEPTANCE_SEED, "platforms": {}}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def entry_or_skip() -> dict:
    """This platform's digests; skips the calling test when there are none."""
    import pytest
    entry = _load()["platforms"].get(platform_key())
    if entry is None:
        pytest.skip(f"no golden digests for platform {platform_key()}; "
                    "record them with python3 tests/golden.py --write")
    return entry


def moved(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The file names whose digests differ between ``got`` and ``want``."""
    return sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))


def assert_digests(got: dict[str, str], entry: dict, section: str) -> None:
    """Fail with the moved file names when ``got`` differs from the entry."""
    moved_files = moved(got, entry[section])
    assert not moved_files, (
        f"{section} bytes moved on {platform_key()} (SIMD {simd_signature()}; "
        f"digests verified on {entry['simd_verified']}): {moved_files}. If the move "
        "is intended, re-record with python3 tests/golden.py --write")


def digest_runs() -> tuple[dict[str, dict[str, str]], dict[str, float]]:
    """Digests of the seed-42 acceptance ``run1/`` files and of ``CLI_RUNS``,
    and the wall seconds that each of the two sections took."""
    from rwre import acceptance
    with tempfile.TemporaryDirectory() as tmp:
        run1 = pathlib.Path(tmp) / "run1"
        t0 = time.perf_counter()
        acceptance.run_criteria(ACCEPTANCE_SEED, str(run1))
        t1 = time.perf_counter()
        cli = run_cli(pathlib.Path(tmp) / "cli")
        t2 = time.perf_counter()
        return {"run1": digest_files(run1), "cli": cli}, {"run1": t1 - t0, "cli": t2 - t1}


def check_numpy_path() -> None:
    """Fail unless the runs of :func:`digest_runs`, stepped with numpy alone,
    give this platform's digests; prints their wall time."""
    from rwre import _kernel
    entry = _load()["platforms"].get(platform_key())
    if entry is None:
        raise AssertionError(f"no golden digests for platform {platform_key()}")
    loop, _kernel.loop = _kernel.loop, lambda *a: None
    try:
        got, seconds = digest_runs()
    finally:
        _kernel.loop = loop
    print(f"numpy path: run1 criteria {seconds['run1']:.1f} s, "
          f"CLI runs {seconds['cli']:.1f} s")
    for section in ("run1", "cli"):
        assert_digests(got[section], entry, section)


def write() -> tuple[dict, list[str]]:
    """Record this platform's digests into ``golden_digests.json``; returns
    the entry and the moved files as ``section/name``."""
    entry, _ = digest_runs()
    doc = _load()
    old = doc["platforms"].get(platform_key())
    moved_files = [f"{s}/{n}" for s in ("run1", "cli")
                   for n in moved(entry[s], old[s] if old else {})]
    signatures = {simd_signature()}
    if old is not None and not moved_files:
        signatures |= set(old["simd_verified"])
    entry["simd_verified"] = sorted(signatures)
    doc["platforms"][platform_key()] = entry
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return entry, moved_files


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="re-record this platform's digests")
    mode.add_argument("--numpy-path", action="store_true",
                      help="check this platform's digests with every walk "
                           "stepped by numpy (about 70 s)")
    if p.parse_args(argv).numpy_path:
        try:
            check_numpy_path()
        except AssertionError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"{platform_key()}: run1 and CLI digests equal on the numpy path")
        return 0
    entry, moved_files = write()
    print(f"{platform_key()}: {len(entry['run1'])} run1 and {len(entry['cli'])} "
          f"CLI digests, verified on {entry['simd_verified']} -> {DIGESTS}")
    print("moved: " + ", ".join(moved_files) if moved_files else "no digest moved")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
