"""Width sweep of the walk hot path, for the traced run.

``run_fixed_batch`` walker-steps/s for the four closed-form laws, and the
rows/s of each layer the Expl step goes through, at batch widths
W = 1, 200 and 10^4.  The program is called untraced here; the sweep times
itself.  ``ROADMAP_BASELINE`` holds the figures ROADMAP.md recorded before
any optimisation, printed beside the sweep so a reader can compare.
"""

from __future__ import annotations

import time

import numpy as np

from rwre import criteria, environment, rng, walk

WIDTHS = (1, 200, 10_000)
LAWS = ("UniformDrift", "Expl", "TrapSym", "TrapTransient")
COMPONENTS = ("site_keys_from_base", "stream_uniforms", "pvecs_from_uniforms",
              "normalize_rows")
# Walker-steps per timing at each width: about 50 ms at the baseline rates.
STEPS = {1: 400, 200: 250, 10_000: 8}
COMPONENT_SECONDS = 0.02

# ROADMAP.md baseline, walker-steps/s of run_fixed_batch in d = 2.
ROADMAP_BASELINE = {
    "UniformDrift": "W=100 2.0M, W=1000 7.2M, W=10^4 10.1M",
    "Expl": "W=1 9.2k, W=100 0.62M, W=200 1.12M, W=1000 2.70M, W=10^4 4.64M",
    "TrapSym": "not recorded",
    "TrapTransient": "per-walker: W=100 0.57M, W=1000 2.83M, W=10^4 4.98M",
}
ROADMAP_PROFILE = ("Expl at W=100: mix64_np + stream_uniforms ~45 %, "
                   "pvecs_from_uniforms ~23 %, normalize_rows ~17 % of a step")


def metric_names() -> list[tuple[str, str]]:
    names = [(f"sweep.{law}.W{w}.walker_steps_per_s", "1/s")
             for law in LAWS for w in WIDTHS]
    names += [(f"sweep.Expl.{c}.W{w}.rows_per_s", "1/s")
              for c in COMPONENTS for w in WIDTHS]
    return names


def _field(law_name: str, width: int, seed: int):
    key = rng.derive_key(seed, "sweep", law_name)
    if law_name == "TrapTransient":
        seeds = np.array([rng.derive_key(key, i) for i in range(width)],
                         dtype=np.uint64)
        return criteria.MultiSeedEnvironment(environment.TrapTransient(1), seeds)
    law = {"UniformDrift": environment.UniformDrift(2),
           "Expl": environment.Expl(2, 0.2),
           "TrapSym": environment.TrapSym(2)}[law_name]
    return environment.Environment(law, key)


def _rate(fn, rows: int) -> float:
    """Rows per second of ``fn``, repeated for at least COMPONENT_SECONDS."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= COMPONENT_SECONDS:
            return rows * reps / elapsed


def run(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for law_name in LAWS:
        for w in WIDTHS:
            env = _field(law_name, w, seed)
            keys = walk.walk_keys(rng.derive_key(seed, "sweep_walks", law_name), w)
            start = np.zeros(env.dim, dtype=np.int64)
            t0 = time.perf_counter()
            walk.run_fixed_batch(env, start, STEPS[w], keys)
            elapsed = time.perf_counter() - t0
            out[f"sweep.{law_name}.W{w}.walker_steps_per_s"] = w * STEPS[w] / elapsed
    law = environment.Expl(2, 0.2)
    base = rng.base_key(seed, rng.string_tag(law.tag))
    for w in WIDTHS:
        u = rng.stream_uniform_block(rng.derive_key(seed, "sweep_sites", w), 2 * w)
        X = (np.floor(u * 2000.0) - 1000.0).astype(np.int64).reshape(w, 2)
        keys = rng.site_keys_from_base(base, X)
        U = np.column_stack([rng.stream_uniforms(keys, j) for j in range(law.nvars)])
        P = law.pvecs_from_uniforms(U)
        calls = {"site_keys_from_base": lambda: rng.site_keys_from_base(base, X),
                 "stream_uniforms": lambda: rng.stream_uniforms(keys, 0),
                 "pvecs_from_uniforms": lambda: law.pvecs_from_uniforms(U),
                 "normalize_rows": lambda: environment.normalize_rows(P)}
        for c in COMPONENTS:
            out[f"sweep.Expl.{c}.W{w}.rows_per_s"] = _rate(calls[c], w)
    return out


def report_lines(metrics: dict[str, float]) -> list[str]:
    """Human-readable sweep table with the ROADMAP baseline beside it."""
    lines = ["width sweep, run_fixed_batch walker-steps/s (d=2 lattice):"]
    for law in LAWS:
        row = "  ".join(f"W={w}: {metrics[f'sweep.{law}.W{w}.walker_steps_per_s']:.3g}"
                        for w in WIDTHS)
        lines.append(f"  {law:13s} {row}   | ROADMAP: {ROADMAP_BASELINE[law]}")
    lines.append("Expl layer rates, rows/s:")
    for c in COMPONENTS:
        row = "  ".join(f"W={w}: {metrics[f'sweep.Expl.{c}.W{w}.rows_per_s']:.3g}"
                        for w in WIDTHS)
        lines.append(f"  {c:20s} {row}")
    lines.append(f"  ROADMAP profile: {ROADMAP_PROFILE}")
    return lines
