#!/usr/bin/env python3
"""Live-check self-test: every benchmark check must catch a perturbed output.

Runs each workload twice at smoke size on the default seed, the second time
under the host-speed sampler, and confirms that every check passes and both
passes hash to the same digest.  Then, for
each check, it perturbs the output that check reads (a velocity moved out of
band, a NaN estimate, a failed bundle, ...) and confirms that the check
fails; and it flips one byte of the hashed output and confirms the digest
changes, so a repeat or reference comparison would fail.

    python3 perfbench/selftest.py          # exit code 0 when all are caught
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import bench_env

NAN = float("nan")


def _set(key, value):
    return lambda o: o.__setitem__(key, value)


def _set_item(key, index, value):
    return lambda o: o[key].__setitem__(index, value)


# For every check of every workload: how to break the output it reads.
PERTURB = {
    "ballistic_cli": {
        "exit_code_0": _set("exit_code", 3),
        "renewal_in_band": lambda o: o.__setitem__("renewal_v", o["renewal_v"] + 0.1),
        "direct_in_band": _set("direct_v", NAN),
    },
    "annealed_trap": {
        "velocity_decreasing": lambda o: o["velocities"].reverse(),
        "last_velocity_below_0.05": _set_item("velocities", -1, 0.05),
        "tail_index_band": _set("tail_index", NAN),
        "moment_appears_infinite": _set("verdict", "inconclusive"),
    },
    "splitting_narrow": {
        "estimates_positive": _set_item("estimates", 0, NAN),
        "estimates_decrease_in_L": lambda o: o["estimates"].reverse(),
        "slope_ci_below_0": _set_item("slope_ci", 1, 0.1),
        "path_bundles_hold": _set("bundle_failures", 1),
    },
    "cube_exact": {
        "identities_1e-10": _set("max_identity_violation", 1e-9),
        "golden_values_1e-12": lambda o: o["golden"].__setitem__(
            "mean_exit", o["golden"]["mean_exit"] + 1e-11),
        "hill_index_band": _set("hill_index", NAN),
        "visit_law_combined_p": lambda o: o.__setitem__(
            "visit_p_values", [1e-9] * len(o["visit_p_values"])),
        "hill_index_c9_band": _set("hill_index", 1.3),
    },
}


def main() -> int:
    bench_env.prepare()
    import hostspeed
    import run
    import workloads

    problems = []
    seed = run.DEFAULT_SEED
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.inputs(seed, "smoke")
        work = bench_env.WORK / f"selftest-{os.getpid()}"
        _, _, out, parts = run.run_pass(wl, inp, work / "a")
        # the second pass runs under the host-speed sampler's interrupts,
        # which must not change the outputs
        _, ref_s, _, parts2 = run.run_pass(wl, inp, work / "b",
                                           sampler=hostspeed.Sampler())
        dig = run.digest(parts)
        if dig != run.digest(parts2):
            problems.append(f"{name}: a pass under the host-speed sampler "
                            "hashes differently")
        if not ref_s > 0:
            problems.append(f"{name}: reference seconds {ref_s} not positive")
        base = {c.name: c for c in wl.checks(out)}
        for c in base.values():
            if not c.ok:
                problems.append(f"{name}: {c.name} fails unperturbed ({c.detail})")
        missing = set(base) - set(PERTURB[name])
        if missing:
            problems.append(f"{name}: no perturbation for {sorted(missing)}")
        for check, perturb in PERTURB[name].items():
            broken = copy.deepcopy(out)
            perturb(broken)
            after = {c.name: c for c in wl.checks(broken)}.get(check)
            caught = after is not None and not after.ok
            print(f"{name}: {check} {'caught' if caught else 'MISSED'}"
                  + (f" ({after.detail})" if after else ""))
            if not caught:
                problems.append(f"{name}: perturbing {check} went unnoticed")
        parts[-1] = bytes([parts[-1][0] ^ 1]) + parts[-1][1:]
        flipped = run.digest(parts)
        print(f"{name}: flipped byte {'caught' if flipped != dig else 'MISSED'}")
        if flipped == dig:
            problems.append(f"{name}: a flipped output byte kept the digest")
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
