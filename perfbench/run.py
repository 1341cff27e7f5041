#!/usr/bin/env python3
"""The rwre benchmark: four acceptance-shaped workloads, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cube_exact --seed 42 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 42        # every workload
    python3 perfbench/run.py --workload annealed_trap --trace 1   # per-layer

One run lasts about ``--seconds``.  It sets up (``setup_s``: the median of
fresh processes that import rwre, build the inputs and finish a smoke-size
pass), then runs passes of one workload on the same inputs: a first pass
that is not timed and counts the walker-steps, then timed passes until the
time is up.  Every timed second is rescaled to the reference host speed by
``hostspeed.Sampler``, because the shared host's speed drifts by up to 2x
(``ref_wall_s`` is the median rescaled pass; the raw times are printed
beside it).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the width sweep instead.  Every pass must reproduce
the first pass's output digest, and for the default seed the committed
reference digest.  The last line of standard output is the JSON result.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bench_env

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_digests.json"
SPEC_FILE = bench_env.ROOT / "BENCHMARK.json"

RUN_SECONDS = 28
SETUP_PROBES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
DEFAULT_SEED = 42

END_TO_END = [
    {"name": "ref_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ref_walker_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def run_pass(wl, inp, workdir: pathlib.Path, tr=None, sampler=None):
    """One pass in a fresh work directory.

    Returns (seconds, reference seconds, outputs, hashed parts); the
    reference seconds are None unless a host-speed ``sampler`` runs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    ref_seconds = None
    try:
        if tr is not None:
            tr.install()
        try:
            if sampler is not None:
                sampler.start()
            t0 = time.perf_counter()
            if tr is not None:
                with tr.span():
                    raw = wl.run(inp, str(workdir))
            else:
                raw = wl.run(inp, str(workdir))
            t1 = time.perf_counter()
        finally:
            if sampler is not None:
                sampler.stop()
            if tr is not None:
                tr.uninstall()
        if sampler is not None:
            ref_seconds = sampler.reference_seconds(t0, t1)
        out, parts = wl.collect(inp, raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return t1 - t0, ref_seconds, out, parts


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, reference seconds) for a fresh process to import rwre,
    build the inputs and run a smoke pass.

    The process samples the host's speed from its start and reports it on
    its last line of output.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=bench_env.ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, (seconds - probe["handler_s"]) * probe["speed"]


def probe_main(workload: str, seed: int, sampler, started: float) -> int:
    import workloads
    wl = workloads.WORKLOADS[workload]
    wl.inputs(seed, "bench")
    smoke = wl.inputs(seed, "smoke")
    run_pass(wl, smoke, bench_env.WORK / f"probe-{os.getpid()}")
    sampler.stop()
    handler_s, speed, _ = sampler.summary(started, time.perf_counter())
    print(json.dumps({"handler_s": handler_s, "speed": speed}))
    return 0


def load_references() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        return json.load(f)


def reference_digest(workload: str, seed: int) -> str | None:
    refs = load_references()
    if seed != refs.get("seed"):
        return None
    return refs.get("platforms", {}).get(bench_env.platform_key(), {}).get(workload)


def run_workload(wl, seed: int, seconds: float, trace: bool, log):
    """Set up and run passes for about ``seconds``; return (checks, metrics, notes)."""
    import hostspeed
    import tracer
    from workloads import Check

    deadline = time.perf_counter() + seconds
    setup = [setup_probe(wl.name, seed) for _ in range(SETUP_PROBES)]
    inp = wl.inputs(seed, "bench")
    workroot = bench_env.WORK / f"run-{os.getpid()}" / wl.name

    counting = tracer.Tracer()
    first_s, _, out0, parts0 = run_pass(wl, inp, workroot / "pass0", counting)
    digest0 = digest(parts0)
    steps = tracer.walker_steps(counting.aggregate())
    del counting
    checks = list(wl.checks(out0))
    ref = reference_digest(wl.name, seed)
    if ref is not None:
        checks.append(Check("reference_digest", digest0 == ref,
                            f"{digest0[:16]} vs committed {ref[:16]}"))
    else:
        log(f"no reference digest for seed {seed} on {bench_env.platform_key()}; "
            "passes are checked against the first pass only")

    sweep_metrics = {}
    if trace:
        import sweep
        sweep_metrics = sweep.run(seed)
        for line in sweep.report_lines(sweep_metrics):
            log(line)
    tr = tracer.Tracer() if trace else None
    sampler = None if trace else hostspeed.Sampler()
    times = {False: [], True: []}
    ref_times = []
    estimate = {False: first_s, True: first_s}
    k = 0
    while True:
        traced = trace and len(times[True]) < len(times[False])
        enough = (len(times[False]) >= MIN_PASSES if not trace
                  else bool(times[False] and times[True]))
        if enough and time.perf_counter() + estimate[traced] > deadline:
            break
        k += 1
        dt, ref_dt, _, parts = run_pass(wl, inp, workroot / f"pass{k}",
                                        tr if traced else None, sampler)
        times[traced].append(dt)
        if ref_dt is not None:
            ref_times.append(ref_dt)
        estimate[traced] = dt
        dig = digest(parts)
        checks.append(Check("repeat_digest", dig == digest0,
                            f"pass {k}{' traced' if traced else ''}: {dig[:16]}"))
    shutil.rmtree(workroot.parent, ignore_errors=True)
    with contextlib.suppress(OSError):
        bench_env.WORK.rmdir()      # only when no other run is using it

    wall = statistics.median(times[False])
    log(f"  untimed first pass {first_s:.3f} s, {steps:.0f} walker-steps per pass")
    for traced, label in ((False, "timed"), (True, "traced")):
        if times[traced]:
            log(f"  {label} passes (s): " + " ".join(f"{t:.3f}" for t in times[traced]))
    if not trace:
        ref_wall = statistics.median(ref_times)
        log("  timed passes at reference speed (s): "
            + " ".join(f"{t:.3f}" for t in ref_times))
        log(f"  wall_s = {wall:.6g} s, walker_steps_per_s = {steps / wall:.6g} 1/s, "
            f"setup wall = {statistics.median(s for s, _ in setup):.6g} s  "
            f"(raw, host speed {statistics.median(sampler.speed):.3f} of reference)")
        return checks, {
            "ref_wall_s": ref_wall,
            "ref_walker_steps_per_s": steps / ref_wall,
            "setup_s": statistics.median(r for _, r in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, {"ref_wall_s": f"median of {len(ref_times)} passes",
            "setup_s": f"median of {len(setup)} fresh processes, at reference speed"}

    metrics = tracer.layer_metrics(tr.aggregate(), len(times[True]),
                                   statistics.median(times[True]) / wall - 1.0)
    parts = sum(metrics[f"layer.{m}.self_s"] for m in tracer.TRACED_MODULES)
    total = parts + metrics["trace.remainder_s"]
    checks.append(Check("layer_times_add_up",
                        abs(total - metrics["trace.wall_s"]) <= 1e-9 * metrics["trace.wall_s"],
                        f"layers {parts:.6f} s + remainder {metrics['trace.remainder_s']:.6f} s"
                        f" = {total:.6f} s vs traced wall {metrics['trace.wall_s']:.6f} s"))
    log(f"{tr.span_count()} spans over {len(times[True])} traced passes")
    metrics.update(sweep_metrics)
    return checks, metrics, {"trace.wall_s": f"mean of {len(times[True])} traced passes"}


def metric_units(trace: bool) -> dict[str, str]:
    import sweep
    import tracer
    if not trace:
        return {m["name"]: m["unit"] for m in END_TO_END}
    return dict(tracer.LAYER_METRICS + sweep.metric_names())


def spec() -> dict:
    import sweep
    import tracer
    import workloads
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in tracer.LAYER_METRICS + sweep.metric_names()],
    }


def _better(name: str) -> str:
    if name.endswith(("_per_s", ".occupancy", ".certified_frac", ".mean_width",
                      ".mean_rows")):
        return "higher"
    return "lower"


def write_references(names, log) -> None:
    import workloads
    refs = load_references() or {"seed": DEFAULT_SEED, "size": "bench", "platforms": {}}
    table = refs["platforms"].setdefault(bench_env.platform_key(), {})
    for name in names:
        wl = workloads.WORKLOADS[name]
        inp = wl.inputs(refs["seed"], "bench")
        _, _, out, parts = run_pass(wl, inp, bench_env.WORK / f"ref-{os.getpid()}")
        dig = digest(parts)
        failed = [c.name for c in wl.checks(out) if not c.ok]
        if failed:
            raise RuntimeError(f"{name}: checks failed, not recording: {failed}")
        table[name] = dig
        log(f"{name}: {dig}")
    with open(REFERENCE_FILE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="workload name or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from the definitions here")
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's digests for this platform")
    args = p.parse_args(argv)

    try:
        bench_env.prepare()
        if args.setup_probe:
            # sample the host's speed over the set-up from here on
            import hostspeed
            sampler = hostspeed.Sampler()
            sampler.start()
            started = time.perf_counter()
        import rwre
        bench_env.check_imported(rwre)
    except (bench_env.MissingSources, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    def log(msg: str) -> None:
        print(msg, flush=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(names[0], args.seed, sampler, started)
    if args.write_spec:
        with open(SPEC_FILE, "w", encoding="utf-8") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        log(f"wrote {SPEC_FILE}")
        return 0
    if args.write_reference:
        write_references(names, log)
        return 0

    trace = bool(args.trace)
    units = metric_units(trace)
    all_checks, result_metrics = [], {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        log(f"== {name} (mirrors {wl.mirrors}) seed={args.seed} "
            f"seconds={args.seconds:g} trace={int(trace)}")
        checks, metrics, samples = run_workload(wl, args.seed, args.seconds, trace, log)
        for c in checks:
            log(f"  check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        failed = sum(not c.ok for c in checks)
        for key, value in metrics.items():
            note = f"  ({samples[key]})" if key in samples else ""
            log(f"  {key} = {value:.6g} {units[key]}{note}")
        log(f"  failed_frac = {failed}/{len(checks)} = {failed / len(checks):.3g} (1)")
        all_checks += checks
        prefix = "" if len(names) == 1 else f"{name}."
        result_metrics.update({prefix + k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()})
    log("meta " + json.dumps(bench_env.machine_record(), sort_keys=True))
    failed = sum(not c.ok for c in all_checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_checks),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
