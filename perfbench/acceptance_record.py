#!/usr/bin/env python3
"""Opt-in, ungated one-shot record of the acceptance suite's wall time.

Runs ``rwre.acceptance.run_criteria`` once (criteria 1 to 11, without the
criterion-12 rerun) with the benchmark's thread settings, writing the
artifacts to a scratch directory of its own, outside any byte-compared
``run1/``/``run2/`` pair, and deletes them afterwards.  It prints the seconds
of each criterion and writes them, with the machine record, to
``.perfbench_work/acceptance_record.json``.  It takes about four minutes on
two cores and passes or fails nothing: a failing criterion is reported, not
raised.

    python3 perfbench/acceptance_record.py [--seed 42]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import bench_env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)
    bench_env.prepare()
    from rwre import acceptance

    outdir = bench_env.WORK / f"acceptance-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        results = acceptance.run_criteria(args.seed, str(outdir))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    total = time.perf_counter() - t0
    rows = [{"number": r.number, "name": r.name, "passed": bool(r.passed),
             "seconds": r.seconds} for r in results]
    for r in rows:
        print(f"c{r['number']:<2d} {r['name']:28s} {r['seconds']:8.2f} s  "
              f"{'PASS' if r['passed'] else 'FAIL'}")
    print(f"total (c1-c11, one pass) {total:.2f} s")
    record = {"seed": args.seed, "total_s": total, "criteria": rows,
              "meta": bench_env.machine_record()}
    path = bench_env.WORK / "acceptance_record.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
