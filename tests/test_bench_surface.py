"""The benchmark's workloads run, pass their checks and count walker-steps.

perfbench/ counts walker-steps through the traced public names of the walk
engines (``tracer.COUNTERS``), so a refactor that renames or merges an
engine would silently read zero there.  Each workload runs once at smoke
size under the tracer.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_pass_counts_walker_steps(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(workloads.ACCEPTANCE_SEED, "smoke")
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.span():
            raw = wl.run(inp, str(tmp_path))
    finally:
        tr.uninstall()
    out, _ = wl.collect(inp, raw)
    failed = [c for c in wl.checks(out) if not c.ok]
    assert not failed, failed
    assert tracer.walker_steps(tr.aggregate()) > 0
