"""Acceptance suite: every criterion at its pinned scale and tolerance.

The driver runs all criteria twice into run1/run2, the second pass in a
fresh interpreter started before the first and running beside it (it
backs the byte-identity determinism criterion), so this module is the
slow part of the test suite (about 29 s on a 2-vCPU Intel Xeon host, 49 s
with the passes one after the other).  One PASS/FAIL line is printed per
criterion.
"""

import json
import os

import pytest

import golden
from rwre import acceptance

MASTER_SEED = 42


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance")
    results, summary_path = acceptance.run_all(MASTER_SEED, str(outdir))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} criterion {r.number:2d} "
              f"{r.name} ({r.seconds:.1f}s)")
    return {r.number: r for r in results}, outdir, summary_path


def _check(suite, number):
    results, _, _ = suite
    r = results[number]
    assert r.passed, f"criterion {number} ({r.name}) failed: {r.details}"


def test_c01_ballistic_example_velocity(suite):
    _check(suite, 1)
    r = suite[0][1]
    assert 0.59 <= r.details["renewal"] <= 0.61
    assert 0.59 <= r.details["direct"] <= 0.61


def test_c02_zero_speed_example(suite):
    _check(suite, 2)
    v = suite[0][2].details["velocities"]
    assert v[0] > v[1] > v[2] and v[2] < 0.05


def test_c03_exact_hypercube_identities(suite):
    _check(suite, 3)


def test_c04_uniform_golden_values(suite):
    _check(suite, 4)


def test_c05_geometric_visit_law(suite):
    _check(suite, 5)
    assert suite[0][5].details["n_pass"] >= 95


def test_c06_regeneration_structure(suite):
    _check(suite, 6)


def test_c07_mark_sum_identity(suite):
    _check(suite, 7)
    assert suite[0][7].details["n_exact"] == 1000


def test_c08_criterion_discrimination(suite):
    _check(suite, 8)


def test_c09_trap_tail_exponent(suite):
    _check(suite, 9)
    assert 0.8 <= suite[0][9].details["hill_index"] <= 1.2


def test_c10_path_bundle_bound(suite):
    _check(suite, 10)
    assert suite[0][10].details["failures"] == 0


def test_c11_slab_decay_shape(suite):
    _check(suite, 11)
    slope_ci = suite[0][11].details["ci"]
    assert slope_ci[1] < 0


def test_c12_determinism(suite):
    _check(suite, 12)
    assert suite[0][12].details["mismatches"] == []


def test_run1_matches_golden_digests(suite):
    entry = golden.entry_or_skip()
    golden.assert_digests(golden.digest_files(suite[1] / "run1"), entry, "run1")


def test_runtime_budgets(suite):
    results = suite[0]
    assert results[1].seconds <= 120    # stated: <= 2 minutes
    assert results[2].seconds <= 600    # stated: <= 10 minutes
    assert results[3].seconds <= 60     # stated: <= 1 minute


def test_artifacts_carry_version_and_hash(suite):
    _, outdir, summary_path = suite
    run1 = outdir / "run1"
    for jf in sorted(run1.glob("*.json")):
        doc = json.loads(jf.read_text())
        assert doc["version"] and doc["config_hash"], jf
    for cf in sorted(run1.glob("*.csv")):
        first = cf.read_text().splitlines()[0]
        if first.startswith("#"):
            assert "config_hash=" in first
    summary = json.loads(open(summary_path).read())
    assert summary["all_passed"] is True
    assert len(summary["criteria"]) == 12


def test_c12_fails_when_the_second_pass_fails(tmp_path, monkeypatch):
    # run2 exists as a file, so the child's run_criteria cannot create it
    monkeypatch.setattr(acceptance, "run_criteria",
                        lambda seed, outdir: os.makedirs(outdir) or [])
    (tmp_path / "run2").write_text("not a directory")
    results, summary_path = acceptance.run_all(MASTER_SEED, str(tmp_path))
    (c12,) = results
    assert c12.number == 12 and not c12.passed
    assert c12.details["exit_code"] == 1
    assert "FileExistsError" in c12.details["stderr"][-1]
    assert json.loads(open(summary_path).read())["all_passed"] is False
