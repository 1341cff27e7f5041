"""Fixed-seed CLI outputs keep the bytes recorded in ``golden_digests.json``."""

import golden


def test_cli_outputs_match_golden_digests(tmp_path):
    entry = golden.entry_or_skip()
    golden.assert_digests(golden.run_cli(tmp_path), entry, "cli")


def test_cli_outputs_match_golden_digests_on_the_numpy_path(tmp_path, monkeypatch):
    # the path a host without the compiled kernel takes gives the same bytes
    from rwre import _kernel
    entry = golden.entry_or_skip()
    monkeypatch.setattr(_kernel, "loop", lambda *a: None)
    golden.assert_digests(golden.run_cli(tmp_path), entry, "cli")
