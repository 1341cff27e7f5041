"""Fixed-seed CLI outputs keep the bytes recorded in ``golden_digests.json``."""

import golden


def test_cli_outputs_match_golden_digests(tmp_path):
    entry = golden.entry_or_skip()
    golden.assert_digests(golden.run_cli(tmp_path), entry, "cli")
