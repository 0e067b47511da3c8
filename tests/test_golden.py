"""Every output of ``golden.COMMANDS`` has the digest committed for this environment in ``tests/golden.json``."""

import json

import pytest

import golden


def test_outputs_match_committed_digests():
    table = json.loads(golden.GOLDEN.read_text())
    key = golden.environment_key()
    if key not in table:
        pytest.skip(f"no digests for {key!r}: outputs move in their last bits across numpy, BLAS kernel and machine")
    assert golden.differences(table[key], golden.digests()) == []


def test_differences_name_each_added_changed_and_missing_output():
    committed = {"kept": "a", "moved": "b", "gone": "c"}
    now = {"kept": "a", "moved": "x", "new": "d"}
    assert golden.differences(committed, now) == ["missing gone", "changed moved", "added new"]
    assert golden.differences(now, now) == []
