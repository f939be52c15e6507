"""Every demo measurement stays within a decade of its ledger entry.

The ledger (tests/residual_ledger.json, written by make_residual_ledger.py)
holds log10 of each float a demo reports at grid 64, and a long, thin
test scene reports, and the exact value of each verdict.  Loose assertion
bounds such as 1e-6 hide a residual that grows from 1e-15 to 1e-9; this
test does not.
"""

import json

import pytest

from make_residual_ledger import (LEDGER_PATH, SCENES, demo_entries,
                                  scene_entries)

with open(LEDGER_PATH) as _fh:
    LEDGER = json.load(_fh)


@pytest.mark.parametrize("name", sorted(LEDGER["demos"]))
def test_demo_measurements_match_the_ledger(name):
    assert_matches(LEDGER["demos"][name], demo_entries(name))


@pytest.mark.parametrize("name", sorted(LEDGER["scenes"]))
def test_scene_measurements_match_the_ledger(name):
    assert_matches(LEDGER["scenes"][name], scene_entries(SCENES[name]()))


def assert_matches(expected, got):
    assert sorted(got["log10"]) == sorted(expected["log10"])
    assert got["verdicts"] == expected["verdicts"]
    moved = {path: (expected["log10"][path], value)
             for path, value in got["log10"].items()
             if abs(value - expected["log10"][path]) > 1.0}
    assert not moved, f"measurements moved by more than a decade: {moved}"
