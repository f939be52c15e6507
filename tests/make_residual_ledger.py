"""Write tests/residual_ledger.json: every report measurement of the demos.

Runs the five built-in demos at grid 64 (default seeds), and the test
scenes in SCENES, and records, per scene, the log10 magnitude of every
float measurement and the exact value of every verdict: booleans,
strings, integers (mesh vertex and face counts included) and nulls.
test_residual_ledger.py fails when a float moves by more than one decade
or any verdict changes.  A change that improves a measurement
regenerates the ledger and names the entry.

    PYTHONPATH=src python tests/make_residual_ledger.py
    git diff tests/residual_ledger.json

The diff lists every log10 entry and verdict the fresh run moved.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

from liechannel.demos import demo_config, demo_names
from liechannel.scene import run_scene

GRID = 64
#: log10 floor: rounding-level values (<= 1e-14) all read as this
FLOOR = -14.0
LEDGER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "residual_ledger.json")


def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}/{key}", item, out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(f"{prefix}/{index}", item, out)
    else:
        out[prefix] = value


def long_thin_calapso() -> dict:
    """A unit cylinder 512 samples long and 8 around: the middle form,
    Calapso at four spectral parameters and one Darboux transform.  Its
    u-serial flows run over 511 edges, where the rounding of each step
    adds up far more than on the demos' 63."""
    return {
        "version": 1,
        "name": "long-thin-calapso",
        "seed": 41,
        "objects": {
            "generators": {"kind": "line_sphere_curve", "n": 512},
            "cylinder": {"kind": "envelope", "sphere_curve": "generators",
                         "n_theta": 8},
        },
        "pipeline": [
            {"id": "middle-form", "op": "omega0", "grid": "cylinder",
             "sphere_curve": "generators", "store": "eta",
             "q_uu_expected": -1.0},
            {"id": "calapso", "op": "calapso", "grid": "cylinder",
             "omega": "eta", "lambdas": [-1.0, 0.5, 1.0, 2.0]},
            {"id": "darboux", "op": "darboux", "grid": "cylinder",
             "omega": "eta", "m": 1.0, "store": "hat"},
        ],
        "outputs": {"report": "report.json"},
    }


#: test scenes that are not demos, by ledger name
SCENES = {"long-thin-calapso": long_thin_calapso}


def demo_entries(name: str) -> dict:
    """{"log10": {path: float}, "verdicts": {path: value}} of one demo."""
    return scene_entries(demo_config(name, grid=GRID))


def scene_entries(config: dict) -> dict:
    """{"log10": {path: float}, "verdicts": {path: value}} of one scene."""
    with tempfile.TemporaryDirectory() as out_dir:
        report = run_scene(config, out_dir)
    flat = {}
    for stage in report["stages"]:
        _flatten(stage["id"], stage["measurements"], flat)
        _flatten(stage["id"] + "/passed", stage["passed"], flat)
    for mesh in report["meshes"]:
        _flatten("meshes/" + mesh["path"],
                 {"vertices": mesh["vertices"], "faces": mesh["faces"]}, flat)
    flat["passed"] = report["passed"]
    logs, verdicts = {}, {}
    for path, value in sorted(flat.items()):
        if isinstance(value, float):
            logs[path] = (round(max(FLOOR, math.log10(abs(value))), 3)
                          if value else FLOOR)
        else:
            verdicts[path] = value
    return {"log10": logs, "verdicts": verdicts}


def ledger() -> dict:
    return {"grid": GRID, "floor": FLOOR,
            "demos": {name: demo_entries(name) for name in demo_names()},
            "scenes": {name: scene_entries(make())
                       for name, make in SCENES.items()}}


def main() -> int:
    with open(LEDGER_PATH, "w") as fh:
        json.dump(ledger(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {LEDGER_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
