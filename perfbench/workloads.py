"""Scene generators for the benchmark workloads.

Each generator maps a workload seed to a complete scene config; the
program under test only ever sees the generated config.  The reasons
for each workload, and which layer each one stresses, are in README.md.
"""

from __future__ import annotations

import math
import random


def dense_darboux(seed: int) -> dict:
    """The shipped cylinder-darboux demo at grid 160; the seed drives the
    Darboux initial condition."""
    from liechannel.demos import demo_config
    return demo_config("cylinder-darboux", grid=160, seed=seed)


def long_calapso(seed: int) -> dict:
    """A long, thin unit cylinder (n_u = 1024, n_theta = 8): one middle
    form, Calapso at four spectral parameters and one Darboux transform.
    The seed drives the Darboux initial condition; only the report is
    written."""
    return {
        "version": 1,
        "name": "long-calapso",
        "seed": seed,
        "objects": {
            "generators": {"kind": "line_sphere_curve", "n": 1024},
            "cylinder": {"kind": "envelope", "sphere_curve": "generators",
                         "n_theta": 8},
        },
        "pipeline": [
            {"id": "middle-form", "op": "omega0", "grid": "cylinder",
             "sphere_curve": "generators", "store": "eta",
             "q_uu_expected": -1.0,
             "assert": [{"key": "q_uu_deviation", "max": 1e-10}]},
            {"id": "calapso", "op": "calapso", "grid": "cylinder",
             "omega": "eta", "lambdas": [-1.0, 0.5, 1.0, 2.0],
             "assert": [{"key": "ortho_max", "max": 1e-8},
                        {"key": "q_deviation_max", "max": 1e-8},
                        {"key": "circular_preserved", "true": True},
                        {"key": "sphere_map_gap_max", "max": 1e-6}]},
            {"id": "darboux", "op": "darboux", "grid": "cylinder",
             "omega": "eta", "m": 1.0, "store": "hat",
             "assert": [{"key": "null_drift", "max": 1e-10},
                        {"key": "validation_passed", "true": True}]},
        ],
        "outputs": {"report": "report.json"},
    }


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def curve_pairs(seed: int) -> dict:
    """Curve-level Ribaucour checks at n = 2048 on a seeded pair of
    parallel lines, plus a torus cyclide fitted through three tube
    spheres of a circle and written as a 256 x 256 mesh.  No Legendre
    grid is built."""
    rng = random.Random(seed)
    direction = _unit([rng.uniform(-1.0, 1.0) for _ in range(3)])
    # an offset orthogonal to the common direction keeps the pair parallel
    trial = _unit([rng.uniform(-1.0, 1.0) for _ in range(3)])
    dot = sum(a * b for a, b in zip(trial, direction))
    offset = _unit([t - dot * d for t, d in zip(trial, direction)])
    distance = rng.uniform(1.5, 2.5)
    origin = [distance * x for x in offset]
    thin, thick = rng.uniform(0.2, 0.4), rng.uniform(0.8, 1.2)
    ring, tube_radius = rng.uniform(1.8, 2.4), rng.uniform(0.5, 0.9)
    n = 2048
    line = {"kind": "line_curve", "n": n, "direction": direction}
    return {
        "version": 1,
        "name": "curve-pairs",
        "seed": seed,
        "objects": {
            "axis": dict(line),
            "offset": dict(line, origin=origin),
            "spheres_a": {"kind": "tube_sphere_curve", "curve": "axis",
                          "radius": thick},
            "spheres_b": {"kind": "tube_sphere_curve", "curve": "offset",
                          "radius": thick},
            "circle": {"kind": "circle_curve", "n": n, "radius": ring},
            "ring_spheres": {"kind": "tube_sphere_curve", "curve": "circle",
                             "radius": tube_radius},
        },
        "pipeline": [
            {"id": "curve-level", "op": "curve_check", "a": "axis",
             "b": "offset",
             "assert": [{"key": "residual", "max": 1e-10}]},
            {"id": "tube-level-thin", "op": "tube_check", "a": "axis",
             "b": "offset", "radius": thin,
             "assert": [{"key": "residual", "max": 1e-10},
                        {"key": "agreement", "max": 1e-8}]},
            {"id": "tube-level-thick", "op": "tube_check", "a": "axis",
             "b": "offset", "radius": thick,
             "assert": [{"key": "residual", "max": 1e-10},
                        {"key": "agreement", "max": 1e-8}]},
            {"id": "enveloped-circles", "op": "circle_congruence",
             "a": "axis", "b": "offset",
             "assert": [{"key": "membership", "max": 1e-8},
                        {"key": "tangency_max", "max": 1e-4},
                        {"key": "passed", "true": True}]},
            {"id": "sphere-pair", "op": "verify_pair", "a": "spheres_a",
             "b": "spheres_b",
             "assert": [{"key": "residual", "max": 1e-10}]},
            {"id": "cyclide-family", "op": "cyclides", "a": "spheres_a",
             "b": "spheres_b",
             "assert": [{"key": "coincidence", "max": 1e-6}]},
            {"id": "torus-through-spheres", "op": "dupin_fit",
             "sphere_curve": "ring_spheres",
             "indices": [0, n // 3, (2 * n) // 3], "store": "torus",
             "torus": {"ring": ring, "radius": tube_radius},
             "assert": [{"key": "torus_deviation", "max": 1e-6}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [{"object": "torus", "path": "torus.obj", "n": 256}],
        },
    }


WORKLOADS = {
    "dense-darboux": dense_darboux,
    "long-calapso": long_calapso,
    "curve-pairs": curve_pairs,
}
