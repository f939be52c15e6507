"""Canned scenes exercising the whole toolchain end to end.

Each demo is an ordinary scene config (see scene.py) with assertions at
the tolerances the library promises; together they cover envelope
construction, channel detection, the middle one-form, conserved
quantities, Darboux and Calapso transforms, Ribaucour verification,
cyclide congruences, and space curves as radius-0 sphere curves with
their tubes.
"""

from __future__ import annotations


def _cylinder_objects(grid):
    return {
        "generators": {"kind": "line_sphere_curve", "n": grid},
        "cylinder": {"kind": "envelope", "sphere_curve": "generators",
                     "n_theta": grid},
    }


_CYCLIDE_EVERY = 8


def _cyclide_indices(grid):
    """Up to three stored congruence cyclides to mesh: 0, 24 and 48 from
    grid 49 on, fewer multiples of the sampling step on smaller grids."""
    last = min(6, (grid - 1) // _CYCLIDE_EVERY)
    return sorted({_CYCLIDE_EVERY * (j * last // 2) for j in range(3)})


def cylinder_darboux(grid: int = 64, seed: int = 7) -> dict:
    """A cylinder, its Darboux transform, and the tangent cyclide family.

    Produces meshes of both tubes plus three members of the one-parameter
    congruence of Dupin cyclides that touches both surfaces along their
    matching circular curvature lines.
    """
    return {
        "version": 1,
        "name": "cylinder-darboux",
        "seed": seed,
        "objects": _cylinder_objects(grid),
        "pipeline": [
            {"id": "validate-cylinder", "op": "validate",
             "target": "cylinder",
             "assert": [{"key": "passed", "true": True}]},
            # a straight tube is doubly channel: the generator spheres are
            # constant along the circles and the tangent planes along the
            # rulings, so detection reports both directions
            {"id": "detect-channel", "op": "channel", "target": "cylinder",
             "assert": [{"key": "circular_dir", "equals": "both"},
                        {"key": "consistent", "true": True}]},
            {"id": "middle-form", "op": "omega0", "grid": "cylinder",
             "sphere_curve": "generators", "store": "eta",
             "q_uu_expected": -1.0,
             "assert": [{"key": "lift_gap", "max": 1e-12},
                        {"key": "q_uu_deviation", "max": 1e-10}]},
            {"id": "conserved", "op": "conserved", "omega": "eta",
             "lambdas": [-1.0, 1.0, 2.0, 3.0],
             "assert": [{"key": "residual_max", "max": 1e-8},
                        {"key": "passed", "true": True}]},
            {"id": "darboux", "op": "darboux", "grid": "cylinder",
             "omega": "eta", "m": 1.0, "store": "hat",
             "assert": [{"key": "null_drift", "max": 1e-10},
                        {"key": "validation_passed", "true": True}]},
            {"id": "transform-is-channel", "op": "channel", "target": "hat",
             "assert": [{"key": "circular_dir", "equals": "dir1"},
                        {"key": "consistent", "true": True}]},
            {"id": "ribaucour", "op": "verify_pair", "a": "generators",
             "b": "hat_spheres",
             "assert": [{"key": "residual", "max": 1e-6}]},
            {"id": "cyclide-family", "op": "cyclides", "a": "generators",
             "b": "hat_spheres", "grid_a": "cylinder", "grid_b": "hat",
             "assert": [{"key": "coincidence", "max": 1e-6},
                        {"key": "theta_constancy", "max": 1e-6},
                        {"key": "duality", "max": 1e-6},
                        {"key": "intersection_rank_ok", "true": True}]},
            {"id": "circular-lines", "op": "sphericity", "target": "hat",
             "assert": [{"key": "residual_max", "max": 1e-8}]},
            {"id": "tangent-cyclides", "op": "congruence_contact",
             "grid": "cylinder", "hat_grid": "hat",
             "spheres_a": "generators", "spheres_b": "hat_spheres",
             "sample_every": _CYCLIDE_EVERY, "store_prefix": "cyclide",
             "assert": [{"key": "contact_residual", "max": 1e-8},
                        {"key": "membership_residual", "max": 1e-8},
                        {"key": "line_residual", "max": 1e-8},
                        {"key": "dropped_points", "equals": 0}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [
                {"object": "cylinder", "path": "cylinder.obj"},
                {"object": "hat", "path": "darboux-transform.obj"},
            ] + [{"object": f"cyclide_{k}",
                  "path": f"congruence-cyclide-{k}.obj"}
                 for k in _cyclide_indices(grid)],
        },
    }


def cylinder_calapso(grid: int = 64, seed: int = 7) -> dict:
    """Calapso flow of the cylinder for several spectral parameters."""
    return {
        "version": 1,
        "name": "cylinder-calapso",
        "seed": seed,
        "objects": _cylinder_objects(grid),
        "pipeline": [
            {"id": "middle-form", "op": "omega0", "grid": "cylinder",
             "sphere_curve": "generators", "store": "eta",
             "assert": [{"key": "lift_gap", "max": 1e-12}]},
            {"id": "calapso", "op": "calapso", "grid": "cylinder",
             "omega": "eta", "lambdas": [0.5, 1.0, 2.0],
             "store_prefix": "cal",
             "assert": [{"key": "ortho_max", "max": 1e-8},
                        {"key": "q_deviation_max", "max": 1e-8},
                        {"key": "circular_preserved", "true": True},
                        {"key": "sphere_map_gap_max", "max": 1e-6}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [{"object": "cal_1.0", "path": "calapso-1.0.obj"}],
        },
    }


def torus_cyclide(grid: int = 96, seed: int = 7) -> dict:
    """A torus as a two-way channel, its pointwise cyclide splitting, and
    an exact Dupin cyclide fitted through three of its tube spheres."""
    return {
        "version": 1,
        "name": "torus-cyclide",
        "seed": seed,
        "objects": {
            "ring": {"kind": "circle_sphere_curve", "n": grid,
                     "ring_radius": 2.0, "radius": 0.7},
            "torus": {"kind": "envelope", "sphere_curve": "ring",
                      "n_theta": grid},
            "ring_unit": {"kind": "circle_sphere_curve", "n": grid,
                          "ring_radius": 2.0, "radius": 1.0},
        },
        "pipeline": [
            {"id": "validate-torus", "op": "validate", "target": "torus",
             "assert": [{"key": "passed", "true": True}]},
            {"id": "detect-channel", "op": "channel", "target": "torus",
             "assert": [{"key": "circular_dir", "equals": "both"},
                        {"key": "consistent", "true": True}]},
            {"id": "cyclide-splitting", "op": "lie_cyclide",
             "target": "torus",
             "assert": [{"key": "s2_agreement", "max": 1e-10}]},
            {"id": "dupin-through-spheres", "op": "dupin_fit",
             "sphere_curve": "ring_unit",
             "indices": [0, grid // 3, (2 * grid) // 3], "store": "dupin",
             "torus": {"ring": 2.0, "radius": 1.0},
             "assert": [{"key": "torus_deviation", "max": 1e-6}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [
                {"object": "torus", "path": "torus.obj"},
                {"object": "dupin", "path": "dupin-torus.obj", "n": 48},
            ],
        },
    }


def helix_channel(grid: int = 96, seed: int = 7) -> dict:
    """A helix tube: a channel surface that is circular one way only."""
    return {
        "version": 1,
        "name": "helix-channel",
        "seed": seed,
        "objects": {
            "helix": {"kind": "helix_sphere_curve", "n": grid},
            "surface": {"kind": "envelope", "sphere_curve": "helix",
                        "n_theta": grid},
        },
        "pipeline": [
            {"id": "validate-surface", "op": "validate", "target": "surface",
             "assert": [{"key": "passed", "true": True}]},
            {"id": "detect-channel", "op": "channel", "target": "surface",
             "assert": [{"key": "circular_dir", "equals": "dir1"},
                        {"key": "consistent", "true": True}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [{"object": "surface", "path": "helix-tube.obj"}],
        },
    }


def curve_ribaucour(grid: int = 64, seed: int = 7) -> dict:
    """Two parallel lines: Ribaucour at curve level, at tube level for two
    radii, and the circle congruence the pair envelopes."""
    return {
        "version": 1,
        "name": "curve-ribaucour",
        "seed": seed,
        "objects": {
            "axis": {"kind": "line_curve", "n": grid},
            "offset": {"kind": "line_curve", "n": grid,
                       "origin": [2.0, 0.0, 0.0]},
            "tube_a": {"kind": "tube", "curve": "axis", "radius": 1.0,
                       "n_theta": grid},
            "tube_b": {"kind": "tube", "curve": "offset", "radius": 1.0,
                       "n_theta": grid},
        },
        "pipeline": [
            {"id": "curve-level", "op": "curve_check", "a": "axis",
             "b": "offset",
             "assert": [{"key": "residual", "max": 1e-10}]},
            {"id": "tube-level-thin", "op": "tube_check", "a": "axis",
             "b": "offset", "radius": 0.3,
             "assert": [{"key": "residual", "max": 1e-10},
                        {"key": "agreement", "max": 1e-8}]},
            {"id": "tube-level-unit", "op": "tube_check", "a": "axis",
             "b": "offset", "radius": 1.0,
             "assert": [{"key": "residual", "max": 1e-10},
                        {"key": "agreement", "max": 1e-8}]},
            {"id": "enveloped-circles", "op": "circle_congruence",
             "a": "axis", "b": "offset",
             "assert": [{"key": "membership", "max": 1e-8},
                        {"key": "tangency_max", "max": 1e-4},
                        {"key": "passed", "true": True}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [
                {"object": "tube_a", "path": "tube-a.obj"},
                {"object": "tube_b", "path": "tube-b.obj"},
            ],
        },
    }


_DEMOS = {
    "cylinder-darboux": cylinder_darboux,
    "cylinder-calapso": cylinder_calapso,
    "torus-cyclide": torus_cyclide,
    "helix-channel": helix_channel,
    "curve-ribaucour": curve_ribaucour,
}


def demo_names() -> list:
    return sorted(_DEMOS)


def demo_config(name: str, grid=None, seed=None) -> dict:
    """Scene config of a named demo, with optional grid/seed overrides."""
    if name not in _DEMOS:
        raise KeyError(f"unknown demo '{name}'; available: "
                       + ", ".join(demo_names()))
    kwargs = {}
    if grid is not None:
        kwargs["grid"] = int(grid)
    if seed is not None:
        kwargs["seed"] = int(seed)
    return _DEMOS[name](**kwargs)
