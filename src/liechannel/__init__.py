"""Channel surfaces and sphere-curve envelopes in the hexaspherical model.

Each export loads with the module that defines it, on first access (PEP
562), so `import liechannel` followed by `validate_scene` or `load_scene`
runs without numpy; the geometry modules load with the first export that
needs them.
"""

import importlib

__version__ = "0.1.0"

#: the exports of each module, by module
_EXPORTS = {
    "core": """DIM METRIC SIGNS GeometryError Infinity Plane Point
        RankDeficiencyError SignatureError Sphere inner
        parallel_transform_matrix plane_lift point_lift project_to_euclidean
        projective_gap sphere_lift""",
    "legendre": """ChannelReport CurvatureData LegendreGrid LegendreReport
        LieCyclideSplit curvature_data is_channel lie_cyclide_split
        make_legendre_from_surface spherical_line_residuals
        validate_legendre""",
    "channel": """ConservedQuantityReport Omega0Structure SphereCurve
        circle_sphere_curve conserved_quantity curve_from_profile envelope
        helix_sphere_curve line_sphere_curve omega0_form osculating_spaces
        special_lift""",
    "transforms": """CyclideCongruenceReport DarbouxResult DupinCyclide
        GaugeField calapso_quadratic_form calapso_transform
        cyclide_point_residual darboux_initial_condition darboux_transform
        dupin_from_spheres dupin_from_subspaces gauge_edge_residual
        ribaucour_cyclides ribaucour_partner_curve verify_ribaucour""",
    "conformal": """CircleCongruenceReport circle_congruence_report
        tube_sphere_curve""",
    "mesh": """MeshOutput cyclide_mesh cyclide_point_grid export_obj
        grid_point_spheres mesh_from_grid triangulate_grid""",
    "scene": "PipelineError SceneError load_scene run_scene validate_scene",
    "demos": "demo_config demo_names",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _MODULE_OF[name], __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
