"""Channel surfaces and sphere-curve envelopes in the hexaspherical model."""

from .core import (
    DIM,
    METRIC,
    SIGNS,
    GeometryError,
    Infinity,
    Plane,
    Point,
    RankDeficiencyError,
    SignatureError,
    Sphere,
    inner,
    parallel_transform_matrix,
    plane_lift,
    point_lift,
    project_to_euclidean,
    projective_gap,
    sphere_lift,
)
from .legendre import (
    ChannelReport,
    CurvatureData,
    LegendreGrid,
    LegendreReport,
    LieCyclideSplit,
    curvature_data,
    is_channel,
    lie_cyclide_split,
    make_legendre_from_surface,
    spherical_line_residuals,
    validate_legendre,
)
from .channel import (
    ConservedQuantityReport,
    Omega0Structure,
    SphereCurve,
    circle_sphere_curve,
    conserved_quantity,
    curve_from_profile,
    envelope,
    helix_sphere_curve,
    line_sphere_curve,
    omega0_form,
    osculating_spaces,
    special_lift,
)
from .transforms import (
    CyclideCongruenceReport,
    DarbouxResult,
    DupinCyclide,
    GaugeField,
    calapso_quadratic_form,
    calapso_transform,
    cyclide_point_residual,
    darboux_initial_condition,
    darboux_transform,
    dupin_from_spheres,
    dupin_from_subspaces,
    gauge_edge_residual,
    ribaucour_cyclides,
    ribaucour_partner_curve,
    verify_ribaucour,
)
from .conformal import (
    CircleCongruenceReport,
    circle_congruence_report,
    tube,
    tube_sphere_curve,
)
from .mesh import (
    MeshOutput,
    cyclide_mesh,
    cyclide_point_grid,
    export_obj,
    grid_point_spheres,
    mesh_from_grid,
    triangulate_grid,
)
from .scene import (
    PipelineError,
    SceneError,
    load_scene,
    run_scene,
    validate_scene,
)
from .demos import demo_config, demo_names

__version__ = "0.1.0"
