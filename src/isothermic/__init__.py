"""Quaternionic engine for isothermic surfaces and their transformations.

The algebra lives in span{1, i, j, k} with ij = k; Euclidean 3-space is the
imaginary part, the Moebius geometry of its conformal compactification is
driven by 2x2 quaternionic matrices and hermitian forms.  On top of a
structured-grid calculus the package implements the Christoffel, Goursat,
Darboux and spectral transformations of isothermic immersions, the two
Weierstrass-type representations for minimal surfaces and for constant
mean curvature surfaces of hyperbolic space, and the certificates used to
cross-validate them.
"""

from .errors import (
    BoundaryContact,
    ClosedFormOverflow,
    ConfigInvalid,
    DegenerateQuadruple,
    DegenerateTangent,
    FrameUnavailable,
    GeometryError,
    GridMismatch,
    InitialOnBoundary,
    IoError,
    MaskedNeighbor,
    MaskedRegion,
    NearZeroQuaternion,
    NotAdapted,
    NotClosed,
    NotIntegrable,
    PatternMismatch,
    PNotImaginary,
    PoleProximity,
    SingularityHit,
    SingularMatrix,
    StepBlowup,
    UmbilicRegion,
)
from .quaternion import (
    INFINITY,
    cross_ratio_class_array,
    herm_apply,
    lorentz,
    moebius_act,
    point_form,
)
from .grid import (
    FrameField,
    GridSpec,
    QField,
    QForm1,
    closedness_residual,
    crop_field,
    crop_grid,
    d_field,
    integrate_form,
    integrate_frame,
    laplacian,
    load_field,
    maurer_cartan_residual,
    save_field,
    wedge,
)
from .surfaces import (
    PolarizedSurface,
    fundamental_forms,
    isothermic_certificate,
    normal_field,
    surface_jets,
)
from .transforms import (
    FrameConnection,
    TTransformResult,
    canonical_connection,
    christoffel,
    christoffel_form,
    darboux_linear,
    darboux_riccati,
    darboux_via_connection,
    goursat,
    moebius_equivalent,
    permutability_suite,
    t_transform,
    t_transform_gauged,
    t_transform_via_connection,
)
from .cmc import (
    CmcSurface,
    RibaucourData,
    WeierstrassData,
    boundary_connection,
    boundary_surface,
    bryant_candidates,
    bryant_surface,
    bryant_system,
    central_sphere_congruence,
    common_sphere_point,
    darboux_weierstrass,
    double_dual,
    dual_cmc,
    family_ribaucour_connection,
    gauss_sphere_map,
    mean_curvature_hyperbolic,
    minimal_position,
    ribaucour_connection,
    ribaucour_data_extract,
    spherical_type_certificate,
    stereographic,
    umehara_yamada_check,
    weierstrass_minimal,
)
from .pipeline import InvariantReport, PipelineConfig, run_pipeline, sweep
from .objio import export_obj

__version__ = "0.1.0"
