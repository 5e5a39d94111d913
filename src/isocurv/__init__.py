"""Numerical toolkit for constant isotropic curvature hypersurfaces in space forms.

Curvature tensors and the orthonormal-frame probe live in `curvature`,
(lambda, mu) algebra in `spectra`, rotation-hypersurface profiles in
`profiles`, the (n, c, C) decisions, `classify` and `minimal_classify`, in
`classification`, and the verification suites in `checks`.
"""

from .classification import (
    ClassificationOutcome,
    ClassQuery,
    Interval,
    MinimalKind,
    MinimalVerdict,
    NonexistenceEvidence,
    classify,
    minimal_classify,
    nonexistence_witness,
    query_to_json,
    witness,
)
from .curvature import (
    CurvatureTensor,
    Factor,
    FrameError,
    OrthoFrame4,
    ProbeReport,
    ProductSpec,
    SymmetryReport,
    build_constant_curvature,
    build_from_shape,
    build_from_shapes,
    build_product,
    check_symmetries,
    cic_probe,
    cic_probes,
    sample_frames,
    sectional,
)
from .profiles import (
    AmbientSpec,
    DomainBreakdown,
    ExponentialProfile,
    FirstFailure,
    NonPositiveProfile,
    ParabolicProfile,
    ProfileFamily,
    ProfileSample,
    QuadraticProfile,
    TrigProfile,
    cic_along_profile,
    cic_mean_deviation,
    domain_check,
    integrate_profile,
    mean_deviation,
    ode_residual,
    profile_columns,
    write_profile_csv,
)
from .spectra import cic_from_spectrum, cmc_lambda_solve

__version__ = "0.1.0"
