"""Angular von Mises-Fisher toolkit for surface-normal uncertainty.

Closed-form densities, exact samplers, robust direction estimators,
uncertainty-guided pixel selection, error metrics with sparsification
analysis, synthetic scenes, a toy refinement trainer and binary map I/O.
"""

from .distributions import (
    AngMFParams,
    NllGradient,
    VonMFParams,
    angmf_error_cdf,
    angmf_error_pdf,
    angmf_nll,
    angmf_nll_grad,
    angmf_pdf,
    expected_angular_error,
    vonmf_nll,
    vonmf_nll_grad,
    vonmf_pdf,
)
from .errors import (
    AngmfError,
    DegenerateResultant,
    DegenerateVector,
    DomainError,
    EmptyInput,
    FormatError,
    NormalizationError,
    NumericalError,
    ShapeError,
)
from .estimators import FitReport, fit_angmf_mle, mean_direction, spherical_median
from .mapio import (
    KappaMap,
    NormalMap,
    read_kappa_map,
    read_normal_map,
    write_kappa_map,
    write_normal_map,
)
from .metrics import (
    MetricsReport,
    SparsificationCurve,
    angular_errors,
    ausc,
    ause,
    oracle_curve,
    sparsification,
    summarize,
)
from .pixel_select import PixelSelection, SelectionConfig, select_pixels
from .rng import RngState
from .sampling import invert_error_cdf, sample_angmf, sample_vonmf
from .sphere import angle_between, normalize, tangent_basis
from .synth import SyntheticFrame, TwoPlaneScene, make_frame, sample_boundary_pixels

__version__ = "0.1.0"
