"""f-divergences between finite discrete measures, with certified TV bounds.

    >>> from divbound import ProbabilityMeasure, kl, invert, builtin
    >>> mu = ProbabilityMeasure(("a", "b"), [0.5, 0.5])
    >>> nu = ProbabilityMeasure(("a", "b"), [0.25, 0.75])
    >>> round(kl(mu, nu).value, 6)
    0.143841
    >>> invert(builtin("KL"), 0.02).tv_upper_bound  # doctest: +SKIP
    0.2828...
"""

from types import ModuleType as _ModuleType

from .bounds import (
    TvCertificate,
    bretagnolle_huber,
    bretagnolle_huber_certificate,
    check_monotone,
    hellinger_bound,
    hellinger_certificate,
    invert,
    lower_bound,
    phi,
)
from .divergence import (
    DivergenceValue,
    d_f,
    density_ratio,
    hellinger,
    kl,
    pearson,
    sh,
    tv,
)
from .errors import (
    AbsoluteContinuityViolation,
    DivboundError,
    DomainError,
    InvalidMeasure,
    MeasureFormatError,
    NonMonotoneGenerator,
    UnknownGenerator,
)
from .extreal import INF, format_extended, is_finite, parse_extended
from .generator import (
    BUILTIN_NAMES,
    Generator,
    builtin,
    check_separation,
    default_grid,
    dual,
    is_builtin,
)
from .jointrange import (
    ScanRecord,
    VerificationReport,
    random_pair,
    scan_binary,
    scan_to_csv,
    tightness_gap,
    verify_bound,
)
from .measure import (
    HahnDecomposition,
    ProbabilityMeasure,
    SignedMeasure,
    align,
    hahn_jordan,
    read_probability_measure,
    read_signed_measure,
    subset_extrema,
    subset_totals,
    total_variation_norm,
    tv_distance,
    tv_via_density,
)

__version__ = "0.1.0"

# every name imported above, and none of the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
