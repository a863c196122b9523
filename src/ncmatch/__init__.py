"""Exact enumeration and growth analysis of non-crossing matchings on chains.

The package has two faces that keep each other honest:

* counting recursions (``zigzag``, ``chains``, ``corners``) and their exact
  spectral growth analysis (``spectral``, ``quadfield``), fast enough for
  hundreds of recursion steps and certified constants;
* a brute-force geometric oracle (``geometry``, ``oracle``) that enumerates
  matchings on exact rational point sets and cross-checks every recursion on
  small instances.

``doubling`` converts one-sided down-free counts into perfect-matching
counts of doubled constructions.  The ``ncmatch`` console script exposes the
batch workflows; the ``demos/`` scripts in the repository walk through each
capability.
"""

from .geometry import (
    Direction,
    DoubleSet,
    Orientation,
    Parity,
    PointSet,
    double_chain,
    double_zigzag,
    from_json_dict,
    is_high_above,
    make_chain,
    make_double,
    make_rchain,
    make_zigzag,
    orientation,
    place_high_above,
    to_json_dict,
)
from .oracle import (
    MatchKind,
    Matching,
    MatchingCensus,
    SizeCapError,
    census,
    census_corner_split,
    census_runners,
    complete_to_perfect,
    count_cross_completions,
    count_perfect_extensions,
    matchings,
)
from .quadfield import QuadNumber
from .zigzag import (
    ZigzagSeries,
    closed_form_coeffs,
    growth_constant,
    zigzag_series,
)
from .chains import (
    BandMatrix,
    ChainOperator,
    arc_count,
    best_arc_size,
    excursion_moments,
    growth_factor,
    runner_counts,
    runner_series,
    runner_step,
    transfer_matrix,
)
from .corners import (
    CornerCoefficients,
    chain_counts,
    condensed_table,
    corner_coefficients,
    coupled_series,
    coupled_step,
    dominant_eigenvalue,
    extract_band,
)
from .spectral import (
    EigenData,
    RescaledSystem,
    SubEigenCertificate,
    build_certificate,
    certificate_from_peak,
    eigen_data,
    rescale,
    residual_constants,
    shift_constant,
    verify_certificate,
    weighted_drift,
)
from .doubling import (
    catalan,
    chain_profile,
    double_chain_pm,
    motzkin,
    pm_of_double,
    profile_from_by_free,
)

__version__ = "0.1.0"
