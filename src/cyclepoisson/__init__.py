"""Exact analysis toolkit for the cycle Poisson code ensemble.

The ensemble draws n degree-2 variable nodes whose 2n edge endpoints land
i.i.d. uniformly on m = (1-r)n check nodes.  The package computes, with
exact rational arithmetic throughout:

- truncated power series over Fraction coefficients (`series`),
- stopping-set counts and the three-index coefficient table A(v,t,s)
  with its recurrence, file format and growth profiles (`table`),
- the second-order PDE satisfied by the table's generating function:
  discriminant classification, the case split along y = alpha z, and
  residual verification of the operator against a filled table (`pde`),
- the analytic expected block-error count on the erasure channel, finite
  binomial identities, and Hadamard-product tools (the exact radius of
  convergence of each split coefficient sequence and contour quadrature)
  (`errprob`),
- a reproducible Monte Carlo peeling-decoder simulator with an
  exhaustive small-instance oracle (`simulator`),
- a subcommand CLI emitting CSV/JSON artifacts with run manifests (`cli`).
"""

from .combinatorics import (
    binomial,
    block_partition_count,
    block_partition_table,
    double_factorial_odd,
    factorial,
    log10_fraction,
    log10_int,
    log_fraction,
    log_ratio,
    stirling_factorial,
    stirling_relative_error,
)
from .errors import (
    CoverageError,
    CyclePoissonError,
    GuardError,
    TableFormatError,
    ToleranceNotMetError,
    ValidationError,
)
from .errprob import (
    ContourResult,
    ErrProbQuery,
    ErrProbResult,
    HadamardSplitReport,
    KnownSeriesReport,
    block_error_probability,
    default_contour_radius,
    expected_block_error,
    hadamard_contour,
    hadamard_split_report,
    inner_power_sum,
    known_series_check,
)
from .pde import (
    AlphaCase,
    AlphaSubstitution,
    AuditReport,
    RegionMap,
    ResidualReport,
    alpha_case,
    alpha_discriminant,
    alpha_substitution,
    classify_point,
    discriminant,
    expansion_audit,
    pde_coefficients,
    pde_residual,
    recurrence_pde_coefficients,
    region_map,
    residual_reconciliation,
)
from .series import Series, geometric_series, monomial, poisson_block_series
from .simulator import (
    CounterRng,
    SampledCode,
    SimResult,
    estimate_block_error,
    exhaustive_block_error,
    peel,
    replay_trial,
    sample_code,
    wilson_interval,
)
from .table import (
    CoeffTable,
    EnsembleParams,
    boundary_layer,
    brute_force_profile_counts,
    fill_table,
    growth_profile,
    load_table,
    save_table,
    stopping_set_count,
    verify_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "Series",
    "poisson_block_series",
    "geometric_series",
    "monomial",
    # combinatorics
    "factorial",
    "double_factorial_odd",
    "binomial",
    "stirling_factorial",
    "stirling_relative_error",
    "block_partition_count",
    "block_partition_table",
    "log10_int",
    "log10_fraction",
    "log_fraction",
    "log_ratio",
    # table
    "EnsembleParams",
    "CoeffTable",
    "stopping_set_count",
    "brute_force_profile_counts",
    "fill_table",
    "verify_table",
    "boundary_layer",
    "growth_profile",
    "save_table",
    "load_table",
    # pde
    "pde_coefficients",
    "recurrence_pde_coefficients",
    "discriminant",
    "classify_point",
    "region_map",
    "RegionMap",
    "alpha_substitution",
    "AlphaSubstitution",
    "alpha_discriminant",
    "alpha_case",
    "AlphaCase",
    "expansion_audit",
    "AuditReport",
    "pde_residual",
    "residual_reconciliation",
    "ResidualReport",
    # errprob
    "ErrProbQuery",
    "ErrProbResult",
    "block_error_probability",
    "expected_block_error",
    "inner_power_sum",
    "known_series_check",
    "KnownSeriesReport",
    "hadamard_split_report",
    "HadamardSplitReport",
    "hadamard_contour",
    "default_contour_radius",
    "ContourResult",
    # simulator
    "CounterRng",
    "SampledCode",
    "sample_code",
    "peel",
    "replay_trial",
    "estimate_block_error",
    "exhaustive_block_error",
    "wilson_interval",
    "SimResult",
    # errors
    "CyclePoissonError",
    "ValidationError",
    "GuardError",
    "CoverageError",
    "TableFormatError",
    "ToleranceNotMetError",
]
