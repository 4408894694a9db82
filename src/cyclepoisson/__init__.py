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

Importing the package imports none of these modules.  Each name in
`__all__` is resolved on first use, which imports its home module (and
that module's own imports: numpy only with `simulator`), so a program
pays only for the modules it reads.
"""

import importlib

__version__ = "0.1.0"

# each exported name, under the module that defines it, in __all__ order
_EXPORTS = {
    "series": ["Series", "poisson_block_series", "geometric_series", "monomial"],
    "combinatorics": [
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
    ],
    "table": [
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
    ],
    "pde": [
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
    ],
    "errprob": [
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
        "ContourResult",
    ],
    "simulator": [
        "CounterRng",
        "SampledCode",
        "sample_code",
        "peel",
        "replay_trial",
        "estimate_block_error",
        "exhaustive_block_error",
        "wilson_interval",
        "SimResult",
    ],
    "errors": [
        "CyclePoissonError",
        "ValidationError",
        "GuardError",
        "CoverageError",
        "TableFormatError",
        "ToleranceNotMetError",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # called only for a name not yet bound here; binding it makes the next
    # access an ordinary global lookup
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
