"""Toolkit for exact and phenomenological expressions of the n-th prime.

Three formula families are implemented and profiled against a sieve oracle:

* an exact discrete-sieving identity whose harmonic-sum certificate is
  carried in exact rational arithmetic (`sieve_identity`),
* Gandhi's inclusion-exclusion formula, evaluated exactly with a Monte
  Carlo check of its probabilistic derivation (`gandhi`),
* spectral-resonance and survival-dynamics estimators whose residuals are
  measured, never asserted (`spectral`, `survival`).

The certificates and the estimators are computed as sweeps over a range of n
(`certificate_sweep`, `spectral_sweep`, `survival_sweep`, `capacity_sweep`);
a one-n sweep is the value at that n.  `core` holds the sieve oracle and
arithmetic functions; `harness` is the CLI producing CSV/JSON reports.
"""

from .core import (
    DEFAULT_SIEVE_LIMIT,
    EstimatorColumns,
    InvariantViolation,
    PrimeTable,
    ResourceLimitError,
    log_integral,
    sieve,
)
from .gandhi import (
    GandhiEvaluation,
    evaluate,
    extract_prime,
    float_log2_extraction,
    geometric_divisibility,
    monte_carlo_survivor_fraction,
    survivor_probability,
)
from .sieve_identity import (
    CertificateReport,
    certificate_sweep,
    coprime_indicator,
    harmonic_certificate,
    next_prime_sweep,
    next_prime_via_filter,
)
from .spectral import (
    SpectralParams,
    calibrate_amplitude,
    cipolla_drift,
    oscillation_sum,
    spectral_sweep,
)
from .survival import (
    EULER_GAMMA,
    SelbergSolution,
    brun_partial,
    capacity,
    capacity_fixed_point,
    capacity_sweep,
    entropy,
    mertens_sweep,
    selberg_minimize,
    surprisal,
    survival_sweep,
)

__all__ = [
    "DEFAULT_SIEVE_LIMIT",
    "EULER_GAMMA",
    "CertificateReport",
    "EstimatorColumns",
    "GandhiEvaluation",
    "InvariantViolation",
    "PrimeTable",
    "ResourceLimitError",
    "SelbergSolution",
    "SpectralParams",
    "brun_partial",
    "calibrate_amplitude",
    "certificate_sweep",
    "capacity",
    "capacity_fixed_point",
    "capacity_sweep",
    "cipolla_drift",
    "coprime_indicator",
    "entropy",
    "evaluate",
    "extract_prime",
    "float_log2_extraction",
    "geometric_divisibility",
    "harmonic_certificate",
    "log_integral",
    "mertens_sweep",
    "monte_carlo_survivor_fraction",
    "next_prime_sweep",
    "next_prime_via_filter",
    "oscillation_sum",
    "selberg_minimize",
    "sieve",
    "spectral_sweep",
    "surprisal",
    "survivor_probability",
    "survival_sweep",
]
