"""Survival-dynamics toolkit: the growth-product estimator, the capacity
identity with Selberg-optimal weights, and Brun partial sums.

The common thread is the survival rate of integers under sieving by the
first n primes.  Mertens' third theorem pins its asymptotic scale at
e^(-gamma)/ln p_n; the growth-product estimator accumulates the same
depletion as one running product; the Selberg quadratic form replaces the
binary Möbius filter with real weights of minimal "resistance"; and the
capacity sum V(z) turns those weights into a density estimate.  Estimator
accuracy is never asserted, only measured against the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EstimatorColumns, InvariantViolation, PrimeTable, ResourceLimitError, sieve

# Euler-Mascheroni constant, 50 digits (rounds to the nearest float64).
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992


# -- growth-product estimator ------------------------------------------------


def survival_sweep(n_lo: int, n_hi: int, table: PrimeTable) -> EstimatorColumns:
    """Growth-product estimates (n ln n) * prod(1 + 1/(k ln k - ln ln k), 2 <= k <= n) * e^(-gamma).

    One running product in ascending k, `np.cumprod` of the float64 terms
    built on `math.log`, serves every n in [n_lo, n_hi].  The residual is
    recorded, never asserted small: the pre-asymptotic drift is one of the
    quantities this package exists to measure.
    """
    if n_lo < 3:
        raise ValueError("survival estimate needs n >= 3")
    table.nth(n_hi)  # range check
    logs = np.fromiter(map(math.log, range(2, n_hi + 1)), np.float64, n_hi - 1)
    terms = np.fromiter(map(math.log, memoryview(logs)), np.float64, n_hi - 1)  # ln ln k
    k_log_k = np.multiply(np.arange(2, n_hi + 1, dtype=np.float64), logs, out=logs)
    np.subtract(k_log_k, terms, out=terms)
    np.add(np.divide(1.0, terms, out=terms), 1.0, out=terms)
    estimates = np.multiply(k_log_k, np.cumprod(terms, out=terms), out=k_log_k)[n_lo - 2 :]
    del terms
    np.multiply(estimates, math.exp(-EULER_GAMMA), out=estimates)
    return EstimatorColumns.against(n_lo, memoryview(table.prime_array)[n_lo - 1 : n_hi], estimates)


# -- Selberg quadratic form --------------------------------------------------


@dataclass
class SelbergSolution:
    """Minimizer of the sieve quadratic form sum_{m<=x} (sum_{d|m, d<z} w_d)^2."""

    x: int
    z: int
    divisors: list[int]  # squarefree support, divisors[0] == 1
    weights: list[float]  # optimal w_d; weights[0] == 1 exactly (the constraint)
    gram: np.ndarray = field(repr=False)  # gram[i][j] = floor(x / lcm(d_i, d_j))
    minimum: float


def _moebius_below(z: int) -> np.ndarray:
    """mu(d) for 0 <= d < z, read off the sieve oracle; mu[0] == 0."""
    return sieve(max(z, 2)).moebius_values(max(z, 1))[: max(z, 0)]


def squarefree_support(z: int) -> list[int]:
    """Squarefree d < z, ascending: the support of the sieve weights."""
    return np.flatnonzero(_moebius_below(z)).tolist()


SELBERG_MAX_WEIGHTS = 64  # size cap of the dense small-instance solver
SELBERG_MAX_X = 1_000_000  # cap of the brute-force re-check, which holds a float64 per m <= x
# Largest z whose support fits the cap: the (cap + 1)-th squarefree number,
# since the support holds only the d below z.  Squarefree density 6/pi^2
# puts it well below 4 * cap.
SELBERG_MAX_Z = squarefree_support(4 * SELBERG_MAX_WEIGHTS)[SELBERG_MAX_WEIGHTS]


def quadratic_form_value(x: int, divisors: list[int], weights) -> float:
    """Direct evaluation of the quadratic form over m <= x (brute force): each w_d is added
    to the multiples of d in the order listed, so inner[m] takes the float adds of a loop
    over d for each m, and `math.fsum` rounds the sum of the squares exactly, in any order."""
    inner = np.zeros(x + 1)
    for d, w in zip(divisors, weights):
        inner[d::d] += w
    return math.fsum(np.square(inner[1:]).tolist())


def selberg_minimize(x: int, z: int) -> SelbergSolution:
    """Minimize the sieve quadratic form subject to w_1 = 1.

    Builds the Gram matrix G[d, e] = floor(x / lcm(d, e)) over squarefree
    d, e < z, eliminates the constrained coordinate, and solves the
    remaining symmetric positive-definite system.  The reported minimum is
    verified against a direct brute-force re-evaluation over m <= x.

    Non-squarefree d are excluded: classical sieve weights are supported on
    squarefree moduli, and mu^2(d) = 0 removes them from the capacity sum.
    """
    if not 2 <= z <= x:
        raise ValueError("need 2 <= z <= x")
    if x > SELBERG_MAX_X:
        raise ResourceLimitError(
            f"--x {x} is past the bound of the brute-force re-check; use --x {SELBERG_MAX_X} or smaller"
        )
    divisors = squarefree_support(z)
    if len(divisors) > SELBERG_MAX_WEIGHTS:
        raise ValueError(
            f"{len(divisors)} weights exceed the {SELBERG_MAX_WEIGHTS}-weight small-instance solver"
        )
    gram = np.array([[x // math.lcm(d, e) for e in divisors] for d in divisors], dtype=float)
    if len(divisors) == 1:
        weights = [1.0]
    else:
        body = gram[1:, 1:]
        rhs = -gram[1:, 0]
        try:
            tail = np.linalg.solve(body, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"singular Gram system for x={x}, z={z} "
                f"(condition estimate {np.linalg.cond(body):.3e})"
            ) from exc
        weights = [1.0] + [float(w) for w in tail]
    lam = np.asarray(weights)
    minimum = float(lam @ gram @ lam)
    brute = quadratic_form_value(x, divisors, weights)
    if abs(brute - minimum) > 1e-9 * max(1.0, abs(brute)):
        raise InvariantViolation(
            f"quadratic form mismatch for x={x}, z={z}: gram {minimum} vs direct {brute}"
        )
    return SelbergSolution(x=x, z=z, divisors=divisors, weights=weights, gram=gram, minimum=minimum)


# -- sieve capacity ----------------------------------------------------------


def _capacity_terms(z_max: int, table: PrimeTable) -> np.ndarray:
    """mu^2(d)/phi(d) for 0 <= d < z_max (z_max >= 2), and 0.0 at d = 0.

    On squarefree d, phi(d) is the product of p - 1 over the primes p | d,
    so one multiply per prime builds it; the product on the other d is
    never read.  Entry z - 1 of their `np.cumsum` is V(z): `cumsum` adds in
    ascending d, and a 0.0 term leaves a positive sum unchanged, so it is
    the sum accumulated over the squarefree d one at a time.
    """
    mu = table.moebius_values(z_max - 1)[:z_max]
    phi = np.ones(z_max, dtype=np.int64)
    for p in table.prime_array[: table.pi(z_max - 1)]:
        phi[p::p] *= p - 1
    return np.where(mu != 0, 1.0 / phi, 0.0)


def capacity_sweep(n_lo: int, n_hi: int, table: PrimeTable) -> EstimatorColumns:
    """Capacity-identity estimates n * V(z) at sieve level z = max(2, isqrt(p_n)), n in [n_lo, n_hi].

    V(z) = sum_{d<z} mu^2(d)/phi(d): the structural weight is fixed to the
    Euler totient, the classical choice for the prime sieve, so the values
    are V_phi.  z depends on the p_n it estimates, so the oracle p_n feeds
    it and the residual measures the identity, its sub-leading remainder
    carried as zero.
    """
    if n_lo < 2:
        raise ValueError("sweep needs n_lo >= 2")
    v = np.cumsum(_capacity_terms(max(2, math.isqrt(table.nth(n_hi))), table))
    p_n = memoryview(table.prime_array)[n_lo - 1 : n_hi]
    # a sieve that fits in memory keeps p_n < 2^52, where the float square root floors to isqrt(p_n)
    estimates = v[np.maximum(np.sqrt(table.prime_view[n_lo - 1 : n_hi]).astype(np.int64), 2) - 1]
    np.multiply(estimates, np.arange(n_lo, n_hi + 1, dtype=np.float64), out=estimates)
    return EstimatorColumns.against(n_lo, p_n, estimates)


# -- Brun partial sums --------------------------------------------------------


def brun_partial(x_max: int, table: PrimeTable) -> float:
    """Partial Brun sum: 1/p + 1/(p+2) over twin pairs with p + 2 <= x_max."""
    if x_max < 1:
        raise ValueError("scan bound must be positive")
    return math.fsum(1.0 / p + 1.0 / q for p, q in table.twin_pairs(x_max))
