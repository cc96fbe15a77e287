"""Spectral estimator: asymptotic drift plus von Mangoldt cosine resonances.

The drift term is Cipolla's five-term expansion of the n-th prime; on top
of it rides an amplitude-scaled sum of cos(2 pi n / ln k) weighted by the
von Mangoldt function and truncated at k <= floor(sqrt(drift)).  The model
is phenomenological: residuals against the sieve oracle are reported and
never asserted small, and the unresolved oscillatory tail is carried as
exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EstimatorColumns, PrimeTable


def _mangoldt_points(upto: int, table: PrimeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prime powers k <= upto ascending, their logs and their von Mangoldt weights `math.log(p)`;
    the k of weight zero are left out, since they add nothing to a weighted sum."""
    points = []
    for p in table.prime_array[: table.pi(upto)]:
        weight = math.log(p)
        q = p
        while q <= upto:
            points.append((q, weight))
            q *= p
    points.sort()
    ks = np.array([k for k, _ in points], dtype=np.int64)
    return ks, np.log(ks), np.array([w for _, w in points])


def _drift_and_oscillation(n_lo: int, n_hi: int, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """Cipolla's drift and the cosine sum up to isqrt(drift), n in [n_lo, n_hi], as float64 columns on
    `math.log` values; the cosine terms are evaluated per block of n that share a cutoff, each row `math.fsum`med."""
    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    log_n = np.fromiter(map(math.log, range(n_lo, n_hi + 1)), np.float64, len(ns))
    loglog = np.fromiter(map(math.log, memoryview(log_n)), np.float64, len(ns))
    # n times Cipolla's five-term bracket in powers of 1/ln n
    drift = ns * (
        log_n + loglog - 1.0 + (loglog - 2.0) / log_n
        - (loglog * loglog - 6.0 * loglog + 11.0) / (2.0 * log_n * log_n)
    )
    del log_n, loglog
    # isqrt(int(drift)) as floats, exact while drift < 2^52; the sum is empty below drift 4
    cutoffs = np.sqrt(np.floor(np.maximum(drift, 0.0))).astype(np.int64)
    cutoffs[drift < 4.0] = 0
    top = int(cutoffs.max(initial=0))
    if top > table.limit:
        raise ValueError(f"spectral cutoff {top} is beyond sieve limit {table.limit}")
    ks, log_ks, weights = _mangoldt_points(top, table)
    oscillation = np.zeros(len(ns))
    starts = np.flatnonzero(np.diff(cutoffs, prepend=-1)).tolist()
    for start, stop, cutoff in zip(starts, starts[1:] + [len(ns)], cutoffs[starts].tolist()):
        cut = int(np.searchsorted(ks, cutoff, side="right"))
        terms = weights[:cut] * np.cos(ns[start:stop, None] * (2.0 * math.pi) / log_ks[:cut])
        oscillation[start:stop] = [*map(math.fsum, terms.tolist())]
    return drift, oscillation


def least_squares_amplitude(residuals, oscillations) -> float:
    """Closed-form 1-D least squares: sum(r*o) / sum(o^2), each sum exactly rounded; 0 when degenerate."""
    residuals, oscillations = np.asarray(residuals, np.float64), np.asarray(oscillations, np.float64)
    denom = math.fsum((oscillations * oscillations).tolist())
    if denom == 0.0:
        return 0.0
    return math.fsum((residuals * oscillations).tolist()) / denom


def calibrate_amplitude(lo: int, hi: int, table: PrimeTable) -> float:
    """Least-squares amplitude of the oscillation against oracle drift residuals.

    Fits p_n - drift(n) ~ amplitude * oscillation(n) over the calibration
    window lo <= n <= hi; deterministic, fixed summation order.
    """
    if lo < 3:
        raise ValueError("calibration window must start at n >= 3")
    if hi <= lo:
        raise ValueError("calibration window is empty")
    if hi > len(table.prime_array):
        raise ValueError(f"calibration window reaches n={hi}, beyond the oracle range")
    drift, oscillations = _drift_and_oscillation(lo, hi, table)
    residuals = np.subtract(table.prime_view[lo - 1 : hi], drift, out=drift)
    return least_squares_amplitude(residuals, oscillations)


def spectral_sweep(n_lo: int, n_hi: int, amplitude: float, table: PrimeTable) -> EstimatorColumns:
    """Drift plus amplitude-scaled resonance for n in [n_lo, n_hi]; the unresolved tail adds zero."""
    if n_lo < 3:
        raise ValueError("sweep needs n_lo >= 3")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    table.nth(n_hi)  # range check
    drift, oscillation = _drift_and_oscillation(n_lo, n_hi, table)
    with np.errstate(over="ignore"):  # `against` refuses an estimate that overflowed
        estimates = np.add(drift, np.multiply(oscillation, amplitude, out=oscillation), out=drift)
    del oscillation
    return EstimatorColumns.against(n_lo, memoryview(table.prime_array)[n_lo - 1 : n_hi], estimates)
