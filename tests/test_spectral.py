"""Spectral estimator tests: drift accuracy, oscillation sum, calibration."""

import math

import numpy as np
import pytest

from primeforms import spectral
from primeforms.core import EstimatorColumns
from primeforms.spectral import calibrate_amplitude, least_squares_amplitude, spectral_sweep

from reference import cipolla_drift, oscillation_sum, von_mangoldt


def test_drift_tracks_oracle(table):
    assert abs(cipolla_drift(1000) / table.nth(1000) - 1) < 0.02  # p_1000 = 7919
    assert abs(cipolla_drift(10_000) / table.nth(10_000) - 1) < 0.01


def test_drift_strictly_increasing(table):
    previous = cipolla_drift(3)
    for n in range(4, 100_001):
        current = cipolla_drift(n)
        assert current > previous, n
        previous = current


def test_oscillation_empty_below_cutoff(table):
    # the drift at n = 3 is still negative, so the cutoff admits no k >= 2
    assert oscillation_sum(3, table) == 0.0


def test_oscillation_matches_reversed_reevaluation(table):
    n = 10
    drift = cipolla_drift(n)
    cutoff = math.isqrt(int(drift))
    total = 0.0
    for k in range(cutoff, 1, -1):  # reversed naive loop, independent of numpy path
        weight = von_mangoldt(table, k)
        if weight:
            total += weight * math.cos(2.0 * math.pi * n / math.log(k))
    assert abs(oscillation_sum(n, table) - total) <= 1e-12


def test_oscillation_bounded_by_chebyshev_psi(table):
    for n in (10, 137, 1000, 9999):
        drift = cipolla_drift(n)
        cutoff = math.isqrt(int(drift))
        psi = math.fsum(von_mangoldt(table, k) for k in range(2, cutoff + 1))
        assert abs(oscillation_sum(n, table)) <= psi + 1e-12, n


def test_calibration_degenerate_window_gives_zero(table):
    # every oscillation in [3, 6] is the empty sum, so the regressor vanishes
    assert calibrate_amplitude(3, 6, table) == 0.0


def test_calibration_matches_grid_search_oracle(table):
    window = range(10, 201)
    residuals = np.array([table.nth(n) - cipolla_drift(n) for n in window])
    oscillations = np.array([oscillation_sum(n, table) for n in window])
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    squared = ((residuals[None, :] - grid[:, None] * oscillations[None, :]) ** 2).sum(axis=1)
    grid_best = float(grid[int(np.argmin(squared))])
    closed_form = least_squares_amplitude(residuals.tolist(), oscillations.tolist())
    assert abs(closed_form - grid_best) <= 1e-3  # grid resolution


def test_calibration_invariant_under_duplicated_window(table):
    window = range(10, 101)
    residuals = [table.nth(n) - cipolla_drift(n) for n in window]
    oscillations = [oscillation_sum(n, table) for n in window]
    once = least_squares_amplitude(residuals, oscillations)
    twice = least_squares_amplitude(residuals * 2, oscillations * 2)
    assert math.isclose(once, twice, rel_tol=1e-12)


def test_calibration_does_not_hurt_window_residual(table):
    amplitude = calibrate_amplitude(10, 1000, table)
    window = range(10, 1001)
    residuals = [table.nth(n) - cipolla_drift(n) for n in window]
    oscillations = [oscillation_sum(n, table) for n in window]
    ssr_zero = math.fsum(r * r for r in residuals)
    ssr_fit = math.fsum((r - amplitude * o) ** 2 for r, o in zip(residuals, oscillations))
    assert ssr_fit <= ssr_zero + 1e-9


def test_estimate_with_zero_amplitude_floors_the_drift(table):
    columns = spectral_sweep(10, 5000, 0.0, table)
    for n in (10, 100, 5000):
        assert columns.floored[n - 10] == math.floor(cipolla_drift(n))


def test_estimate_record_fields_are_consistent(table):
    (n,), (p_n,), (estimate,), _, (residual,), (rel_error,) = spectral_sweep(100, 100, 0.05, table)
    assert (n, p_n) == (100, 541)
    assert residual == p_n - estimate
    assert rel_error == residual / p_n


def test_sweep_is_deterministic(table):
    first = spectral_sweep(10, 200, 0.0459, table)
    second = spectral_sweep(10, 200, 0.0459, table)
    assert all(a == b for a, b in zip(first.estimate, second.estimate))


def bits(values):
    """Values with every float as its hex string, so -0.0 and nan compare by their bits."""
    return [value.hex() if isinstance(value, float) else value for value in values]


def test_sweep_columns_are_the_scalar_estimates_bit_for_bit(monkeypatch, table):
    amplitude = 0.0459
    built, real = [], spectral._mangoldt_points

    def counted(upto, table):
        built.append(upto)
        return real(upto, table)

    monkeypatch.setattr(spectral, "_mangoldt_points", counted)
    # on some numpy builds, numpy's log differs from math.log in the last bit at n = 9170;
    # the cutoff passes 1024 at n = 82,257
    for n_lo, n_hi in ((3, 10_000), (3, 3), (997, 1_200), (82_200, 82_320)):
        built.clear()
        columns = spectral_sweep(n_lo, n_hi, amplitude, table)
        # built once, for the cutoff at n_hi; the drift at n = 3 is negative and its cutoff 0
        assert built == [math.isqrt(int(cipolla_drift(n_hi))) if n_hi > 3 else 0]
        assert {len(getattr(columns, field)) for field in EstimatorColumns._fields} == {n_hi - n_lo + 1}
        for n in range(n_lo, n_hi + 1):
            estimate = cipolla_drift(n) + amplitude * oscillation_sum(n, table)
            residual = table.nth(n) - estimate
            expected = (n, table.nth(n), estimate, math.floor(estimate), residual, residual / table.nth(n))
            row = [getattr(columns, field)[n - n_lo] for field in EstimatorColumns._fields]
            assert bits(row) == bits(expected), n


def test_calibrated_amplitude_is_the_scalar_fit_bit_for_bit(table):
    for lo, hi in ((10, 1_000), (3, 40), (997, 1_200)):
        window = range(lo, hi + 1)
        residuals = [table.nth(n) - cipolla_drift(n) for n in window]
        oscillations = [oscillation_sum(n, table) for n in window]
        fit = math.fsum(r * o for r, o in zip(residuals, oscillations)) / math.fsum(o * o for o in oscillations)
        assert calibrate_amplitude(lo, hi, table).hex() == fit.hex(), window


def test_params_validation(small_table):
    with pytest.raises(ValueError, match="start at n >= 3"):
        calibrate_amplitude(2, 10, small_table)
    with pytest.raises(ValueError, match="window is empty"):
        calibrate_amplitude(10, 10, small_table)
    with pytest.raises(ValueError, match="beyond the oracle range"):
        calibrate_amplitude(10, len(small_table.primes) + 1, small_table)
    for amplitude in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            spectral_sweep(3, 10, amplitude, small_table)
