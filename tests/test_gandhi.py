"""Exact Gandhi-formula tests: inclusion-exclusion, extraction, Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeforms import gandhi
from primeforms.core import ResourceLimitError
from primeforms.gandhi import (
    CancellationError,
    evaluate,
    extract_prime,
    float_log2_extraction,
    geometric_divisibility,
    monte_carlo_survivor_fraction,
    survivor_probability,
)


def test_geometric_divisibility_hand_values():
    assert geometric_divisibility(1) == 1
    assert geometric_divisibility(2) == Fraction(1, 3)
    assert geometric_divisibility(30) == Fraction(1, 2**30 - 1)
    with pytest.raises(ValueError):
        geometric_divisibility(0)


@given(d=st.integers(2, 60))
def test_geometric_divisibility_is_the_geometric_series(d):
    # partial sums of 2^-(kd) converge to 1/(2^d - 1); 40 terms pin it exactly
    partial = sum(Fraction(1, 2 ** (k * d)) for k in range(1, 40))
    tail_bound = Fraction(2, 2 ** (40 * d))
    assert partial < geometric_divisibility(d) < partial + tail_bound


def test_probability_hand_values(table):
    assert survivor_probability(1, table) == Fraction(2, 3)
    expected = 1 - Fraction(1, 3) - Fraction(1, 7) + Fraction(1, 63)
    assert survivor_probability(2, table) == expected


def _inclusion_exclusion_numerator(n, table):
    """Gandhi's sum times q = 2^P - 1, each q / (2^E - 1) spelled as E-bit blocks 0..01."""
    primes, total = table.primes[:n], table.primorial(n)
    numerator = 0
    for mask in range(1 << n):
        e = math.prod(p for j, p in enumerate(primes) if mask >> j & 1)
        term = int(("0" * (e - 1) + "1") * (total // e), 2)
        numerator += -term if mask.bit_count() % 2 else term
    return numerator


def test_probability_is_the_gcd_reduced_inclusion_exclusion_sum(table):
    common_factors = []
    for n in range(1, 8):
        numerator = _inclusion_exclusion_numerator(n, table)
        q = (1 << table.primorial(n)) - 1
        common = math.gcd(numerator, q)
        probability = survivor_probability(n, table)
        assert (probability.numerator, probability.denominator) == (
            numerator // common,
            q // common,
        ), n
        common_factors.append(q // probability.denominator)
        assert gandhi._golomb_numerator(table.primorial(n), table.primes[:n]) == numerator, n
    assert common_factors == [1, 1, 1, 3, 3, 9, 9]


def test_evaluation_past_the_gate_reduces_without_a_big_gcd(table):
    ev = evaluate(8, table, allow_large=True)
    assert ev.extracted_prime == 23
    assert ev.violations() == []
    assert ev.probability.denominator == ((1 << table.primorial(8)) - 1) // 9


def test_probability_matches_direct_survivor_measure(table):
    # independent route: sum 2^-m over m <= 200 coprime to the primorial,
    # which undershoots the exact probability by less than 2^-200
    for n in range(1, 6):
        partial = sum(Fraction(1, 2**m) for m in table.primorial_coprime(n, 200))
        diff = survivor_probability(n, table) - partial
        assert Fraction(0) < diff < Fraction(1, 2**200), n


def test_extraction_hand_values(table):
    assert extract_prime(Fraction(2, 3)) == 3  # excess 1/6, 8/6 lies in (1, 2)
    assert extract_prime(survivor_probability(2, table)) == 5
    assert extract_prime(survivor_probability(6, table)) == 17


def test_evaluation_sweep_matches_oracle(table):
    for n in range(1, 8):
        ev = evaluate(n, table)
        assert ev.extracted_prime == table.nth(n + 1)
        assert Fraction(0) < ev.scaled_remainder < Fraction(1, 2)
        assert ev.subset_count == 2**n - 1
        assert ev.violations() == []


def test_scaled_remainder_matches_normalised_formula(table):
    for n in range(1, 8):
        ev = evaluate(n, table)
        h = ev.half_excess
        expected = Fraction(h.numerator << ev.extracted_prime, h.denominator) - 1
        got = ev.scaled_remainder
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator), n


def test_probability_sandwich_exact(table):
    for n in range(1, 8):
        probability = survivor_probability(n, table)
        next_p = table.nth(n + 1)
        lower = Fraction(1, 2) + Fraction(1, 2**next_p)
        assert lower < probability < lower + Fraction(1, 2 ** (next_p + 1)), n


def test_float_extraction_hand_values(table):
    assert float_log2_extraction(survivor_probability(1, table)) == 3
    assert float_log2_extraction(survivor_probability(2, table)) == 5


def test_float_extraction_sweep_records_disagreements(table):
    # output, not an assertion: record where the 64-bit path first diverges
    disagreements = []
    for n in range(1, 8):
        probability = survivor_probability(n, table)
        try:
            float_m = float_log2_extraction(probability)
        except CancellationError:
            disagreements.append(n)
            continue
        if float_m != extract_prime(probability):
            disagreements.append(n)
    assert isinstance(disagreements, list)  # shape only; emptiness not asserted


def test_float_extraction_reports_catastrophic_cancellation():
    # a probability whose excess over 1/2 is far below float resolution
    collapsed = Fraction(1, 2) + Fraction(1, 2**200)
    with pytest.raises(CancellationError):
        float_log2_extraction(collapsed)


def test_resource_limit_above_seven(table):
    with pytest.raises(ResourceLimitError) as err:
        survivor_probability(8, table)
    assert "2^8" in str(err.value)


def test_monte_carlo_within_four_sigma(table):
    for n in (1, 4):
        exact = float(survivor_probability(n, table))
        estimate = monte_carlo_survivor_fraction(n, 10**6, 42, table)
        sigma = math.sqrt(exact * (1 - exact) / 10**6)
        assert abs(estimate - exact) <= 4 * sigma, n


def test_monte_carlo_is_deterministic(table):
    a = monte_carlo_survivor_fraction(3, 10**5, 123, table)
    b = monte_carlo_survivor_fraction(3, 10**5, 123, table)
    assert a == b


def test_monte_carlo_rejects_tiny_sample_counts(table):
    with pytest.raises(ValueError):
        monte_carlo_survivor_fraction(1, 9_999, 42, table)


def _per_sample_reference(draws, n, table):
    """The estimate as one boolean per draw, the way it was computed before the histogram."""
    coprime = np.ones(draws.size, dtype=bool)
    for i in range(1, n + 1):
        coprime &= (draws % table.nth(i)) != 0
    return float(coprime.mean())


def _reference_draws(samples, seed):
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(samples)
    draws = np.ceil(-np.log2(u)).astype(np.int64)
    np.maximum(draws, 1, out=draws)
    return draws


def test_monte_carlo_matches_the_per_sample_estimate_bit_for_bit(table):
    seeds = (0, 1, 42, 12345)
    for samples in (10_000, 10_001, 1_000_000):
        draws = {seed: _reference_draws(samples, seed) for seed in seeds}
        # descending n with the seeds interleaved, so a stale memo shows
        for n in range(7, 0, -1):
            for seed in seeds:
                expected = _per_sample_reference(draws[seed], n, table)
                got = monte_carlo_survivor_fraction(n, samples, seed, table)
                assert type(got) is float
                assert got == expected, (samples, seed, n)


def test_monte_carlo_draw_counts_are_read_only():
    counts = gandhi._draw_counts(10_000, 42)
    assert counts.sum() == 10_000
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[1] += 1
