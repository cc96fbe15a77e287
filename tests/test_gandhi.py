"""Exact Gandhi-formula tests: inclusion-exclusion, extraction, Monte Carlo."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from primeforms import gandhi
from primeforms.core import ResourceLimitError
from primeforms.gandhi import evaluate, extract_prime, monte_carlo_survivor_fraction, survivor_probability


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


def test_readout_is_the_normalised_fraction_arithmetic(table):
    # coprime_fraction skips the gcd, so each pair must come out in lowest terms already;
    # at n = 7 the Decimals are checked against str() by test_gandhi_rationals_print_as_plain_str
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the n = 6 terms have ~9k digits
    try:
        for n in range(1, 8):
            ev = evaluate(n, table)
            probability = survivor_probability(n, table)
            half_excess = probability - Fraction(1, 2)
            expected = (probability, half_excess, half_excess * 2**ev.extracted_prime - 1)
            for got, want in zip((ev.probability, ev.half_excess, ev.scaled_remainder), expected):
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), n
                if n < 7:
                    assert tuple(map(str, got.decimals)) == (str(want.numerator), str(want.denominator)), n
    finally:
        sys.set_int_max_str_digits(limit)


def test_probability_sandwich_exact(table):
    for n in range(1, 8):
        probability = survivor_probability(n, table)
        next_p = table.nth(n + 1)
        lower = Fraction(1, 2) + Fraction(1, 2**next_p)
        assert lower < probability < lower + Fraction(1, 2 ** (next_p + 1)), n


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
    for samples in (10_000, 10_001, 65_535, 65_536, 65_537, 1_000_000):
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
