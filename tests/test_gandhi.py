"""Exact Gandhi-formula tests: inclusion-exclusion, extraction, Monte Carlo."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeforms import gandhi
from primeforms.core import InvariantViolation, ResourceLimitError
from primeforms.gandhi import (
    GandhiEvaluation,
    evaluate,
    extract_prime,
    monte_carlo_survivor_fraction,
    survivor_probability,
)

import reference
from reference import fraction, gandhi_violations, ratio


def test_probability_hand_values(table):
    assert fraction(survivor_probability(1, table)) == Fraction(2, 3)
    expected = 1 - Fraction(1, 3) - Fraction(1, 7) + Fraction(1, 63)
    assert fraction(survivor_probability(2, table)) == expected


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
        assert probability == (numerator // common, q // common), n
        common_factors.append(q // probability[1])
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
        diff = fraction(survivor_probability(n, table)) - partial
        assert Fraction(0) < diff < Fraction(1, 2**200), n


def test_extraction_hand_values(table):
    assert extract_prime((2, 3)) == 3  # excess 1/6, 8/6 lies in (1, 2)
    assert extract_prime(survivor_probability(2, table)) == 5
    assert extract_prime(survivor_probability(6, table)) == 17


def test_evaluation_sweep_matches_oracle(table):
    for n in range(1, 8):
        ev = evaluate(n, table)
        assert ev.extracted_prime == table.nth(n + 1)
        assert Fraction(0) < fraction(ev.scaled_remainder) < Fraction(1, 2)
        assert ev.subset_count == 2**n - 1
        assert ev.violations() == []


def test_readout_is_the_normalised_fraction_arithmetic(table):
    # the readout takes no gcd, so each pair must come out in lowest terms already;
    # at n = 7 the Decimals are checked against str() by test_gandhi_rationals_print_as_plain_str
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the n = 6 terms have ~9k digits
    try:
        for n in range(1, 8):
            ev = evaluate(n, table)
            probability = fraction(survivor_probability(n, table))
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
        probability = fraction(survivor_probability(n, table))
        next_p = table.nth(n + 1)
        lower = Fraction(1, 2) + Fraction(1, 2**next_p)
        assert lower < probability < lower + Fraction(1, 2 ** (next_p + 1)), n


def _extracted(extract, probability):
    """extract(probability), or the message of the InvariantViolation it raises."""
    try:
        return extract(probability)
    except InvariantViolation as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    excess=st.one_of(st.just(Fraction(0)), st.integers(0, 40).map(lambda k: Fraction(1, 2**k))),
    offset=st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    scale=st.integers(0, 60),
    common=st.integers(1, 6),
)
@example(excess=Fraction(0), offset=Fraction(0), scale=0, common=1)  # probability 1/2
@example(excess=Fraction(1, 4), offset=Fraction(0), scale=0, common=1)  # 3/4: the excess doubles to 1, then to 2
@example(excess=Fraction(1, 4), offset=Fraction(0), scale=0, common=2)  # 6/8, the same not in lowest terms
@example(excess=Fraction(1, 8), offset=Fraction(1, 24), scale=0, common=1)  # 2/3, extracted at m = 3
def test_integer_extraction_matches_the_fraction_extraction(excess, offset, scale, common):
    # excesses over 1/2 within 10^-scale of 0 or of 2^-k, where the scaled excess reaches 1 and
    # then 2, on either side; the pair is handed over times `common`, unreduced
    probability = Fraction(1, 2) + excess + offset / 10**scale
    pair = (probability.numerator * common, probability.denominator * common)
    assert _extracted(extract_prime, pair) == _extracted(reference.extract_prime, pair)


@settings(max_examples=150, deadline=None)
@given(
    remainder=st.sampled_from([Fraction(0), Fraction(1, 2)]),
    scaled=st.sampled_from([Fraction(1), Fraction(2)]),
    offsets=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=10**6), min_size=2, max_size=2),
    scale=st.integers(0, 60),
    m=st.integers(0, 40),
)
@example(remainder=Fraction(0), scaled=Fraction(1), offsets=[Fraction(0), Fraction(0)], scale=0, m=3)
@example(remainder=Fraction(1, 2), scaled=Fraction(2), offsets=[Fraction(0), Fraction(0)], scale=0, m=3)
def test_integer_bounds_match_the_fraction_bounds(remainder, scaled, offsets, scale, m):
    # scaled remainders within 10^-scale of 0 or 1/2 and scaled excesses within it of 1 or 2, on either side
    half_excess = (scaled + offsets[1] / 10**scale) / 2**m
    evaluation = GandhiEvaluation(
        n=3,
        probability=ratio(half_excess + Fraction(1, 2)),
        half_excess=ratio(half_excess),
        extracted_prime=m,
        scaled_remainder=ratio(remainder + offsets[0] / 10**scale),
        subset_count=7,
    )
    assert evaluation.violations() == gandhi_violations(evaluation)


def test_resource_limit_above_seven(table):
    with pytest.raises(ResourceLimitError) as err:
        survivor_probability(8, table)
    assert "2^8" in str(err.value)


def test_monte_carlo_within_four_sigma(table):
    for n in (1, 4):
        numerator, denominator = survivor_probability(n, table)
        exact = numerator / denominator
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
