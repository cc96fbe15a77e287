"""Survival-dynamics tests: growth product, Selberg, capacity, Brun."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from primeforms.survival import (
    EULER_GAMMA,
    SELBERG_MAX_Z,
    brun_partial,
    capacity_sweep,
    quadratic_form_value,
    selberg_minimize,
    squarefree_support,
    survival_sweep,
)
from primeforms.core import EstimatorColumns
from primeforms.survival import _capacity_terms

from reference import capacity, moebius_truncation_value, quadratic_form_loop


def test_params_pin_the_density_constant():
    assert 0.5614 < math.exp(-EULER_GAMMA) < 0.5615


# -- growth-product estimator ------------------------------------------------------


def test_survival_estimate_hand_product(table):
    d2 = 2 * math.log(2) - math.log(math.log(2))
    d3 = 3 * math.log(3) - math.log(math.log(3))
    expected = 3 * math.log(3) * (1 + 1 / d2) * (1 + 1 / d3) * math.exp(-EULER_GAMMA)
    columns = survival_sweep(3, 3, table)
    assert math.isclose(columns.estimate[0], expected, rel_tol=1e-14)
    assert columns.floored[0] == math.floor(expected)


def test_survival_estimate_records_residual_sign_at_100(table):
    # measured: the estimator overshoots p_100 = 541 (residual < 0); recorded,
    # not asserted, since no error bound exists for this expression.
    columns = survival_sweep(100, 100, table)
    assert math.isfinite(columns.estimate[0]) and columns.estimate[0] > 0
    assert columns.residual[0] == columns.p_n[0] - columns.estimate[0]


def test_survival_sweep_matches_per_call(table):
    # a sweep started at n runs the product up to n before its first row
    sweep = survival_sweep(3, 400, table)
    for n in (3, 57, 400):
        alone = survival_sweep(n, n, table)
        assert alone.n[0] == sweep.n[n - 3] == n
        assert alone.estimate[0] == sweep.estimate[n - 3]


def survival_product(n, table):
    """The growth-product estimate at n, its product multiplied out directly."""
    product = 1.0
    for k in range(2, n + 1):
        product *= 1.0 + 1.0 / (k * math.log(k) - math.log(math.log(k)))
    return n * math.log(n) * product * math.exp(-EULER_GAMMA)


def survival_products(n_lo, n_hi, table):
    """survival_product(n) for n in [n_lo, n_hi], from one running product in Python floats."""
    product, estimates = 1.0, []
    for k in range(2, n_hi + 1):
        product *= 1.0 + 1.0 / (k * math.log(k) - math.log(math.log(k)))
        if k >= n_lo:
            estimates.append(k * math.log(k) * product * math.exp(-EULER_GAMMA))
    return estimates


def capacity_at_oracle_level(n, table):
    """The capacity estimate at n: n V(z) at z = max(2, isqrt(p_n)), V summed on its own."""
    return n * capacity(max(2, math.isqrt(table.nth(n))), table)[0]


def capacities_at_oracle_level(n_lo, n_hi, table):
    """capacity_at_oracle_level(n) for n in [n_lo, n_hi]."""
    return [capacity_at_oracle_level(n, table) for n in range(n_lo, n_hi + 1)]


def bits(record):
    """A record's fields with every float as its hex string, so -0.0 and nan compare by their bits."""
    return [value.hex() if isinstance(value, float) else value for value in record]


@pytest.mark.parametrize(
    "sweep, scalar, n_lo, n_hi",
    [(survival_sweep, survival_products, 3, 20_000), (capacity_sweep, capacities_at_oracle_level, 2, 3_000)],
    ids=["survival_sweep-survival_product-3", "capacity_sweep-capacity_at_oracle_level-2"],
)
def test_sweep_columns_are_the_scalar_estimates_bit_for_bit(table, sweep, scalar, n_lo, n_hi):
    # on some numpy builds, numpy's log differs from math.log in the last bit at k = 9170 and 19143
    for lo, hi in ((n_lo, n_hi), (3, 3), (997, 1_200)):
        columns = sweep(lo, hi, table)
        assert {len(getattr(columns, field)) for field in EstimatorColumns._fields} == {hi - lo + 1}
        for n, estimate in enumerate(scalar(lo, hi, table), start=lo):
            p_n = table.nth(n)
            expected = (n, p_n, estimate, math.floor(estimate), p_n - estimate, (p_n - estimate) / p_n)
            row = [getattr(columns, field)[n - lo] for field in EstimatorColumns._fields]
            assert bits(row) == bits(expected), n


def test_survival_estimate_equals_direct_product_exactly(table):
    columns = survival_sweep(3, 400, table)
    for n in (3, 4, 57, 400):
        expected = survival_product(n, table)
        i = n - 3
        assert (columns.estimate[i], columns.floored[i]) == (expected, math.floor(expected))
        assert columns.residual[i] == columns.p_n[i] - expected
        assert columns.rel_error[i] == (columns.p_n[i] - expected) / columns.p_n[i]


def test_survival_sweep_strictly_increasing(table):
    estimates = survival_sweep(3, 2_000, table).estimate
    assert all(b > a for a, b in zip(estimates, estimates[1:]))


def test_estimator_columns_take_three_floats_a_row(table):
    # the scores are written into their array("d")s, with no full-size copy beside them,
    # and floored is read off estimate: 100k rows peak below 36 bytes a row, where
    # per-row floor ints and copies of every score took over 80
    p_n = table.primes[2:100_002]
    estimates = np.multiply(p_n, 1.01)
    tracemalloc.start()
    try:
        columns = EstimatorColumns.against(3, p_n, estimates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * len(p_n)
    i = 70_000
    assert (columns.estimate[i], columns.floored[i]) == (estimates[i], math.floor(estimates[i]))
    assert columns.residual[i] == p_n[i] - estimates[i]
    assert columns.rel_error[i] == (p_n[i] - estimates[i]) / p_n[i]


def test_floored_is_the_exact_floor_past_int64():
    # `spectral --alpha 1e300` prints such floors, which no int64 column could hold
    columns = EstimatorColumns.against(3, [5, 7], [1e300, -1e300])
    expected = [math.floor(1e300), math.floor(-1e300)]
    assert expected[0] > 2**63 and expected[1] < -(2**63)
    assert [columns.floored[0], columns.floored[1]] == columns.floored[0:2] == [*columns.floored] == expected
    assert len(columns.floored) == 2


# -- Selberg quadratic form ----------------------------------------------------------


def test_selberg_hand_instance():
    solution = selberg_minimize(10, 3)
    assert solution.divisors == [1, 2]
    assert solution.weights[0] == 1.0
    assert math.isclose(solution.weights[1], -1.0, abs_tol=1e-12)
    assert math.isclose(solution.minimum, 5.0, abs_tol=1e-9)  # the five odd m <= 10


def test_selberg_level_two_does_not_sieve():
    solution = selberg_minimize(30, 2)
    assert solution.divisors == [1]
    assert solution.weights == [1.0]
    assert solution.minimum == 30.0


def test_selberg_beats_moebius_truncation():
    solution = selberg_minimize(30, 5)
    assert solution.minimum <= moebius_truncation_value(30, 5) + 1e-12


def test_selberg_random_instances_kkt_and_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        x = rng.randint(20, 500)
        z = rng.randint(2, 20)
        solution = selberg_minimize(x, z)
        assert solution.weights[0] == 1.0
        gradient = solution.gram @ np.asarray(solution.weights)
        assert all(abs(g) < 1e-9 for g in gradient[1:])  # KKT: free coordinates flat
        brute = quadratic_form_value(x, solution.divisors, solution.weights)
        assert abs(brute - solution.minimum) <= 1e-9 * max(1.0, brute)
        assert solution.minimum <= moebius_truncation_value(x, z) + 1e-12


def trial_division_moebius(d: int) -> int:
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def test_support_and_truncation_signs_match_trial_division():
    for z in range(1, 400):
        support = squarefree_support(z)
        assert support == [d for d in range(1, z) if trial_division_moebius(d)]
    for x, z in ((30, 5), (200, 40), (500, 105)):
        support = squarefree_support(z)
        signs = [float(trial_division_moebius(d)) for d in support]
        assert moebius_truncation_value(x, z) == quadratic_form_value(x, support, signs)


@pytest.mark.parametrize("x", [10, 30, 1000, 12345])
def test_quadratic_form_value_matches_the_loop_bit_for_bit(x):
    # the same float adds per m as the loop over m, under the Selberg weights and the Möbius signs
    for z in (2, 3, 5, 30, 57, SELBERG_MAX_Z):
        if z > x:
            continue
        solution = selberg_minimize(x, z)
        signs = [float(trial_division_moebius(d)) for d in solution.divisors]
        for weights in (solution.weights, signs, signs[::-1]):
            value = quadratic_form_value(x, solution.divisors, weights)
            assert value == quadratic_form_loop(x, solution.divisors, weights), (x, z)


def test_selberg_rejects_bad_levels():
    with pytest.raises(ValueError):
        selberg_minimize(10, 1)
    with pytest.raises(ValueError):
        selberg_minimize(5, 6)


# -- capacity ---------------------------------------------------------------------


def test_capacity_hand_values(table):
    assert capacity(2, table) == (1.0, 1.0)
    v, c = capacity(4, table)
    assert v == 2.5 and c == 0.4
    assert capacity(10, table)[0] > v


def test_capacity_estimate_small_values(table):
    estimates = capacity_sweep(2, 100, table).estimate
    assert estimates[0] == 2.0  # n = 2: z = isqrt(3) clamps to 2
    assert math.isfinite(estimates[-1]) and estimates[-1] > 0


def test_capacity_sweep_matches_per_call(table):
    sweep = capacity_sweep(2, 3_000, table)
    for n in range(2, 3_001):
        assert capacity_at_oracle_level(n, table) == sweep.estimate[n - 2]


def test_capacity_terms_are_reciprocal_totients_on_squarefree(table):
    terms = _capacity_terms(5_000, table)
    assert terms[0] == 0.0
    for d in range(1, 5_000):
        assert terms[d] == (1.0 / table.totient(d) if table.moebius(d) else 0.0), d


def test_capacity_is_the_running_sum_in_ascending_d(table):
    v = 0.0
    for z in range(2, 1_501):
        if table.moebius(z - 1):
            v += 1.0 / table.totient(z - 1)
        assert capacity(z, table) == (v, 1.0 / v), z


def test_capacity_sweep_strictly_increasing(table):
    estimates = capacity_sweep(2, 2_000, table).estimate
    assert all(b > a for a, b in zip(estimates, estimates[1:]))


# -- Brun partial sums ----------------------------------------------------------------


def test_brun_hand_values(table):
    # pairs (3,5) and (5,7): 1/3 + 1/5 + 1/5 + 1/7 = 92/105
    assert math.isclose(brun_partial(10, table), float(Fraction(92, 105)), rel_tol=1e-15)
    assert brun_partial(4, table) == 0.0


def test_brun_monotone_and_bounded(table):
    checkpoints = [10, 100, 1_000, 10_000, 100_000, 1_000_000]
    values = [brun_partial(x, table) for x in checkpoints]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.903
    assert brun_partial(10**6, table) > brun_partial(10**3, table)
