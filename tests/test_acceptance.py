"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
verdict lines.  Exact criteria run at zero tolerance in rational
arithmetic; measured tolerances were confirmed by oracle runs before the
bounds were frozen (values noted inline).
"""

import csv
import io
import math
import random
from fractions import Fraction

import numpy as np

from primeforms.gandhi import (
    evaluate,
    monte_carlo_survivor_fraction,
    survivor_probability,
)
from primeforms.harness import EXIT_OK, RunConfig, _precision_rows, run
from primeforms.sieve_identity import next_prime_via_filter
from primeforms.spectral import (
    SpectralParams,
    calibrate_amplitude,
    cipolla_drift,
    oscillation_sum,
    spectral_sweep,
)
from primeforms.survival import (
    brun_partial,
    capacity_sweep,
    mertens_sweep,
    quadratic_form_value,
    selberg_minimize,
    survival_sweep,
)

from reference import moebius_truncation_value


def _verdict(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def test_c01_sieve_identity_exactness(table, certificates_500):
    failures = []
    for n in range(1, 501):
        if next_prime_via_filter(n, table) != table.nth(n + 1):
            failures.append(f"filter mismatch at n={n}")
    for report in certificates_500:
        if report.exact_floor != 1:
            failures.append(f"floor {report.exact_floor} at n={report.n}")
        if report.next_prime != table.nth(report.n + 1):
            failures.append(f"survivor mismatch at n={report.n}")
    _verdict("C01 sieve-identity exactness n<=500", failures)


def test_c02_certificate_margin_bounds(table, certificates_500):
    ln2 = math.log(2.0)
    failures = []
    for report in certificates_500:
        lower = Fraction(1, report.next_prime)
        if report.margin < lower:  # exact rational comparison
            failures.append(f"margin below 1/p at n={report.n}")
        if float(report.margin - lower) >= ln2 + 1e-12:
            failures.append(f"harmonic tail reached ln 2 at n={report.n}")
    # documented exception: the intermediate bound 1/p_(n+1) + ln 2 < 1 fails
    # at n = 1 (1/3 + ln 2 > 1), yet the conclusion floor = 1 still holds.
    if not 1 / 3 + ln2 > 1:
        failures.append("countervalue 1/3 + ln 2 > 1 did not hold")
    if certificates_500[0].exact_floor != 1:
        failures.append("floor at n=1 broke despite the countervalue")
    _verdict("C02 certificate margin bounds n<=500", failures)


def test_c03_gandhi_exactness(table):
    failures = []
    for n in range(1, 8):
        evaluation = evaluate(n, table)
        next_p = table.nth(n + 1)
        if evaluation.extracted_prime != next_p:
            failures.append(f"extracted {evaluation.extracted_prime} != p_{n+1} at n={n}")
        if not Fraction(0) < evaluation.scaled_remainder < Fraction(1, 2):
            failures.append(f"remainder outside (0, 1/2) at n={n}")
        lower = Fraction(1, 2) + Fraction(1, 2**next_p)
        upper = lower + Fraction(1, 2 ** (next_p + 1))
        if not lower < evaluation.probability < upper:
            failures.append(f"sandwich failed at n={n}")
    _verdict("C03 Gandhi exactness n<=7", failures)


def test_c04_gandhi_monte_carlo(table):
    failures = []
    for n in range(1, 6):
        exact = float(survivor_probability(n, table))
        estimate = monte_carlo_survivor_fraction(n, 10**6, 42, table)
        sigma = math.sqrt(exact * (1.0 - exact) / 10**6)
        if abs(estimate - exact) > 4.0 * sigma:
            failures.append(f"|{estimate} - {exact}| > 4 sigma at n={n}")
    _verdict("C04 Gandhi Monte Carlo 4-sigma n<=5", failures)


def test_c05_mertens_normalized_ratio(table):
    # oracle pre-run measured the ratio inside [0.9984, 1.0000] on this range
    failures = []
    for n, _, ratio in mertens_sweep(100_000, table):
        if n >= 1_000 and not 0.9 < ratio < 1.1:
            failures.append(f"ratio {ratio} at n={n}")
    _verdict("C05 Mertens ratio in (0.9, 1.1) on [1e3, 1e5]", failures)


def test_c06_cipolla_drift_accuracy(table):
    # oracle pre-run: max deviation 0.0921 on [100, 1e4) and 0.0047 on [1e4, 1e5]
    failures = []
    for n in range(100, 100_001):
        deviation = abs(cipolla_drift(n) / table.nth(n) - 1.0)
        if deviation >= 0.10:
            failures.append(f"deviation {deviation} at n={n}")
        if n >= 10_000 and deviation >= 0.01:
            failures.append(f"asymptotic deviation {deviation} at n={n}")
    _verdict("C06 drift accuracy 0.10 / 0.01", failures)


def test_c07_selberg_minimizer(table):
    failures = []
    hand = selberg_minimize(10, 3)
    if not math.isclose(hand.weights[1], -1.0, abs_tol=1e-12):
        failures.append(f"hand instance weight {hand.weights[1]}")
    if not math.isclose(hand.minimum, 5.0, abs_tol=1e-9):
        failures.append(f"hand instance minimum {hand.minimum}")
    rng = random.Random(42)
    for _ in range(50):
        x = rng.randint(20, 500)
        z = rng.randint(2, 20)
        solution = selberg_minimize(x, z)
        if solution.minimum > moebius_truncation_value(x, z) + 1e-12:
            failures.append(f"lost to Möbius truncation at x={x}, z={z}")
        gradient = solution.gram @ np.asarray(solution.weights)
        if any(abs(g) >= 1e-9 for g in gradient[1:]):
            failures.append(f"KKT residual at x={x}, z={z}")
        brute = quadratic_form_value(x, solution.divisors, solution.weights)
        if abs(brute - solution.minimum) > 1e-9 * max(1.0, brute):
            failures.append(f"brute-force mismatch at x={x}, z={z}")
    _verdict("C07 Selberg minimizer (50 random + hand instance)", failures)


def test_c08_brun_partial_sums(table):
    failures = []
    running = 0.0
    previous = 0.0
    for p, q in table.twin_pairs(2_000_000):
        running += 1.0 / p + 1.0 / q
        if running < previous:
            failures.append(f"partial sum decreased at pair ({p}, {q})")
        if running >= 1.903:
            failures.append(f"partial sum reached 1.903 at pair ({p}, {q})")
        previous = running
    checkpoints = [10, 1_000, 100_000, 2_000_000]
    values = [brun_partial(x, table) for x in checkpoints]
    if any(b < a for a, b in zip(values, values[1:])):
        failures.append("checkpoint values not non-decreasing")
    if not math.isclose(values[-1], running, rel_tol=1e-12):
        failures.append("brun_partial disagrees with the running enumeration")
    _verdict("C08 Brun partial sums bounded by 1.903", failures)


def test_c09_estimator_properties(table):
    failures = []
    params = SpectralParams()
    amplitude = calibrate_amplitude(params, table)
    calibrated = SpectralParams(amplitude=amplitude)

    sweeps = {
        "spectral": spectral_sweep(10, 10_000, calibrated, table),
        "survival": survival_sweep(10, 10_000, table),
        "capacity": capacity_sweep(10, 10_000, table),
    }
    for name, columns in sweeps.items():
        estimates = columns.estimate
        if not all(math.isfinite(e) and e > 0 for e in estimates):
            failures.append(f"{name}: non-finite or non-positive estimate")
        if not all(b > a for a, b in zip(estimates, estimates[1:])):
            failures.append(f"{name}: not strictly increasing")

    window = range(params.calib_lo, params.calib_hi + 1)
    residuals = [table.nth(n) - cipolla_drift(n) for n in window]
    oscillations = [oscillation_sum(n, table) for n in window]
    ssr_zero = math.fsum(r * r for r in residuals)
    ssr_fit = math.fsum((r - amplitude * o) ** 2 for r, o in zip(residuals, oscillations))
    if ssr_fit > ssr_zero + 1e-9:
        failures.append("calibration increased the window squared residual")

    import json

    for fmt in ("csv", "json"):
        first, second = io.StringIO(), io.StringIO()
        config = RunConfig(command="survival", n_max=50, fmt=fmt)
        if run(config, stream=first) != EXIT_OK or run(config, stream=second) != EXIT_OK:
            failures.append(f"{fmt} residual report did not generate")
        elif first.getvalue() != second.getvalue():
            failures.append(f"{fmt} report not reproducible")
        elif fmt == "json":
            parsed = json.loads(first.getvalue())
            if len(parsed) != 2 * 48 or parsed[0]["residual"] is None:
                failures.append("json residual report failed to round-trip")
    csv_buffer = io.StringIO()
    run(RunConfig(command="spectral", n_max=50, alpha_override=amplitude), stream=csv_buffer)
    csv_buffer.seek(0)
    header, *body = list(csv.reader(csv_buffer))
    if len(body) != 48:  # n in [3, 50]
        failures.append("spectral CSV row count off")
    elif not all(math.isfinite(float(row[header.index("residual")])) for row in body):
        failures.append("spectral CSV residuals failed to parse back")
    _verdict("C09 estimator properties on [10, 1e4]", failures)


def test_c10_precision_study(table, certificates_500):
    failures = []
    if any(report.exact_floor != 1 for report in certificates_500):
        failures.append("an exact floor deviated from 1")
    violations = []
    *rows, summary = _precision_rows(500, table, 0.0, violations)
    if len(rows) != 500 or violations:
        failures.append("study row count off or an invariant broken")
    if summary.keys() != {"source", "first_float_floor_break", "anomaly_count", "float_gap"}:
        failures.append("summary block incomplete")
    # where the float path breaks is reported, never asserted
    anomalies = [report.n for report in certificates_500 if report.float_anomalous]
    print(f"[acceptance] C10 note: float anomalies on n<=500: {anomalies or 'none'}")
    _verdict("C10 precision study n<=500", failures)
