"""Reference functions the tests check the package against; no command uses them."""

import math
from fractions import Fraction

import numpy as np

from primeforms.core import InvariantViolation, PrimeTable, sieve
from primeforms.sieve_identity import LN2_LOWER, CertificateReport, _filter_windows, harmonic_certificate
from primeforms.survival import _capacity_terms, quadratic_form_value, squarefree_support


def von_mangoldt(table: PrimeTable, k: int) -> float:
    """Von Mangoldt weight: ln p if k is a power of the prime p, else 0."""
    if k < 1:
        raise ValueError("von Mangoldt weight is defined on positive integers")
    factors = table.factorize(k)  # empty at k = 1
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def cipolla_drift(n: int) -> float:
    """Cipolla's five-term expansion of p_n in powers of 1/ln n, in the kernel's operation order."""
    log_n = math.log(n)
    loglog = math.log(log_n)
    return n * (
        log_n + loglog - 1.0 + (loglog - 2.0) / log_n
        - (loglog * loglog - 6.0 * loglog + 11.0) / (2.0 * log_n * log_n)
    )


def oscillation_sum(n: int, table: PrimeTable) -> float:
    """Von Mangoldt cosine sum over 2 <= k <= isqrt(drift(n)), `math.fsum`med in ascending k; empty below drift 4."""
    drift = cipolla_drift(n)
    if drift < 4.0:
        return 0.0
    _, log_ks, weights = table.mangoldt_points(math.isqrt(int(drift)))
    return math.fsum((weights * np.cos((2.0 * math.pi * n) / log_ks)).tolist())


def capacity(z: int, table: PrimeTable) -> tuple[float, float]:
    """V(z) = sum_{d<z} mu^2(d)/phi(d), the running sum of `_capacity_terms`, and its reciprocal."""
    v = float(np.cumsum(_capacity_terms(z, table))[-1])
    return v, 1.0 / v


def quadratic_form_loop(x: int, divisors: list[int], weights) -> float:
    """`survival.quadratic_form_value` as a loop over m <= x, adding each w_d with d | m in the order listed."""
    paired = list(zip(divisors, weights))
    squares = []
    for m in range(1, x + 1):
        inner = 0.0
        for d, w in paired:
            if m % d == 0:
                inner += w
        squares.append(inner * inner)
    return math.fsum(squares)


def moebius_truncation_value(x: int, z: int) -> float:
    """Value of the sieve quadratic form under truncated Möbius weights w_d = mu(d), d < z."""
    mu = sieve(max(z, 2)).moebius_values(max(z, 1))
    divisors = squarefree_support(z)
    return quadratic_form_value(x, divisors, [float(mu[d]) for d in divisors])


def certificate_violations(report: CertificateReport) -> list[str]:
    """`CertificateReport.violations` with its bounds compared as Fractions."""
    out = []
    if report.exact_floor != 1:
        out.append(f"n={report.n}: exact floor is {report.exact_floor}, expected 1")
    if report.margin < Fraction(1, report.next_prime):
        out.append(f"n={report.n}: margin fell below 1/{report.next_prime}")
    tail = report.margin - Fraction(1, report.next_prime)
    if tail >= LN2_LOWER:
        out.append(f"n={report.n}: harmonic tail {float(tail)} reached ln 2")
    return out


def filter_windows(lo: int, hi: int, table: PrimeTable):
    """`sieve_identity._filter_windows` as a per-step whole-window check.

    Both routes are advanced once per prime p_n over [0, 2 p_hi], and at
    every n >= lo they are compared on all of [1, 2 p_n].  Yields (n, passed)
    with a fresh array per window.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"sweep needs 1 <= lo <= hi, not [{lo}, {hi}]")
    bound = 2 * table.nth(hi)
    if bound > table.limit:
        raise ValueError(f"scan range [2, {bound}] is beyond sieve limit {table.limit}")
    mu = table.moebius_values(bound)
    struck = np.zeros(bound + 1, dtype=bool)  # m has a prime factor <= p_n
    divides = np.zeros(bound + 1, dtype=bool)  # d divides P_n
    divides[1] = True
    moebius_sum = np.full(bound + 1, mu[1], dtype=np.int32)  # d = 1 divides every m
    for n, p in enumerate(table.primes[:hi], start=1):
        struck[p::p] = True
        new = p * divides[: bound // p + 1].nonzero()[0]
        divides[new] = True
        for d, weight in zip(new.tolist(), mu[new].tolist()):
            moebius_sum[d::d] += weight
        if n < lo:
            continue
        window = 2 * p
        passed = ~struck[1 : window + 1]
        mismatch = (moebius_sum[1 : window + 1] != passed).nonzero()[0]
        if mismatch.size:
            m = int(mismatch[0]) + 1
            raise InvariantViolation(
                f"filter mismatch at m={m}, n={n}: Möbius sum {moebius_sum[m]}, "
                f"gcd test {int(passed[m - 1])}"
            )
        yield n, passed


def certificate_sweep(n_max: int, table: PrimeTable, violations: list):
    """`sieve_identity.certificate_sweep` with the survivors compared over each whole window."""
    for n, passed in _filter_windows(1, n_max, table):
        report = harmonic_certificate(n, table)
        violations.extend(report.violations())
        hi = table.pi(len(passed))
        survivors = (passed.nonzero()[0] + 1).tolist()
        if survivors != [1, *table.primes[n:hi]]:
            stray = sorted(set(survivors).symmetric_difference([1, *table.primes[n:hi]]))
            violations.append(f"n={n}: the filter and the certificate disagree on the survivors {stray}")
        yield report
