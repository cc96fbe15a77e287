"""Reference functions the tests check the package against; no command uses them."""

import math
from fractions import Fraction

import numpy as np

from primeforms.core import InvariantViolation, PrimeTable, sieve
from primeforms.sieve_identity import LN2_LOWER, CertificateReport
from primeforms.survival import quadratic_form_value, squarefree_support


def von_mangoldt(table: PrimeTable, k: int) -> float:
    """Von Mangoldt weight: ln p if k is a power of the prime p, else 0."""
    if k < 1:
        raise ValueError("von Mangoldt weight is defined on positive integers")
    factors = table.factorize(k)  # empty at k = 1
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


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
