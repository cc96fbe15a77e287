"""Reference functions the tests check the package against; no command uses them."""

import math
from fractions import Fraction

from primeforms.core import PrimeTable, sieve
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
