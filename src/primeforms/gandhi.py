"""Gandhi's prime formula, evaluated exactly.

The probability that a geometric(1/2) draw on the positive integers is
coprime to the first n primes expands, by inclusion-exclusion, into
2^n - 1 terms 1/(2^E - 1) whose exponents E are subset products of those
primes.  Every E divides the n-th primorial P_n, so each term is an exact
integer multiple of 1/(2^(P_n) - 1) and the whole sum lives over that one
denominator.  The next prime is then the unique exponent m placing
2^m * (probability - 1/2) inside (1, 2), read off by exact doubling; a
64-bit floor-log2 readout of the same quantity exists purely to exhibit
where float arithmetic loses the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import InvariantViolation, PrimeTable, ResourceLimitError

# P_8 is a ~9.7e6-bit exponent; past n = 7 the subset terms stop being cheap.
FEASIBLE_N = 7

# Fewer draws give a Monte Carlo estimate too noisy to compare with the exact value.
MIN_SAMPLES = 10_000


class CancellationError(ArithmeticError):
    """Float evaluation lost the signal to rounding (catastrophic cancellation)."""


@dataclass
class GandhiEvaluation:
    """Exact inclusion-exclusion record for one step of Gandhi's formula."""

    n: int
    probability: Fraction  # survivor probability of the geometric(1/2) draw
    half_excess: Fraction  # probability - 1/2
    extracted_prime: int  # the exponent m with 2^m * half_excess in (1, 2)
    scaled_remainder: Fraction  # 2^m * half_excess - 1, lies in (0, 1/2)
    subset_count: int  # inclusion-exclusion terms evaluated (2^n - 1)

    def violations(self) -> list[str]:
        """Exact invariant check; an empty list means all hold."""
        out = []
        if not Fraction(0) < self.scaled_remainder < Fraction(1, 2):
            out.append(f"n={self.n}: scaled remainder {self.scaled_remainder} outside (0, 1/2)")
        scaled = self.half_excess * (1 << self.extracted_prime)
        if not Fraction(1) < scaled < Fraction(2):
            out.append(f"n={self.n}: 2^m * half excess lies outside (1, 2)")
        return out


def geometric_divisibility(d: int) -> Fraction:
    """Probability that a geometric(1/2) draw is divisible by d: 1/(2^d - 1)."""
    if d < 1:
        raise ValueError("divisibility modulus must be a positive integer")
    return Fraction(1, (1 << d) - 1)


def _spaced_ones(stride: int, count: int) -> int:
    """Integer with `count` one-bits spaced `stride` apart: sum of 2^(j*stride).

    This is (2^(stride*count) - 1) / (2^stride - 1), built by binary
    doubling so huge quotients never go through long division.
    """
    result, built = 0, 0
    for bit in bin(count)[2:]:
        result |= result << (built * stride)
        built *= 2
        if bit == "1":
            result = (result << stride) | 1
            built += 1
    return result


def survivor_probability(n: int, table: PrimeTable, *, allow_large: bool = False) -> Fraction:
    """Exact probability that a geometric(1/2) draw is coprime to the first n primes.

    Every subset of the first n primes contributes (-1)^|S| / (2^E - 1),
    E the product of S; the empty subset supplies the leading +1.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    if n > FEASIBLE_N and not allow_large:
        raise ResourceLimitError(
            f"n={n} needs 2^{n} - 1 = {(1 << n) - 1} inclusion-exclusion terms over "
            f"{table.primorial(n)}-bit integers; pass --allow-large-gandhi "
            "(allow_large=True) to force it"
        )
    primes = [table.nth(i) for i in range(1, n + 1)]
    exponent_total = table.primorial(n)
    numerator = 0
    for mask in range(1 << n):
        exponent = math.prod(p for j, p in enumerate(primes) if mask >> j & 1)
        term = _spaced_ones(exponent, exponent_total // exponent)  # q / (2^exponent - 1)
        if mask.bit_count() % 2:
            numerator -= term
        else:
            numerator += term
    return Fraction(numerator, (1 << exponent_total) - 1)  # over q = 2^(P_n) - 1


def extract_prime(probability: Fraction) -> int:
    """The unique m with 1 < 2^m * (probability - 1/2) < 2, by exact doubling.

    Never touches floating point: the numerator is doubled until it first
    exceeds the denominator, and the upper bound is then checked exactly.
    """
    excess = probability - Fraction(1, 2)
    if excess <= 0:
        raise InvariantViolation("survivor probability does not exceed 1/2")
    num, den = excess.numerator, excess.denominator
    m = 0
    while num <= den:
        num <<= 1
        m += 1
    if num >= 2 * den:
        raise InvariantViolation("no exponent places the scaled excess inside (1, 2)")
    return m


def float_log2_extraction(probability: Fraction) -> int:
    """Floor-log2 readout of the next prime, evaluated in 64-bit floats.

    Exists only to compare against `extract_prime`; disagreements are
    reported by callers, never fatal here.
    """
    excess = float(probability) - 0.5
    if excess <= 0.0:
        raise CancellationError("probability - 1/2 collapsed to <= 0 in 64-bit arithmetic")
    return math.floor(1.0 - math.log2(excess))


def evaluate(n: int, table: PrimeTable, *, allow_large: bool = False) -> GandhiEvaluation:
    """Full exact evaluation at step n: probability, extraction, remainder."""
    probability = survivor_probability(n, table, allow_large=allow_large)
    half_excess = probability - Fraction(1, 2)
    m = extract_prime(probability)
    # Fraction's own gcds here run against 2^m and 1, never two huge operands.
    scaled_remainder = half_excess * (1 << m) - 1
    return GandhiEvaluation(
        n=n,
        probability=probability,
        half_excess=half_excess,
        extracted_prime=m,
        scaled_remainder=scaled_remainder,
        subset_count=(1 << n) - 1,
    )


def monte_carlo_survivor_fraction(n: int, samples: int, seed: int, table: PrimeTable) -> float:
    """Seeded Monte Carlo estimate of the survivor probability.

    Draws geometric(1/2) variates by inverse transform on a PCG64 stream:
    u uniform on (0, 1] maps to ceil(-log2 u), the toss count up to the
    first head of a fair coin.  Deterministic for a fixed seed.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a meaningful estimate")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(samples)  # (0, 1]
    draws = np.ceil(-np.log2(u)).astype(np.int64)
    np.maximum(draws, 1, out=draws)
    coprime = np.ones(samples, dtype=bool)
    for i in range(1, n + 1):
        coprime &= (draws % table.nth(i)) != 0
    return float(coprime.mean())
