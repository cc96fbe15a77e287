"""Gandhi's prime formula, evaluated exactly.

The probability that a geometric(1/2) draw on the positive integers is
coprime to the first n primes expands, by inclusion-exclusion, into
2^n - 1 terms 1/(2^E - 1) whose exponents E are subset products of those
primes.  Every E divides the n-th primorial P_n, so each term is an exact
integer multiple of 1/(2^(P_n) - 1) and the whole sum lives over that one
denominator.  The next prime is then the unique exponent m placing
2^m * (probability - 1/2) inside (1, 2), read off by exact doubling; no
float enters the readout.

Golomb's reading ("A direct interpretation of Gandhi's formula", Amer.
Math. Monthly 81, 1974) gives the same numerator a second way.  Write
P = P_n and q = 2^P - 1.  The draw survives when it is coprime to P, and
sum_{j >= 0} 2^-(k + jP) = 2^(P-k) / q, so the probability is A/q with
A = sum_{k <= P, gcd(k, P) = 1} 2^(P-k): the bit string of the coprime
mask over k = 1..P.  Both routes are computed, and a disagreement is an
invariant violation.

A/q is reduced without a gcd of the two P-bit operands.  Let a prime l
divide both A and q, and let d = ord_l(2).  Then l is odd, d | P and
d | l - 1.  P is squarefree, so gcd(d, P/d) = 1 and, by the CRT, each
unit class mod d holds phi(P/d) of the k.  2 is a primitive d-th root of
unity mod l, so A is congruent mod l to phi(P/d) * c_d(1) = +-phi(P/d),
with c_d(1) = mu(d) Ramanujan's sum.  So l divides phi(P/d), a product of
factors p_i - 1, and l < p_n: the common part g = gcd(A, q) is read off
from the valuations at the odd primes below p_n, each a division by a
small integer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DecimalFraction, InvariantViolation, PrimeTable, ResourceLimitError, check_twins
from .core import coprime_fraction, exact_decimals, to_decimal

# The gate bounds output size: a row holds three P_n-bit rationals, and
# the row for P_8 = 9699690 bits takes about 3 s to print in decimal.
FEASIBLE_N = 7

# Fewer draws give a Monte Carlo estimate too noisy to compare with the exact value.
MIN_SAMPLES = 10_000
# The most draws one run makes: 10^9 take about 12 s on a 2-vCPU Xeon.
MAX_SAMPLES = 10**9
_DRAW_BATCH = 1 << 16  # uniforms `_draw_counts` holds at a time, 512 KiB whatever the count


@dataclass
class GandhiEvaluation:
    """Exact inclusion-exclusion record for one step of Gandhi's formula."""

    n: int
    probability: DecimalFraction  # survivor probability of the geometric(1/2) draw
    half_excess: DecimalFraction  # probability - 1/2
    extracted_prime: int  # the exponent m with 2^m * half_excess in (1, 2)
    scaled_remainder: DecimalFraction  # 2^m * half_excess - 1, lies in (0, 1/2)
    subset_count: int  # inclusion-exclusion terms evaluated (2^n - 1)

    def violations(self) -> list[str]:
        """Exact invariant check; an empty list means all hold."""
        out = []
        if not Fraction(0) < self.scaled_remainder < Fraction(1, 2):
            bound = "above 0" if self.scaled_remainder <= 0 else "below 1/2"
            out.append(f"n={self.n}: scaled remainder is not {bound}")  # its terms outgrow str() at n = 7
        scaled = self.half_excess * (1 << self.extracted_prime)
        if not Fraction(1) < scaled < Fraction(2):
            out.append(f"n={self.n}: 2^m * half excess lies outside (1, 2)")
        return out


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


def check_feasible(n: int, table: PrimeTable, allow_large: bool) -> None:
    """ResourceLimitError for an n past the gate, unless `allow_large`."""
    if n > FEASIBLE_N and not allow_large:
        # neither 2^n - 1 nor P_n is printed: from n = 1230 on P_n has more digits than str() allows
        raise ResourceLimitError(
            f"n={n} needs 2^{n} - 1 inclusion-exclusion terms over P_{n}-bit integers, "
            f"P_{n} = 2 * 3 * ... * {table.nth(n)}; pass --allow-large-gandhi (allow_large=True) to force it"
        )


def survivor_probability(n: int, table: PrimeTable, *, allow_large: bool = False) -> Fraction:
    """Exact probability that a geometric(1/2) draw is coprime to the first n primes.

    Every subset of the first n primes contributes (-1)^|S| / (2^E - 1),
    E the product of S; the empty subset supplies the leading +1.  The sum
    is checked against Golomb's bit string and returned in lowest terms,
    reduced by the small-prime valuations of the module docstring.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    check_feasible(n, table, allow_large)
    primes = table.primes[:n]
    exponent_total = table.primorial(n)
    numerator = 0
    for mask in range(1 << n):
        exponent = math.prod(p for j, p in enumerate(primes) if mask >> j & 1)
        term = _spaced_ones(exponent, exponent_total // exponent)  # q / (2^exponent - 1)
        if mask.bit_count() % 2:
            numerator -= term
        else:
            numerator += term
    if numerator != _golomb_numerator(exponent_total, primes):
        raise InvariantViolation(
            f"n={n}: inclusion-exclusion numerator differs from Golomb's coprime bit string"
        )
    q = (1 << exponent_total) - 1
    common = 1  # gcd(numerator, q), whose primes are odd and below p_n
    for ell in table.primes[1 : n - 1]:
        while numerator % (common * ell) == 0 and q % (common * ell) == 0:
            common *= ell
    return coprime_fraction(numerator // common, q // common)


def _golomb_numerator(exponent_total: int, primes: list[int]) -> int:
    """sum 2^(P-k) over the k in [1, P] coprime to the primes, P their product."""
    coprime = np.ones(exponent_total, dtype=bool)  # entry k - 1 stands for k
    for p in primes:
        coprime[p - 1 :: p] = False
    return int.from_bytes(np.packbits(coprime).tobytes(), "big") >> (-exponent_total % 8)


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


def _readout(numerator, denominator, m: int) -> tuple:
    """(numerator, denominator) of N/D, of N/D - 1/2 and of 2^m (N/D - 1/2) - 1, for ints or exact Decimals.

    With N/D in lowest terms and D odd, as (2^P_n - 1)/g is, each pair is in lowest terms: 2N - D
    is odd and shares no prime with D (2N shares none), and nor does (2N - D) 2^(m-1).
    """
    excess = 2 * numerator - denominator
    return (numerator, denominator), (excess, 2 * denominator), (excess * (1 << m - 1) - denominator, denominator)


def evaluate(n: int, table: PrimeTable, *, allow_large: bool = False) -> GandhiEvaluation:
    """Full exact evaluation at step n: probability, extraction, remainder.

    The rationals are `_readout` of (N, D, m), built with no gcd, each carrying its exact Decimals,
    checked against the ints; D's is (Decimal(2)^P_n - 1)/g with g = (2^P_n - 1)/D small, so N is
    the only integer converted to decimal.
    """
    probability = survivor_probability(n, table, allow_large=allow_large)
    try:
        m = extract_prime(probability)
    except InvariantViolation as exc:
        raise InvariantViolation(f"n={n}: {exc}") from None
    exponent, (numerator, denominator) = table.primorial(n), probability.as_integer_ratio()
    common = ((1 << exponent) - 1) // denominator  # g: a one-digit quotient, linear time
    parts = _readout(numerator, denominator, m)
    with exact_decimals():
        twins = _readout(to_decimal(numerator), (to_decimal(2) ** exponent - 1) // common, m)
        check_twins(f"n={n}", *zip(sum(parts, ()), sum(twins, ())))
    probability, half_excess, scaled_remainder = (coprime_fraction(*p, t) for p, t in zip(parts, twins))
    return GandhiEvaluation(n, probability, half_excess, m, scaled_remainder, subset_count=(1 << n) - 1)


def monte_carlo_survivor_fraction(n: int, samples: int, seed: int, table: PrimeTable) -> float:
    """Seeded Monte Carlo estimate of the survivor probability.

    Draws geometric(1/2) variates by inverse transform on a PCG64 stream:
    u uniform on (0, 1] maps to ceil(-log2 u), the toss count up to the
    first head of a fair coin.  Deterministic for a fixed seed.  The draws for
    one (samples, seed) are made once, in batches, into a histogram, so memory
    does not grow with `samples`, time is bounded by `MAX_SAMPLES`, and a sweep
    over n only masks its at most 54 values.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a meaningful estimate")
    if samples > MAX_SAMPLES:
        raise ResourceLimitError(f"--samples {samples} is too many draws; pass --samples {MAX_SAMPLES} or fewer")
    counts = _draw_counts(samples, seed)
    values = np.arange(counts.size)
    coprime = np.ones(counts.size, dtype=bool)
    for p in table.primes[:n]:
        coprime &= values % p != 0
    # coprime.mean() over the draws gave this same quotient: its float64 sum
    # of booleans is exact below 2^53 draws
    return int(counts[coprime].sum()) / samples


@functools.lru_cache(maxsize=4)
def _draw_counts(samples: int, seed: int) -> np.ndarray:
    """Read-only histogram of the seeded draws: entry v counts the draws equal to v."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(54, dtype=np.int64)  # draws are at most 53, since u >= 2^-53
    # successive rng.random(k) calls continue the stream one rng.random(samples) would draw
    for start in range(0, samples, _DRAW_BATCH):
        u = 1.0 - rng.random(min(_DRAW_BATCH, samples - start))  # (0, 1]
        counts += np.bincount(np.maximum(np.ceil(-np.log2(u)).astype(np.int64), 1), minlength=counts.size)
    counts.flags.writeable = False
    return counts
