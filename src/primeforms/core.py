"""Exact arithmetic substrate: the prime-sieve oracle and its arithmetic-function tables.

Everything downstream trusts this module.  The sieve table is the ground
truth for every exact claim in the package, and certificate-bearing
arithmetic stays in Python ints, handed on as `Ratio` records printed
through exact Decimal twins, so no float ever touches a certified value.
Floats are confined to the estimators' `EstimatorColumns` and to the
certificates' float shadows, the precision study's probes.
"""

from __future__ import annotations

import decimal
import math
import os
import resource
from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from functools import cache, cached_property
from itertools import pairwise
from typing import NamedTuple

import numpy as np

DEFAULT_SIEVE_LIMIT = 2_000_000


class InvariantViolation(RuntimeError):
    """An exact-module invariant failed: an oracle or filter bug, not user error."""


class ResourceLimitError(RuntimeError):
    """A computation was refused because its cost grows past the configured bound."""


class Ratio(NamedTuple):
    """An exact rational numerator/denominator, denominator > 0, with both in exact decimal for printing."""

    numerator: int
    denominator: int
    # what the writer prints: (Decimal numerator, Decimal denominator or its digits as a str,
    # which records with one denominator may share so that it is printed once)
    decimals: tuple


# A Mersenne prime: a Decimal and the int it stands for must agree modulo it.
TWIN_MODULUS = (1 << 61) - 1


def _twin_residue(value: int) -> int:
    """value % TWIN_MODULUS in linear time: 2^(61 k) is 1 modulo it, so the parts above and below
    bit 61 k add up to the residue, and each such fold halves the length down to 122 bits."""
    while (bits := value.bit_length()) > 122:
        cut = 61 * (bits // 122)
        value = (value >> cut) + (value & ((1 << cut) - 1))
    return value % TWIN_MODULUS


def check_twins(where: str, *pairs: tuple) -> None:
    """InvariantViolation unless each (int, Decimal) pair agrees mod TWIN_MODULUS; exact context only."""
    for exact, twin in pairs:
        if twin % TWIN_MODULUS != _twin_residue(exact):
            raise InvariantViolation(f"{where}: a Decimal twin differs from its int modulo 2^61 - 1")


_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


def exact_decimals():
    """Context manager for `decimal` integer arithmetic that never rounds."""
    return decimal.localcontext(_EXACT)


# Integers up to this many bits (617 digits) convert to Decimal directly.
_STR_BITS = 2048


@cache
def _decimal_pow2(k: int) -> decimal.Decimal:
    """Decimal 2^(2^k) for 2^k >= _STR_BITS, by repeated squaring; exact context only."""
    if 1 << k == _STR_BITS:
        return decimal.Decimal(1 << _STR_BITS)
    return _decimal_pow2(k - 1) * _decimal_pow2(k - 1)


def to_decimal(value: int) -> decimal.Decimal:
    """Exact Decimal of value >= 0; exact context only.

    CPython's int-to-decimal conversion is quadratic, so a value above
    _STR_BITS is split at the largest 2^(2^k) below its top bit and
    recombined by `decimal`'s subquadratic multiplication, as in CPython
    3.12's Lib/_pylong.py.
    """
    if value.bit_length() <= _STR_BITS:
        return decimal.Decimal(value)
    k = (value.bit_length() - 1).bit_length() - 1
    high = value >> (1 << k)
    return to_decimal(high) * _decimal_pow2(k) + to_decimal(value - (high << (1 << k)))


class DerivedColumn:
    """A column whose entry i is of(*(base[i] for base in bases)), computed when read; a slice reads as a list.

    A numpy ufunc `of` makes one pass over the bases' slices, and over one row for an
    entry, so both reads make the same IEEE operations; any other `of` is mapped.  A
    str `of` is a constant, every entry itself: it is stored once and read with no call.
    """

    __slots__ = ("of", "bases")

    def __init__(self, of: Callable | str, *bases: Sequence):
        self.of, self.bases = of, bases

    def __len__(self) -> int:
        return len(self.bases[0])

    def __getitem__(self, i):
        if isinstance(self.of, str):
            rows = self.bases[0][i]  # IndexError past the end, which also ends iteration
            return [self.of] * len(rows) if isinstance(i, slice) else self.of
        if isinstance(self.of, np.ufunc):
            return self._pass(i).tolist()
        values = [base[i] for base in self.bases]
        return [*map(self.of, *values)] if isinstance(i, slice) else self.of(*values)

    def _pass(self, i):
        """The ufunc over the bases' entries or slices, a ufunc column base's own pass unconverted."""
        return self.of(*[base._pass(i) if isinstance(base, DerivedColumn) else base[i] for base in self.bases])


class EstimatorColumns(namedtuple("EstimatorColumns", "n p_n estimate floored residual rel_error")):
    """Estimates of p_n for consecutive n scored against the oracle, as equal-length columns.

    The sweeps compute their estimates as float64 column kernels, taking
    every log from libm through `math.log`.  n is a range and p_n a view of
    the table's `array("q")`; estimate is the one `array("d")`, eight bytes
    a row read back as Python floats.  The other columns are DerivedColumns,
    computed when read, so they hold nothing per row: floored is math.floor
    of each estimate (an int64 could not hold the floor of an estimate past
    2^63), residual is p_n - estimate and rel_error is residual / p_n, each
    in float64 (a sieve that fits in memory keeps p_n < 2^53, so p_n
    converts exactly).
    """

    __slots__ = ()

    @classmethod
    def against(cls, n_lo: int, p_n: Sequence[int], estimates) -> EstimatorColumns:
        """Score float64 `estimates` of p_n, n = n_lo, n_lo + 1, ...; all must be finite."""
        estimates = np.asarray(estimates, dtype=np.float64)
        if not np.isfinite(estimates).all():
            i = int(np.argmin(np.isfinite(estimates)))
            raise OverflowError(f"the estimate of p_{n_lo + i} is {float(estimates[i])}, not a finite number")
        estimate = array("d", [0.0]) * len(p_n)
        np.frombuffer(estimate, dtype=np.float64)[:] = estimates
        residual = DerivedColumn(np.subtract, p_n, estimate)
        return cls(
            range(n_lo, n_lo + len(p_n)), p_n, estimate, DerivedColumn(math.floor, estimate),
            residual, DerivedColumn(np.divide, residual, p_n),
        )


def cofactor_multiples(large: np.ndarray, bound: int) -> Iterator[tuple[np.ndarray, int]]:
    """(k * large[:count], count) for k = 1, 2, ..., where large[:count] are the entries whose
    k-th multiple is at most `bound`.

    `large` ascends and holds only entries above isqrt(bound), so k stops at
    bound // (isqrt(bound) + 1), and one k's multiples are distinct indices.
    """
    counts = np.searchsorted(large, bound // np.arange(1, bound // (math.isqrt(bound) + 1) + 1), side="right")
    for k, count in enumerate(counts.tolist(), start=1):
        yield k * large[:count], count


class PrimeTable:
    """Sieve-of-Eratosthenes oracle for the primes up to `limit`.

    `prime_array` holds the primes strictly increasing, p_n at index n - 1
    (p_1 = 2), so `pi(p_n)` is n.  It is one `array("q")`, eight bytes a
    prime: indexing it gives Python ints, so the exact paths keep their
    integer arithmetic, and numpy reads it in place, through `prime_view`,
    its read-only int64 view, not a copied slice.
    `primes` is the same sequence as a list, built when first read and then
    kept; no command reads it, for its int objects and slots take 40 bytes
    a prime.  The scalar factor, Möbius and totient lookups divide by the
    tabulated primes; the bulk Möbius table, one int8 per integer, is
    sieved from them on demand and kept for later calls.

    The table is immutable after construction; the private attributes only
    memoize pure derived values (the last primorial, the Möbius table, the
    harmonic certificate's running sum), so one table can back every module.
    """

    def __init__(self, limit: int, primes: Sequence[int]):
        self.limit = limit
        self.prime_array = primes if isinstance(primes, array) and primes.typecode == "q" else array("q", primes)
        self.prime_view = np.frombuffer(memoryview(self.prime_array).toreadonly(), dtype=np.int64)
        self._primorial = (0, 1)  # (k, P_k) of the last call
        self._mu_values = np.zeros(0, dtype=np.int8)
        # (n, N, D, hi, Decimals of N and D) of the last harmonic certificate, see sieve_identity
        self._harmonic: tuple | None = None

    @cached_property
    def primes(self) -> list[int]:
        """`prime_array` as a list, for callers that need one (a JSON dump, a list comparison)."""
        return self.prime_array.tolist()

    # -- ordinal / counting lookups -------------------------------------

    def nth(self, n: int) -> int:
        """The n-th prime (1-based)."""
        if n < 1:
            raise ValueError("prime ordinals are 1-based")
        if n > len(self.prime_array):
            raise ValueError(
                f"p_{n} is beyond sieve limit {self.limit} "
                f"(only {len(self.prime_array)} primes tabulated)"
            )
        return self.prime_array[n - 1]

    def pi(self, x: int) -> int:
        """Prime-counting function: number of primes <= x."""
        if x > self.limit:
            raise ValueError(f"pi({x}) is beyond sieve limit {self.limit}")
        return bisect_right(self.prime_array, x)

    def twin_pairs(self, x_max: int) -> list[tuple[int, int]]:
        """Twin pairs (p, p+2), both prime, with p + 2 <= x_max."""
        if x_max > self.limit:
            raise ValueError(f"twin scan bound {x_max} is beyond sieve limit {self.limit}")
        return [(p, q) for p, q in pairwise(self.prime_array[: self.pi(x_max)]) if q - p == 2]

    # -- factorization --------------------------------------------------

    def factorize(self, m: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, exponent), ...] with p ascending.

        Trial division by the tabulated primes up to sqrt(m), so m may
        exceed the limit while sqrt(m) <= limit.
        """
        if m < 1:
            raise ValueError("factorization needs a positive integer")
        out: list[tuple[int, int]] = []
        if math.isqrt(m) > self.limit:
            raise ValueError(f"{m} is beyond factorization range of sieve limit {self.limit}")
        for p in self.prime_array:
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out.append((p, e))
        if m > 1:
            out.append((m, 1))  # the remaining cofactor is prime
        return out

    # -- arithmetic functions -------------------------------------------

    def moebius(self, m: int) -> int:
        """Möbius function: 0 on squared factors, else (-1)^(number of prime factors)."""
        if m < 1:
            raise ValueError("Möbius function is defined on positive integers")
        if m == 1:
            return 1
        parity = 0
        for _, e in self.factorize(m):
            if e > 1:
                return 0
            parity ^= 1
        return -1 if parity else 1

    def totient(self, d: int) -> int:
        """Euler totient phi(d)."""
        if d < 1:
            raise ValueError("totient is defined on positive integers")
        result = 1
        for p, e in self.factorize(d):
            result *= (p - 1) * p ** (e - 1)
        return result

    def primorial(self, n: int) -> int:
        """Product of the first n primes, exact.  Only the last one, P_k, is kept: a call at k
        returns it, a later n multiplies in p_{k+1}..p_n, and an earlier n starts again from 1."""
        self.nth(n)  # range check
        k, value = self._primorial
        if n != k:
            if n < k:
                k, value = 0, 1
            value *= math.prod(self.prime_array[k:n])
            self._primorial = (n, value)
        return value

    # -- bulk lookups for hot loops ---------------------------------------

    def moebius_values(self, upto: int) -> np.ndarray:
        """int8 array `mu` with mu[m] = moebius(m) for 1 <= m <= upto (mu[0] unused).

        Sieved over the tabulated primes: every multiple of p flips sign and
        every multiple of p^2 is zeroed, so mu[m] = (-1)^k on squarefree m
        with k prime factors and 0 elsewhere.  Only the primes up to root =
        isqrt(bound) have a square to zero, so they flip their multiples one
        prime at a time; the primes above it flip theirs one cofactor k at a
        time, every k p for the p <= bound / k at once (`cofactor_multiples`).
        """
        if upto > self.limit:
            raise ValueError(f"{upto} is beyond sieve limit {self.limit}")
        cache = self._mu_values
        if len(cache) <= upto:
            bound = min(self.limit, max(upto, 2 * len(cache), 1024))
            cache = np.ones(bound + 1, dtype=np.int8)
            cache[0] = 0
            split = bisect_right(self.prime_array, math.isqrt(bound))
            for p in self.prime_array[:split]:
                cache[p::p] *= -1
                cache[p * p :: p * p] = 0
            for multiples, _ in cofactor_multiples(self.prime_view[split : self.pi(bound)], bound):
                cache[multiples] *= -1
            self._mu_values = cache
        return cache

    def primorial_coprime(self, n: int, bound: int) -> list[int]:
        """Integers in [1, bound] coprime to the n-th primorial.

        Equivalent to gcd(m, P_n) = 1: the multiples of p_1, ..., p_n are
        struck from a boolean array whose entry m - 1 stands for m.
        """
        self.nth(n)  # range check
        if bound > self.limit:
            raise ValueError(f"scan bound {bound} is beyond sieve limit {self.limit}")
        coprime = np.ones(bound, dtype=bool)
        for p in self.prime_array[:n]:
            coprime[p - 1 :: p] = False
        return (np.flatnonzero(coprime) + 1).tolist()


def _memory_budget() -> int:
    """Bytes a new table or sweep may take: physical memory, or what the soft address-space cap leaves beside
    the process's current mappings (the size field of /proc/self/statm, 0 where it is absent)."""
    page = os.sysconf("SC_PAGE_SIZE")
    budget = page * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return budget
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            mapped = page * int(statm.read().split()[0])
    except OSError:
        mapped = 0
    return max(0, min(budget, soft - mapped))


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to `limit` inclusive, over one boolean array.

    Each p <= sqrt(limit) still unstruck is prime and strikes its multiples
    from p^2 on; the entries still unstruck are the primes.  A limit whose
    tables would not fit in memory is refused before allocating.
    """
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    # per prime eight bytes of its int64 index, beside one byte a boolean entry
    # or, once that array is freed, eight a prime of the table's copy of the
    # index, with pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld)
    count = math.ceil(1.25506 * limit / math.log(limit))
    needed = max(limit + 1, 8 * count) + 8 * count
    budget = _memory_budget()
    if needed > budget:
        raise ResourceLimitError(
            f"--sieve-limit {limit} needs about {needed >> 20} MiB for its tables, more than "
            f"the {budget >> 20} MiB this process may use; pass a smaller --sieve-limit"
        )
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    index = np.flatnonzero(is_prime)
    del is_prime
    primes = array("q", [0]) * len(index)
    np.frombuffer(primes, dtype=np.int64)[:] = index
    return PrimeTable(limit=limit, primes=primes)
