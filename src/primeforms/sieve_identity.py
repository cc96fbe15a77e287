"""Discrete sieving identity for the next prime.

A Möbius-derived coprimality filter keeps exactly the integers sharing no
prime factor with the n-th primorial; on [1, 2 p_n] (Bertrand's range) the
smallest survivor above 1 is p_{n+1}, and the harmonic sum over survivors
has floor exactly 1.  The sum is evaluated in exact rationals; a 64-bit
float shadow of the same sum feeds the precision study.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .core import InvariantViolation, PrimeTable, check_twins, coprime_fraction, exact_decimals, to_decimal

MACHINE_EPSILON = 2.22e-16  # 64-bit epsilon, as used by the float probes
FLOAT_GAP_THRESHOLD = 1e3 * MACHINE_EPSILON
# ln 2 truncated after 40 decimals, so a strict lower bound with 40 correct
# digits; the tail check compares against it exactly.
LN2_LOWER = Fraction("0.6931471805599453094172321214581765680755")


@dataclass
class CertificateReport:
    """Exact harmonic-sum certificate for one sieve step, with its float shadow."""

    n: int
    next_prime: int  # smallest filter survivor above 1
    exact_sum: Fraction  # sum of 1/m over survivors in [1, 2 p_n]
    exact_floor: int
    margin: Fraction  # exact_sum - 1
    float_sum: float  # naive 64-bit accumulation, ascending m
    float_floor: int

    @property
    def float_margin(self) -> float:
        return self.float_sum - 1.0

    @cached_property
    def float_gap(self) -> float:
        """Signed float-vs-exact error of the harmonic sum, converted once per report."""
        return self.float_sum - float(self.exact_sum)

    @property
    def float_anomalous(self) -> bool:
        """True when the float shadow broke the floor or drifted past 1e3 epsilon."""
        return self.float_floor != 1 or abs(self.float_gap) > FLOAT_GAP_THRESHOLD

    def violations(self) -> list[str]:
        """Exact-certificate invariant check; an empty list means all hold.

        With margin = N/D and p = next_prime, the tail margin - 1/p is
        excess/(D p) for excess = N p - D.  D and p are positive, so the
        bounds compare integers cross-multiplied: margin < 1/p exactly when
        excess < 0, and tail >= LN2_LOWER = a/b exactly when excess b >= a D p.
        """
        out = []
        if self.exact_floor != 1:
            out.append(f"n={self.n}: exact floor is {self.exact_floor}, expected 1")
        numerator, denominator = self.margin.as_integer_ratio()
        p = self.next_prime
        excess = numerator * p - denominator
        if excess < 0:
            out.append(f"n={self.n}: margin fell below 1/{p}")
        if excess * LN2_LOWER.denominator >= LN2_LOWER.numerator * denominator * p:
            out.append(f"n={self.n}: harmonic tail {float(self.margin - Fraction(1, p))} reached ln 2")
        return out


def coprime_indicator(m: int, n: int, table: PrimeTable) -> int:
    """Arithmetical filter: 1 iff m shares no prime factor with the n-th primorial.

    Evaluated along both routes the definition provides, the Möbius sum over
    the divisors of gcd(m, P_n) and the direct gcd test, which must agree on
    every call.
    """
    if m < 1:
        raise ValueError("filter argument must be a positive integer")
    g = math.gcd(m, table.primorial(n))
    via_gcd = 1 if g == 1 else 0
    divisors = [1]
    if g > 1:
        # g divides the squarefree primorial, so its divisors are exactly the
        # subset products of its distinct primes.
        for p, _ in table.factorize(g):
            divisors += [d * p for d in divisors]
    mu = table.moebius_values(g)
    via_moebius = sum(mu[d] for d in divisors)
    if via_moebius != via_gcd:
        raise InvariantViolation(
            f"filter mismatch at m={m}, n={n}: Möbius sum {via_moebius}, gcd test {via_gcd}"
        )
    return via_gcd


def _filter_windows(lo: int, hi: int, table: PrimeTable) -> Iterator[tuple[int, np.ndarray]]:
    """(n, passed) for n = lo..hi, where passed[m - 1] is the filter at m in [1, 2 p_n].

    `passed` is a read-only view of the one array the sweep strikes: it is
    valid until the generator advances, so a caller that keeps a window
    copies it.

    Each m is checked when it enters the window [1, 2 p_n], and each prime
    m again at n = pi(m); the first window, [1, 2 p_lo], is checked whole.
    That checks every window whole: between steps both routes change only
    at the multiples of p_n, the direct route by striking them and the
    Möbius route through the divisors p_n brings to P_n, each p_n times an
    old one and so p_n or at least 2 p_n.  In [1, 2 p_{n-1}] that leaves
    m = p_n, so the routes agree on all of [1, 2 p_n] once they agree at
    p_n and on the new tail (2 p_{n-1}, 2 p_n].  A mismatch is reported at
    the same n and the same smallest m as a whole-window check reports it.

    The Möbius route, the sum of mu(d) over the divisors d of P_n that
    divide m, is summed once before the steps, each m at its entry step.
    The divisors of P_hi in [1, 2 p_hi] are the products of distinct
    primes up to p_hi, found from the prime list alone; only their weights
    mu(d) are read from the Möbius table.  Each adds its weight to all its
    multiples, but a prime p_n that enters an earlier window misses m = p_n
    until the re-check at step n adds it.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"sweep needs 1 <= lo <= hi, not [{lo}, {hi}]")
    bound = 2 * table.nth(hi)
    if bound > table.limit:
        raise ValueError(f"scan range [2, {bound}] is beyond sieve limit {table.limit}")
    mu = table.moebius_values(bound)
    primes = table.primes[:hi]
    # m <= bound has at most one prime factor above root = isqrt(bound).  So
    # m is a product of distinct primes up to p_hi exactly when dividing it
    # once by each prime up to root leaves 1 or one such prime above root.
    root = math.isqrt(bound)
    rest = np.arange(bound + 1, dtype=np.min_scalar_type(bound))
    for p in primes[: bisect_right(primes, root)]:
        rest[p::p] //= p
    listed = np.zeros(bound + 1, dtype=bool)
    listed[primes] = True
    divisors = ((rest == 1) | ((rest > root) & listed[rest])).nonzero()[0]
    del rest, listed
    moebius_sum = np.zeros(bound + 1, dtype=np.int32)
    split = int(np.searchsorted(divisors, root, side="right"))
    for d, weight in zip(divisors[:split].tolist(), mu[divisors[:split]].tolist()):
        moebius_sum[d::d] += weight
    large, weights = divisors[split:], mu[divisors[split:]]
    counts = np.searchsorted(large, bound // np.arange(1, bound // (root + 1) + 1), side="right")
    for k, count in enumerate(counts.tolist(), start=1):
        moebius_sum[k * large[:count]] += weights[:count]  # distinct indices for one k
    # a prime p_n <= 2 p_{n-1}, n > lo, enters an earlier window, before p_n divides P_n
    later = np.array(primes[lo:], dtype=np.int64)
    early = later[later <= 2 * np.array(primes[lo - 1 : -1], dtype=np.int64)]
    moebius_sum[early] -= mu[early]

    alive = np.ones(bound + 1, dtype=bool)  # m has no prime factor <= p_n
    passed = alive.view()
    passed.flags.writeable = False  # callers read the windows; only the sweep strikes
    checked = 0  # the routes agree on [1, checked]

    def mismatch(m: int, n: int) -> InvariantViolation:
        return InvariantViolation(
            f"filter mismatch at m={m}, n={n}: Möbius sum {moebius_sum[m]}, gcd test {int(alive[m])}"
        )

    for n, p in enumerate(primes, start=1):
        alive[p::p] = False
        if n < lo:
            continue
        if p <= checked:  # the re-check: the divisor p_n reaches m = p_n only now
            moebius_sum[p] += mu[p]
            if moebius_sum[p] != alive[p]:
                raise mismatch(p, n)
        window = 2 * p
        tail = (moebius_sum[checked + 1 : window + 1] != alive[checked + 1 : window + 1]).nonzero()[0]
        if tail.size:
            raise mismatch(checked + 1 + int(tail[0]), n)
        checked = window
        yield n, passed[1 : window + 1]


def next_prime_sweep(lo: int, hi: int, table: PrimeTable) -> list[int]:
    """Smallest filter survivor above 1 for each n in [lo, hi], from one sweep.

    Both routes of the filter agree on every m of Bertrand's range
    [1, 2 p_n] for every swept n: each m is checked when it enters that
    range, and each prime m again at n = pi(m) (see `_filter_windows`).
    Striking only removes survivors, so the scan for each n starts at the
    survivor found for n - 1.
    """
    found = []
    first = 2  # nothing in [2, first) passes
    for n, passed in _filter_windows(lo, hi, table):
        first += int(np.argmax(passed[first - 1 :]))  # unchanged when nothing from first on passed
        if not passed[first - 1]:
            raise InvariantViolation(
                f"no filter survivor in [2, {len(passed)}] for n={n}; the scan range guarantees one"
            )
        found.append(first)
    return found


def next_prime_via_filter(n: int, table: PrimeTable) -> int:
    """Smallest m > 1 passing the filter; Bertrand's postulate bounds the scan."""
    return next_prime_sweep(n, n, table)[0]


def _harmonic_split(terms: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(N, D) with N/D = sum of 1/q for q in terms[lo:hi], hi > lo, unreduced.

    Leaves are (1, q); halves merge as (n1 d2 + n2 d1, d1 d2), so operands
    meet at balanced sizes and D is the product of the terms.
    """
    if hi - lo == 1:
        return 1, terms[lo]
    mid = (lo + hi) // 2
    n1, d1 = _harmonic_split(terms, lo, mid)
    n2, d2 = _harmonic_split(terms, mid, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def harmonic_certificate(n: int, table: PrimeTable) -> CertificateReport:
    """Exact rational harmonic sum over the filter survivors in [1, 2 p_n].

    Only survivors contribute (the filter vanishes elsewhere).  A survivor
    q > 1 has no prime factor up to p_n, and a composite with that property
    exceeds 2 p_n, so the survivors above 1 are the primes in (p_n, 2 p_n].
    Their sum of 1/q, the margin, is kept as an unreduced pair N/D with D
    their product, on the table from one call to the next.  Kept for n0, it
    serves any n from n0 up to the last prime it has joined; any other n
    starts it again as the empty sum at n.  Every call advances it: the
    primes p_{n0+1}..p_n leave the set, exactly, as N' = (N - n_R D')/R over
    D' = D/R, where n_R/R is their own sum with R their product (every
    other term D/q is a multiple of R), and the primes up to 2 p_n it has
    not joined join it as one product tree by binary splitting (Haible &
    Papanikolaou, "Fast multiprecision evaluation of series of rational
    numbers", ANTS 1998).  A call at n0 itself builds nothing.
    The pair is already in lowest terms: every q is a distinct prime, D is
    their product, and N = D/q (mod q) is nonzero mod each of them.  So the
    margin N/D and the sum (N + D)/D are built without a gcd.  A `decimal`
    twin of (N, D) takes the same steps, each big by small and so linear in
    the size under libmpdec; only the joined tree is converted, the whole
    sum after a new start.  The Fractions carry it, checked against the
    ints, to the report writer.  The float shadow re-accumulates the same
    terms in 64-bit arithmetic ascending in m, matching the naive loop the
    precision study critiques bit for bit.
    """
    bound = 2 * table.nth(n)
    if bound > table.limit:
        raise ValueError(f"scan range [1, {bound}] is beyond sieve limit {table.limit}")
    primes = table.primes
    hi = table.pi(bound)  # the survivors above 1 are primes[n:hi]
    if hi <= n:
        raise InvariantViolation(f"no filter survivor above 1 in [1, {bound}] for n={n}")
    memo = table._harmonic
    with exact_decimals():
        if memo is None or not memo[0] <= n <= memo[3]:
            memo = (n, 0, 1, n, (Decimal(0), Decimal(1)))
        start, numerator, denominator, joined, (twin_n, twin_d) = memo
        if n > start:
            n_r, r = _harmonic_split(primes, start, n)  # the terms that leave, p_{start+1}..p_n
            denominator //= r
            twin_d, rest_d = divmod(twin_d, r)  # `//` would drop a remainder unseen
            numerator = (numerator - n_r * denominator) // r
            twin_n, rest_n = divmod(twin_n - n_r * twin_d, r)
            if rest_d or rest_n:
                factor = f"p_n = {r}" if n - start == 1 else f"p_{start + 1} ··· p_n"
                raise InvariantViolation(f"n={n}: the Decimal twin is not a multiple of {factor}")
        if hi > joined:
            n2, d2 = _harmonic_split(primes, joined, hi)
            numerator, denominator = numerator * d2 + n2 * denominator, denominator * d2
            n2, d2 = to_decimal(n2), to_decimal(d2)
            twin_n, twin_d = twin_n * d2 + n2 * twin_d, twin_d * d2
        check_twins(f"n={n}", (numerator, twin_n), (denominator, twin_d))
        twin_sum = twin_n + twin_d
    margin = coprime_fraction(numerator, denominator, (twin_n, twin_d))
    exact = coprime_fraction(numerator + denominator, denominator, (twin_sum, twin_d))
    table._harmonic = (n, numerator, denominator, hi, (twin_n, twin_d))
    # cumsum adds in index order, one term at a time, as a Python loop would
    shadow = float(np.cumsum(1.0 / np.concatenate(([1.0], table.float_primes(hi)[n:])))[-1])
    return CertificateReport(
        n=n,
        next_prime=primes[n],
        exact_sum=exact,
        exact_floor=exact.numerator // exact.denominator,
        margin=margin,
        float_sum=shadow,
        float_floor=math.floor(shadow),
    )


def _checked_certificate(
    n: int, passed: np.ndarray, count: int, offsets: np.ndarray, table: PrimeTable
) -> tuple[CertificateReport, list[str]]:
    """The certificate for n and the invariants it breaks, given the filter's window at n.

    `count` is a running count of the survivors in `passed`, and `offsets`
    holds p - 1 for the primes p up to 2 p_n at least.  The survivors must
    be 1 and the primes the certificate summed, which checks both filter
    routes and its lemma (a composite survivor exceeds 2 p_n).  A gather
    and a count check it: 1 and each summed prime pass, and no more
    integers pass, for a superset of the right size is the set itself.
    """
    report = harmonic_certificate(n, table)
    found = report.violations()
    hi = table.pi(len(passed))
    if count != 1 + hi - n:  # a running count is recounted before it is reported
        count = int(np.count_nonzero(passed))
    if not (passed[0] and passed[offsets[n:hi]].all() and count == 1 + hi - n):
        survivors = (passed.nonzero()[0] + 1).tolist()
        stray = sorted(set(survivors).symmetric_difference([1, *table.primes[n:hi]]))
        found.append(f"n={n}: the filter and the certificate disagree on the survivors {stray}")
    return report, found


def certificate_steps(n_max: int, table: PrimeTable) -> Iterator[tuple[int, Callable[[], tuple]]]:
    """(n, certify) for n = 1..n_max, where certify() is `_checked_certificate` at n.

    A step costs the filter sweep's step and the survivor count; only the
    steps a caller certifies build a certificate.  certify is valid until
    the generator advances.  The count of survivors in [1, 2 p_n] is kept
    from step to step: the new tail (2 p_{n-1}, 2 p_n] adds its survivors,
    and striking p_n's multiples removes m = p_n, their only one in
    [1, 2 p_{n-1}], if it passed before.  That is exact while each window
    is the last one struck at p_n; `_checked_certificate` recounts a count
    that disagrees with the certificate's over the whole window, so a
    disagreement is reported only from a whole-window count.
    """
    count = seen = 0
    for n, passed in _filter_windows(1, n_max, table):
        if n == 1:  # the range is now validated; p - 1 for every prime the sweep sums
            offsets = np.array(table.primes[: table.pi(2 * table.nth(n_max))]) - 1
        count += int(np.count_nonzero(passed[seen:]))
        seen = len(passed)
        yield n, partial(_checked_certificate, n, passed, count, offsets, table)
        if n < n_max:  # p_{n+1} is struck next; it passes now unless a listed prime divides it
            p = table.primes[n]
            count -= p <= seen and bool(passed[p - 1])


def certificate_sweep(n_max: int, table: PrimeTable, violations: list) -> Iterator[CertificateReport]:
    """Certificates for n = 1..n_max, each built as the caller asks for it.

    Each is checked against the filter's survivors (see `_checked_certificate`);
    broken invariants go to `violations`.
    """
    for _, certify in certificate_steps(n_max, table):
        report, found = certify()
        violations.extend(found)
        yield report
