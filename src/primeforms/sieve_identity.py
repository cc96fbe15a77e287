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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np

from .core import InvariantViolation, PrimeTable, Ratio, check_twins, cofactor_multiples, exact_decimals, to_decimal

MACHINE_EPSILON = 2.22e-16  # 64-bit epsilon, as used by the float probes
FLOAT_GAP_THRESHOLD = 1e3 * MACHINE_EPSILON
# ln 2 truncated after 40 decimals, so a strict lower bound with 40 correct
# digits; the tail check compares against it exactly.
LN2_LOWER = Fraction("0.6931471805599453094172321214581765680755")


@dataclass
class CertificateReport:
    """Exact harmonic-sum certificate for one sieve step, with its float shadow; each field is a report column."""

    n: int
    next_prime: int  # smallest filter survivor above 1
    exact_sum: Ratio  # sum of 1/m over survivors in [1, 2 p_n]
    exact_floor: int
    margin: Ratio  # exact_sum - 1
    float_sum: float  # naive 64-bit accumulation, ascending m
    float_floor: int
    float_margin: float  # float_sum - 1
    float_gap: float  # float_sum - exact_sum rounded to float, the signed float-vs-exact error

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
        Bit lengths alone rule the second out when they put |tail| below 1/2,
        as they do at every n up to 3000 at least.
        """
        out = []
        if self.exact_floor != 1:
            out.append(f"n={self.n}: exact floor is {self.exact_floor}, expected 1")
        numerator, denominator, _ = self.margin
        p = self.next_prime
        excess = numerator * p - denominator
        if excess < 0:
            out.append(f"n={self.n}: margin fell below 1/{p}")
        # |excess| < 2^bl(excess), D >= 2^(bl(D) - 1) and p >= 2^(bl(p) - 1), so the
        # tail is below 1/2 < LN2_LOWER when those exponents sum to -1 or less
        if excess.bit_length() - denominator.bit_length() - p.bit_length() + 2 <= -1:
            return out
        if excess * LN2_LOWER.denominator >= LN2_LOWER.numerator * denominator * p:
            out.append(f"n={self.n}: harmonic tail {excess / (denominator * p)} reached ln 2")
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


# Bytes per entry of [0, 2 p_hi] that a filter sweep's arrays take at their peak, at most.
# While the divisors are found: the Möbius table's int8 (1), the uint32 quotients `rest`
# (4), the prime marks and three boolean masks (4) and numpy's intp copy of `rest` for
# the gather `listed[rest]` (8).  Later arrays peak lower: the int32 Möbius sums, the
# int64 divisors and one int64 batch of their multiples, about 0.6 of the entries each.
# tracemalloc measured 17.4 bytes an entry at 2 p_hi from 2e5 to 8e6; the rest of the
# 20 covers the per-n lists the callers build beside it.
SWEEP_BYTES = 20


def sweep_bytes(hi: int, table: PrimeTable) -> int:
    """Bytes the filter sweep up to n = hi takes at its peak, at most: SWEEP_BYTES an entry of [0, 2 p_hi]."""
    return SWEEP_BYTES * (2 * table.nth(hi) + 1)


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
    primes up to p_hi, found from the table's primes alone; only their
    weights mu(d) are read from the Möbius table.  Each adds its weight to
    all its multiples, but a prime p_n that enters an earlier window misses
    m = p_n until the re-check at step n adds it.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"sweep needs 1 <= lo <= hi, not [{lo}, {hi}]")
    bound = 2 * table.nth(hi)
    if bound > table.limit:
        raise ValueError(f"scan range [2, {bound}] is beyond sieve limit {table.limit}")
    mu = table.moebius_values(bound)
    primes = table.prime_array[:hi]
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
    weights = mu[divisors[split:]]
    for multiples, count in cofactor_multiples(divisors[split:], bound):
        moebius_sum[multiples] += weights[:count]
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


_SCAN_CHUNK = 256  # entries of a next-prime scan's first chunk


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
        # argmax reads a read-only view to its end, so it scans a chunk widened until
        # it holds a survivor or reaches the end: O(gap) entries a step, not O(p_n)
        width = _SCAN_CHUNK
        while not (chunk := passed[first - 1 : first - 1 + width]).any() and first - 1 + width < len(passed):
            width *= 4
        first += int(np.argmax(chunk))  # unchanged when nothing from first on passed
        if not passed[first - 1]:
            raise InvariantViolation(
                f"no filter survivor in [2, {len(passed)}] for n={n}; the scan range guarantees one"
            )
        found.append(first)
    return found


def next_prime_via_filter(n: int, table: PrimeTable) -> int:
    """Smallest m > 1 passing the filter; Bertrand's postulate bounds the scan."""
    return next_prime_sweep(n, n, table)[0]


def _harmonic_split(terms: Sequence[int], lo: int, hi: int) -> tuple[int, int]:
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
    sum after a new start.  Once the twin is checked against the ints, D's
    digits are printed once, and both `Ratio` records carry that text and
    their Decimal numerators to the report writer.  The float shadow
    re-accumulates the same terms in 64-bit arithmetic ascending in m,
    matching the naive loop the precision study critiques bit for bit.
    """
    bound = 2 * table.nth(n)
    if bound > table.limit:
        raise ValueError(f"scan range [1, {bound}] is beyond sieve limit {table.limit}")
    primes = table.prime_array
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
            # n_R is 1 when one prime leaves, and 1 * D would copy D
            left, twin_left = (denominator, twin_d) if n_r == 1 else (n_r * denominator, n_r * twin_d)
            numerator = (numerator - left) // r
            twin_n, rest_n = divmod(twin_n - twin_left, r)
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
    d_text = str(twin_d)  # D is printed once, as the denominator of both records
    total = numerator + denominator
    table._harmonic = (n, numerator, denominator, hi, (twin_n, twin_d))
    # cumsum adds in index order, one term at a time, as a Python loop would
    shadow = float(np.cumsum(1.0 / np.concatenate(([1.0], table.float_primes(hi)[n:])))[-1])
    return CertificateReport(
        n=n,
        next_prime=primes[n],
        exact_sum=Ratio(total, denominator, (twin_sum, d_text)),
        exact_floor=1 + numerator // denominator,  # (N + D) // D without the full-size sum's division
        margin=Ratio(numerator, denominator, (twin_n, d_text)),
        float_sum=shadow,
        float_floor=math.floor(shadow),
        float_margin=shadow - 1.0,
        float_gap=shadow - total / denominator,  # int / int rounds the exact quotient correctly
    )


def _checked_certificate(
    n: int, passed: np.ndarray, offsets: np.ndarray, table: PrimeTable
) -> tuple[CertificateReport, list[str]]:
    """The certificate for n and the invariants it breaks, given the filter's window at n.

    `offsets` holds p - 1 for the primes p up to 2 p_n at least.  The
    survivors must be 1 and the primes the certificate summed, which checks
    both filter routes and its lemma (a composite survivor exceeds 2 p_n).
    A gather and a count over the whole window check it: 1 and each summed
    prime pass, and no more integers pass, for a superset of the right size
    is the set itself.
    """
    report = harmonic_certificate(n, table)
    found = report.violations()
    hi = table.pi(len(passed))
    if not (passed[0] and passed[offsets[n:hi]].all() and np.count_nonzero(passed) == 1 + hi - n):
        survivors = (passed.nonzero()[0] + 1).tolist()
        stray = sorted(set(survivors).symmetric_difference([1, *table.prime_array[n:hi]]))
        found.append(f"n={n}: the filter and the certificate disagree on the survivors {stray}")
    return report, found


def certificate_steps(n_max: int, table: PrimeTable) -> Iterator[tuple[int, Callable[[], tuple]]]:
    """(n, certify) for n = 1..n_max, where certify() is `_checked_certificate` at n.

    A step costs the filter sweep's step; only the steps a caller certifies
    build a certificate and count the survivors of their window.  certify
    is valid until the generator advances.
    """
    for n, passed in _filter_windows(1, n_max, table):
        if n == 1:  # the range is now validated; p - 1 for every prime the sweep sums
            offsets = np.array(table.prime_array[: table.pi(2 * table.nth(n_max))]) - 1
        yield n, partial(_checked_certificate, n, passed, offsets, table)


def certificate_sweep(n_max: int, table: PrimeTable, violations: list) -> Iterator[CertificateReport]:
    """Certificates for n = 1..n_max, each built as the caller asks for it.

    Each is checked against the filter's survivors (see `_checked_certificate`);
    broken invariants go to `violations`.
    """
    for _, certify in certificate_steps(n_max, table):
        report, found = certify()
        violations.extend(found)
        yield report
