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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

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
# tracemalloc measured 17.51, 17.50 and 17.52 with 2 p_hi near 2e5, 2e6 and 8e6 (numpy 2.4),
# while the Möbius sums are added: the int8 Möbius table (1), the int32 sums (4), the int64
# divisors and their first int64 batch of multiples (0.6 of the entries each) and its int32
# gather.  Comparing the routes takes 16.4, finding the divisors 11.9 (the uint32 gather
# `listed[rest]` copies no intp index).  The rest covers the per-n lists the callers build.
SWEEP_BYTES = 20


def sweep_bytes(hi: int, table: PrimeTable) -> int:
    """Bytes the filter sweep up to n = hi takes at its peak, at most: SWEEP_BYTES an entry of [0, 2 p_hi]."""
    return SWEEP_BYTES * (2 * table.nth(hi) + 1)


class FilterSweep(NamedTuple):
    """The filter at steps n = lo..hi: m in [1, 2 p_n] passes at n exactly when death[m] > n."""

    death: np.ndarray  # the least n <= hi whose listed entry divides m, or hi + 1; read-only, as are the next two
    next_primes: np.ndarray  # at n - lo, the smallest m >= 2 that passes at n; above 2 p_n if none does
    survivors: np.ndarray  # at n - lo, how many m in [1, 2 p_n] pass at n
    failure: tuple | None  # (n, 0 for the re-check of p_n or 1 for the tail, m, Möbius sum, gcd test)

    def check(self, n: int) -> None:
        """Raise the routes' first mismatch if it lies at step n or before."""
        if self.failure is not None and self.failure[0] <= n:
            step, _, m, moebius, gcd = map(int, self.failure)
            raise InvariantViolation(f"filter mismatch at m={m}, n={step}: Möbius sum {moebius}, gcd test {gcd}")

    def certify(self, n: int, table: PrimeTable) -> tuple[CertificateReport, list[str]]:
        """The certificate for n and the invariants it breaks, once `check(n)` passes; the sweep starts at n = 1.

        The survivors must be 1 and the primes the certificate summed, which checks both
        filter routes and its lemma (a composite survivor exceeds 2 p_n).  A gather of `death`
        and the survivor count check it: 1 and each summed prime pass, and no more
        integers pass, for a superset of the right size is the set itself.
        """
        self.check(n)
        report = harmonic_certificate(n, table)
        found = report.violations()
        window = 2 * table.nth(n)
        hi = table.pi(window)
        death, summed = self.death, table.prime_view[n:hi]
        if not (death[1] > n and (death[summed] > n).all() and self.survivors[n - 1] == 1 + hi - n):
            survivors = ((death[1 : window + 1] > n).nonzero()[0] + 1).tolist()
            stray = sorted(set(survivors).symmetric_difference([1, *table.prime_array[n:hi]]))
            found.append(f"n={n}: the filter and the certificate disagree on the survivors {stray}")
        return report, found


def _filter_sweep(lo: int, hi: int, table: PrimeTable) -> FilterSweep:
    """Both routes of the filter on [1, 2 p_n] for n = lo..hi, compared in whole-array passes.

    The direct route is `death`, a least-factor table over the listed entries
    in the manner of Gries & Misra's linear sieve (CACM 21, 1978).  Each m is
    compared at its entry step, lo or the n with 2 p_{n-1} < m <= 2 p_n, and
    each prime m again at n = pi(m).  That compares every window [1, 2 p_n]
    whole: between steps both routes change only at the multiples of p_n, the
    direct route by striking them and the Möbius route through the divisors
    p_n brings to P_n, each p_n times an old one and so p_n or at least 2 p_n.
    In [1, 2 p_{n-1}] that leaves m = p_n, so the routes agree on [1, 2 p_n]
    once they agree at p_n and on the new tail (2 p_{n-1}, 2 p_n].  The first
    mismatch by step, the re-check of p_n before the tail, then by m, is the
    one a whole-window check names first; `FilterSweep.check` raises it.

    The Möbius route, the sum of mu(d) over the divisors d of P_n that divide
    m, is summed once.  The divisors of P_hi in [1, 2 p_hi], the products of
    distinct primes up to p_hi, are found from the table's primes alone, and
    each adds its weight mu(d) to all its multiples; but a prime p_n that
    enters an earlier window misses m = p_n until its re-check at step n.

    Striking only removes survivors, so the smallest above 1 at n is where the
    running maximum of death[2:] first passes n; an m survives from its entry
    step until death[m] if it passes when it enters, and never if not.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"sweep needs 1 <= lo <= hi, not [{lo}, {hi}]")
    bound = 2 * table.nth(hi)
    if bound > table.limit:
        raise ValueError(f"scan range [2, {bound}] is beyond sieve limit {table.limit}")
    mu = table.moebius_values(bound)
    primes = table.prime_array  # Python ints, for slice steps and `//=`
    entries = table.prime_view[:hi]  # p_n at n - 1
    # m <= bound has at most one prime factor above root = isqrt(bound).  So
    # m is a product of distinct primes up to p_hi exactly when dividing it
    # once by each prime up to root leaves 1 or one such prime above root.
    root = math.isqrt(bound)
    small = bisect_right(primes, root, 0, hi)
    rest = np.arange(bound + 1, dtype=np.min_scalar_type(bound))
    for p in primes[:small]:
        rest[p::p] //= p
    listed = np.zeros(bound + 1, dtype=bool)
    listed[entries] = True
    divisors = ((rest == 1) | ((rest > root) & listed[rest])).nonzero()[0]
    del rest, listed
    moebius_sum = np.zeros(bound + 1, dtype=np.int32)
    split = int(np.searchsorted(divisors, root, side="right"))
    for d, weight in zip(divisors[:split].tolist(), mu[divisors[:split]].tolist()):
        moebius_sum[d::d] += weight
    weights = mu[divisors[split:]]
    for multiples, count in cofactor_multiples(divisors[split:], bound):
        moebius_sum[multiples] += weights[:count]
    del divisors, weights
    # a prime p_n <= 2 p_{n-1}, n > lo, enters an earlier window, before p_n divides P_n
    rechecked = lo + 1 + (entries[lo:] <= 2 * entries[lo - 1 : -1]).nonzero()[0]
    early = entries[rechecked - 1]
    moebius_sum[early] -= mu[early]

    death = np.full(bound + 1, hi + 1, dtype=np.int32)
    for n in range(small, 0, -1):  # the least n is written last
        death[primes[n - 1] :: primes[n - 1]] = n
    ordinals = np.arange(1, hi + 1, dtype=np.int32)  # int32, as `death` is, so no int64 copy of it is made
    for multiples, count in cofactor_multiples(entries[small:], bound):
        death[multiples] = np.minimum(death[multiples], ordinals[small : small + count])
    entry = np.repeat(ordinals[lo - 1 :], np.diff(2 * entries[lo - 1 :], prepend=0))  # at m - 1, as is `alive`
    alive = death[1:] > entry  # m passes at its entry step
    sums, passes = moebius_sum[early] + mu[early], death[early] > rechecked
    failures = [(rechecked[i], 0, early[i], sums[i], passes[i]) for i in np.flatnonzero(sums != passes)[:1]]
    m = int(np.argmax(moebius_sum[1:] != alive)) + 1
    if moebius_sum[m] != alive[m - 1]:
        failures.append((entry[m - 1], 1, m, moebius_sum[m], alive[m - 1]))
    counts = np.bincount(entry[alive], minlength=hi + 2) - np.bincount(death[1:][alive], minlength=hi + 2)
    del moebius_sum, entry, alive
    reach = np.maximum.accumulate(death[2:])
    arrays = death, 2 + np.searchsorted(reach, ordinals[lo - 1 :], side="right"), np.cumsum(counts)[lo : hi + 1]
    for array in arrays:
        array.flags.writeable = False
    return FilterSweep(*arrays, min(failures, default=None))


def next_prime_sweep(lo: int, hi: int, table: PrimeTable) -> list[int]:
    """Smallest filter survivor above 1 for each n in [lo, hi], from one `_filter_sweep`.

    A mismatch of the filter's routes, or a step with no survivor in
    [2, 2 p_n], raises at the first step it lies at, the mismatch first.
    """
    sweep = _filter_sweep(lo, hi, table)
    empty = lo + np.flatnonzero(sweep.next_primes > 2 * table.prime_view[lo - 1 : hi])
    n = int(empty[0]) if empty.size else hi  # the last step to check
    sweep.check(n)
    if empty.size:
        raise InvariantViolation(
            f"no filter survivor in [2, {2 * table.nth(n)}] for n={n}; the scan range guarantees one"
        )
    return sweep.next_primes.tolist()


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
    shadow = float(np.cumsum(np.concatenate(([1.0], 1.0 / table.prime_view[n:hi])))[-1])
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


def certificate_sweep(n_max: int, table: PrimeTable, violations: list) -> Iterator[CertificateReport]:
    """Certificates for n = 1..n_max from one filter sweep, each built as the caller asks for it.

    Each is checked against the filter's survivors (see `FilterSweep.certify`);
    broken invariants go to `violations`.
    """
    sweep = _filter_sweep(1, n_max, table)
    for n in range(1, n_max + 1):
        report, found = sweep.certify(n, table)
        violations.extend(found)
        yield report
