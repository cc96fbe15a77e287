"""Discrete sieving identity for the next prime.

A Möbius-derived coprimality filter keeps exactly the integers sharing no
prime factor with the n-th primorial; on [1, 2 p_n] (Bertrand's range) the
smallest survivor above 1 is p_{n+1}, and the harmonic sum over survivors
has floor exactly 1.  The sum is evaluated in exact rationals; a 64-bit
float shadow of the same sum feeds the precision study.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def float_gap(self) -> float:
        """Signed float-vs-exact error of the harmonic sum."""
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

    Both routes of the filter are kept as arrays over the window
    [0, 2 p_hi] and advanced once per prime p_n.  The direct route strikes
    the multiples of p_n.  The Möbius route holds, for every m, the sum of
    mu(d) over the divisors d of P_n that divide m: the divisors p_n brings
    are p_n times the earlier ones, and each adds mu(d) to the multiples of
    d.  Each window is yielded only after the routes agreed on all of it.
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


def next_prime_sweep(lo: int, hi: int, table: PrimeTable) -> list[int]:
    """Smallest filter survivor above 1 for each n in [lo, hi], from one sweep.

    Both routes of the filter are checked on every m of Bertrand's range
    [1, 2 p_n] for every swept n (see `_filter_windows`).
    """
    found = []
    for n, passed in _filter_windows(lo, hi, table):
        first = int(np.argmax(passed[1:])) + 2  # 2 when nothing above 1 passed
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
    their product, on the table from one call to the next.  A call for the
    previous n + 1 advances it: p_n leaves the set, exactly, as
    N' = (N - D/p_n)/p_n over D' = D/p_n (every other term D/q is a
    multiple of p_n), and the primes in (2 p_{n-1}, 2 p_n] join it through
    a small product tree.  Any other call builds the whole pair as one
    product tree by binary splitting (Haible & Papanikolaou, "Fast
    multiprecision evaluation of series of rational numbers", ANTS 1998).
    The pair is already in lowest terms: every q is a distinct prime, D is
    their product, and N = D/q (mod q) is nonzero mod each of them.  So the
    margin N/D and the sum (N + D)/D are built without a gcd.  A `decimal`
    twin of (N, D) takes the same steps, each big by small and so linear in
    the size under libmpdec; only a cold call converts.  The Fractions carry
    it, checked against the ints, to the report writer.  The float shadow
    re-accumulates the same terms in 64-bit arithmetic ascending in m,
    matching the naive loop the precision study critiques bit for bit.
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
        if memo is not None and memo[0] == n - 1:
            _, numerator, denominator, joined, (twin_n, twin_d) = memo
            p = primes[n - 1]
            denominator //= p
            numerator = (numerator - denominator) // p
            twin_d, rest_d = divmod(twin_d, p)  # `//` would drop a remainder unseen
            twin_n, rest_n = divmod(twin_n - twin_d, p)
            if rest_d or rest_n:
                raise InvariantViolation(f"n={n}: the Decimal twin is not a multiple of p_n = {p}")
            if hi > joined:
                n2, d2 = _harmonic_split(primes, joined, hi)
                numerator, denominator = numerator * d2 + n2 * denominator, denominator * d2
                twin_n, twin_d = twin_n * d2 + n2 * twin_d, twin_d * d2
        else:
            numerator, denominator = _harmonic_split(primes, n, hi)
            twin_n, twin_d = to_decimal(numerator), to_decimal(denominator)
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


def certificate_sweep(n_max: int, table: PrimeTable, violations: list) -> Iterator[CertificateReport]:
    """Certificates for n = 1..n_max, each built as the caller asks for it.

    The filter's survivors in [1, 2 p_n] must be 1 and the primes the
    certificate summed, which checks both filter routes and its lemma (a
    composite survivor exceeds 2 p_n).  A gather and a count check it: 1 and
    each summed prime pass, and no more integers pass, for a superset of the
    right size is the set itself.  Broken invariants go to `violations`.
    """
    for n, passed in _filter_windows(1, n_max, table):
        if n == 1:  # the range is now validated; p - 1 for every prime the sweep sums
            offsets = np.array(table.primes[: table.pi(2 * table.nth(n_max))]) - 1
        report = harmonic_certificate(n, table)
        violations.extend(report.violations())
        hi = table.pi(len(passed))
        if not (passed[0] and passed[offsets[n:hi]].all() and np.count_nonzero(passed) == 1 + hi - n):
            survivors = (passed.nonzero()[0] + 1).tolist()
            stray = sorted(set(survivors).symmetric_difference([1, *table.primes[n:hi]]))
            violations.append(f"n={n}: the filter and the certificate disagree on the survivors {stray}")
        yield report
