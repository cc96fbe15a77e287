"""Core oracle tests: sieve correctness, arithmetic functions, exact rationals."""

import math
import random
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeforms import core
from primeforms.core import TWIN_MODULUS, ResourceLimitError, _twin_residue, sieve

import reference
from reference import von_mangoldt


# -- an independent segmented re-sieve, used only as a cross-check oracle ----


def segmented_prime_count(limit: int, segment: int = 1 << 16) -> int:
    """Count primes <= limit with a segmented odd-only sieve (independent code path)."""
    if limit < 2:
        return 0
    root = math.isqrt(limit)
    base = [True] * (root + 1)
    base_primes = []
    for p in range(2, root + 1):
        if base[p]:
            base_primes.append(p)
            for q in range(p * p, root + 1, p):
                base[q] = False
    count = len([p for p in base_primes if p <= limit])
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        window = [True] * (hi - lo + 1)
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            for q in range(start, hi + 1, p):
                window[q - lo] = False
        count += sum(window)
        lo = hi + 1
    return count


def trial_division_is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


# -- sieve -------------------------------------------------------------------


def test_sieve_ten():
    assert sieve(10).primes == [2, 3, 5, 7]


def test_sieve_two():
    assert sieve(2).primes == [2]


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve(1)


def least_prime_divisor(m: int) -> int:
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return d
    return m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=2000))
@example(4)
@example(9)
@example(25)
@example(49)
@example(120)
@example(121)
@example(122)
@example(961)
def test_sieve_boundaries_match_trial_division(limit):
    # prime squares and their neighbours sit on the isqrt edge of the sieve's striking pass
    table = sieve(limit)
    span = range(2, limit + 1)
    assert table.primes == [m for m in span if trial_division_is_prime(m)]
    assert [table.factorize(m)[0][0] for m in span] == [least_prime_divisor(m) for m in span]


def test_sieve_refuses_limits_past_memory_before_allocating(capped_address_space):
    # 2^31 and 2^31 - 1 each need about 2.9 GiB for the boolean table and the
    # primes' int64 index, past the 1 GiB cap, so both are refused before allocating
    probe = (
        "from primeforms.core import ResourceLimitError, sieve\n"
        "for limit in (2**31, 2**31 - 1):\n"
        "    try:\n"
        "        sieve(limit)\n"
        "    except ResourceLimitError as exc:\n"
        "        print('refused:', exc)\n"
        "    except MemoryError:\n"
        "        print('allocating')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=capped_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    for line, limit in zip(lines, (2**31, 2**31 - 1)):
        assert line.startswith(f"refused: --sieve-limit {limit} needs about 3004 MiB"), line


def test_sieve_memory_estimate_covers_its_allocations(monkeypatch):
    # numpy reports its buffers to tracemalloc, so the traced peak is what the
    # sieve allocates; a budget one byte below it must already be refused
    tracemalloc.start()
    try:
        sieve(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(core, "_memory_budget", lambda: peak - 1)
    with pytest.raises(ResourceLimitError, match="needs about"):
        sieve(10**6)


def test_sieve_keeps_about_eight_bytes_a_prime():
    # one int64 a prime in the table's array, where a list kept an int object and a slot, 40 bytes
    tracemalloc.start()
    try:
        table = sieve(10**6)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.prime_array) == 78498
    assert kept <= 9 * 78498, kept / 78498


def test_prime_list_view_equals_the_array():
    table = sieve(20_000)
    assert "primes" not in vars(table)  # built only when read
    view = table.primes
    assert type(view) is list and view == table.prime_array.tolist() and table.primes is view
    listed = core.PrimeTable(limit=30, primes=[2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    assert listed.prime_array == array("q", listed.primes) and listed.nth(10) == 29


def test_sieve_million_matches_segmented_resieve(table):
    count = table.pi(10**6)
    assert count == segmented_prime_count(10**6)
    assert count == 78498


def test_sieve_table_invariants(small_table):
    primes = small_table.primes
    assert all(a < b for a, b in zip(primes, primes[1:]))
    assert all(trial_division_is_prime(p) for p in primes)
    assert all(small_table.pi(p) == i for i, p in enumerate(primes, start=1))
    assert primes[0] == 2
    # every non-listed integer has a prime factor <= sqrt(limit)
    listed = set(primes)
    root = math.isqrt(small_table.limit)
    for m in range(2, small_table.limit + 1):
        if m not in listed:
            assert small_table.factorize(m)[0][0] <= root


def test_nth_and_pi_and_next_prime(table):
    assert table.nth(1) == 2
    assert table.nth(25) == 97
    assert table.pi(100) == 25
    assert table.primes[table.pi(97)] == 101  # the next prime above 97
    with pytest.raises(ValueError):
        table.nth(0)
    with pytest.raises(ValueError):
        table.nth(10**7)


# -- primorial ----------------------------------------------------------------


def test_primorial_hand_values(table):
    assert table.primorial(1) == 2
    assert table.primorial(3) == 30
    assert table.primorial(7) == 510510


def test_primorial_recurrence(table):
    # spot-check against an independent product, then the recurrence, which
    # asks for n + 1 before n and so starts the memo again at every step
    for n in (1, 2, 10, 137, 500):
        assert table.primorial(n) == math.prod(table.primes[:n])
    for n in range(1, 2000):
        assert table.primorial(n + 1) == table.primorial(n) * table.nth(n + 1)


@settings(max_examples=40, deadline=None)
@given(ns=st.lists(st.integers(1, 3000), min_size=1, max_size=8))
@example(ns=[5, 5, 7, 3, 3000, 2999, 1])
def test_primorial_matches_the_product_in_any_call_order(table, ns):
    fresh = core.PrimeTable(limit=table.limit, primes=table.primes)
    for n in ns:
        assert fresh.primorial(n) == math.prod(table.primes[:n]), n


def test_primorial_memo_keeps_one_product(table):
    # P_5000 has 69,675 bits; a memo of every P_k up to it holds about 19.5 MiB
    fresh = core.PrimeTable(limit=table.limit, primes=table.primes)
    tracemalloc.start()
    try:
        fresh.primorial(4999)
        value = fresh.primorial(5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == math.prod(table.primes[:5000])
    assert peak < 1 << 20


# -- Möbius --------------------------------------------------------------------


def test_moebius_hand_values(table):
    assert table.moebius(1) == 1
    assert table.moebius(4) == 0
    assert table.moebius(30) == -1
    with pytest.raises(ValueError):
        table.moebius(0)


def test_moebius_divisor_sum_identity(table):
    # sum of mu(d) over d | k is 1 at k = 1 and 0 otherwise
    for k in range(1, 10_001):
        total = sum(table.moebius(d) for d in range(1, k + 1) if k % d == 0)
        assert total == (1 if k == 1 else 0), k


# -- von Mangoldt ----------------------------------------------------------------


def test_von_mangoldt_hand_values(table):
    assert von_mangoldt(table, 1) == 0.0
    assert von_mangoldt(table, 8) == math.log(2)
    assert von_mangoldt(table, 12) == 0.0


def test_von_mangoldt_chebyshev_identity(table):
    # sum of von Mangoldt over the divisors of k telescopes to ln k
    for k in range(1, 10_001):
        total = math.fsum(von_mangoldt(table, d) for d in range(1, k + 1) if k % d == 0)
        assert abs(total - math.log(k)) <= 1e-12, k


# -- totient ---------------------------------------------------------------------


def test_totient_hand_values(table):
    assert table.totient(1) == 1
    assert table.totient(12) == 4
    for p in (2, 3, 97, 7919):
        assert table.totient(p) == p - 1


def test_totient_multiplicative_on_random_coprime_pairs(table):
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        a = rng.randint(1, 10_000)
        b = rng.randint(1, 10_000)
        if math.gcd(a, b) != 1:
            continue
        assert table.totient(a * b) == table.totient(a) * table.totient(b)
        checked += 1


# -- exact rational substrate ------------------------------------------------------


@settings(max_examples=1000)
@given(
    a=st.integers(-10**12, 10**12),
    b=st.integers(1, 10**12),
    c=st.integers(-10**12, 10**12),
    d=st.integers(1, 10**12),
)
def test_rational_add_sub_roundtrip_is_exact(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert (x + y) - y == x


@given(n=st.integers(-10**9, 10**9), d=st.integers(1, 10**9))
def test_rational_canonical_form(n, d):
    f = Fraction(n, d)
    assert f.denominator >= 1
    assert math.gcd(abs(f.numerator), f.denominator) == 1


@st.composite
def subnormal_quotients(draw):
    """(a, b) whose quotient lies between about 2^-1021 and 2^-1080: subnormal, or rounding to 0."""
    a, b = draw(st.integers(1, 2**200)), draw(st.integers(1, 2**200))
    return a, b << 1021 + a.bit_length() - b.bit_length() + draw(st.integers(0, 58))


@settings(max_examples=300)
@given(
    pair=st.one_of(
        st.tuples(st.integers(-(2**2200), 2**2200), st.integers(1, 2**2200)),
        st.tuples(st.integers(2**1100, 2**2200), st.integers(2**1100, 2**2200)),
        subnormal_quotients(),
    ),
    common=st.integers(1, 2**70),
)
@example(pair=(-5, 3), common=1)
@example(pair=(3**1500 + 1, 2**2100 + 1), common=6)  # both operands past 2^1100
@example(pair=(2**1100 + 1, 2**1100 - 1), common=6)
@example(pair=(1, 2**1074), common=6)  # the least subnormal
@example(pair=(1, 2**1075), common=6)  # half of it, a tie rounded to even 0
@example(pair=(3, 2**1076), common=6)  # three quarters of it, rounded up
@example(pair=(2**1100, 3), common=6)  # past the largest float
def test_int_quotient_is_the_float_of_the_fraction(pair, common):
    # a certificate's float_gap and its ln 2 message divide the record's ints, where
    # float(Fraction) divides the reduced pair: the same correctly rounded quotient
    a, b = pair[0] * common, pair[1] * common
    try:
        expected = float(Fraction(a, b))
    except OverflowError:
        with pytest.raises(OverflowError):
            a / b
    else:
        assert (a / b).hex() == expected.hex()


def test_twin_residue_is_the_remainder():
    m = TWIN_MODULUS
    rng = random.Random(2_61)
    values = [0, 1, m - 1, m, m + 1, 1 << 61, 1 << 122, (1 << 122) - 1, (1 << 123) + m, m * m, m**7 - 1]
    values += [rng.getrandbits(rng.randrange(30_001)) for _ in range(300)]
    values += [rng.getrandbits(bits) for bits in (121, 122, 123, 183, 244, 245, 25_000, 30_000)]
    for value in values:
        assert _twin_residue(value) == value % m, value.bit_length()
        assert _twin_residue(-value) == -value % m, value.bit_length()


# -- table utilities -----------------------------------------------------------------


def test_twin_pairs_small(table):
    assert table.twin_pairs(10) == [(3, 5), (5, 7)]
    assert table.twin_pairs(4) == []


def test_twin_pairs_match_brute_force(small_table):
    def brute(x_max: int) -> list[tuple[int, int]]:
        candidates = range(2, x_max - 1)
        return [(p, p + 2) for p in candidates if trial_division_is_prime(p) and trial_division_is_prime(p + 2)]

    for x_max in [*range(1, 200), small_table.limit]:
        assert small_table.twin_pairs(x_max) == brute(x_max), x_max


def test_factorize_beyond_limit_uses_trial_division(small_table):
    m = 19_993 * 19_997  # both prime, product beyond the small table's limit
    assert small_table.factorize(m) == [(19_993, 1), (19_997, 1)]


@settings(max_examples=200)
@given(m=st.integers(2, 20_000))
def test_factorize_reconstructs_argument(small_table, m):
    assert math.prod(p**e for p, e in small_table.factorize(m)) == m


def test_moebius_values_match_scalar_moebius():
    small = sieve(100_000)
    mu = small.moebius_values(100_000)
    assert mu[0] == 0
    assert [int(v) for v in mu[1:]] == [small.moebius(m) for m in range(1, 100_001)]
    assert small.moebius_values(50) is mu  # a smaller request reuses the memo


_LISTED = sieve(5_000)


@settings(max_examples=60, deadline=None)
@given(
    drop=st.one_of(st.none(), st.sampled_from(_LISTED.primes)),
    insert=st.one_of(st.none(), st.integers(4, 5_000)),
    upto=st.integers(1, 5_000),
)
@example(drop=None, insert=None, upto=5_000)
@example(drop=None, insert=33, upto=70)  # a composite above isqrt(1024), flipped by its cofactors
@example(drop=4_999, insert=None, upto=5_000)  # a prime above isqrt(5000) whose multiples stay unflipped
@example(drop=2, insert=4, upto=3_000)  # a listed square below the root
def test_moebius_values_match_the_per_entry_loop_on_any_listed_table(drop, insert, upto):
    # the filter's corruption tests read the Möbius table of a mutant list, so it must be
    # the per-entry loop's on a list with a prime dropped or a composite inserted too
    primes = sorted({*_LISTED.primes, *([insert] if insert else [])} - {drop})
    table = core.PrimeTable(limit=_LISTED.limit, primes=primes)
    mu = table.moebius_values(upto)
    assert np.array_equal(mu, reference.moebius_values(table, len(mu) - 1))


def test_constant_column_reads_as_a_list_of_its_text():
    column, listed = core.DerivedColumn("capacity", range(3, 10)), ["capacity"] * 7
    assert len(column) == 7 and list(column) == listed  # iteration ends past the last row
    for i in (slice(2, 5), slice(-3, None), slice(5, 100), slice(4, 2), 0, 6, -1):
        assert column[i] == listed[i]
    with pytest.raises(IndexError):
        column[7]
