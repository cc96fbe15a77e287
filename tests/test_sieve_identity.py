"""Filter, survivor scan, and exact certificate tests."""

import io
import math
import re
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeforms import sieve_identity
from primeforms.core import InvariantViolation, PrimeTable, exact_decimals, sieve
from primeforms.sieve_identity import (
    LN2_LOWER,
    CertificateReport,
    _filter_sweep,
    certificate_sweep,
    coprime_indicator,
    harmonic_certificate,
    next_prime_sweep,
    next_prime_via_filter,
    sweep_bytes,
)

import reference
from reference import certificate_violations, filter_windows, fraction, ratio, sweep_windows


def test_filter_hand_values(table):
    assert coprime_indicator(7, 2, table) == 1  # 7 coprime to 6
    assert coprime_indicator(9, 2, table) == 0  # 3 | 9
    with pytest.raises(ValueError):
        coprime_indicator(0, 1, table)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 1000))
def test_filter_passes_one_for_any_n(table, n):
    assert coprime_indicator(1, n, table) == 1


def test_filter_dual_paths_agree_exhaustively(table):
    # coprime_indicator and the sweep each raise on a Möbius-vs-gcd disagreement
    # of their own routes; a clean run over n <= 500, m <= 2 p_n in which the two
    # implementations agree at every m is the agreement proof.
    windows = list(sweep_windows(1, 500, table))
    assert [n for n, _ in windows] == list(range(1, 501))
    for n, passed in windows:
        expected = [coprime_indicator(m, n, table) for m in range(1, 2 * table.nth(n) + 1)]
        assert passed.astype(int).tolist() == expected, n


def test_filter_vanishes_strictly_between_one_and_next_prime(table):
    for n in range(1, 101):
        next_p = table.nth(n + 1)
        for m in range(2, next_p):
            assert coprime_indicator(m, n, table) == 0, (n, m)


def test_next_prime_hand_values(table):
    assert next_prime_via_filter(1, table) == 3
    assert next_prime_via_filter(2, table) == 5
    assert next_prime_via_filter(25, table) == 101  # p_25 = 97


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 500))
def test_next_prime_matches_oracle(table, n):
    assert next_prime_via_filter(n, table) == table.nth(n + 1)


def test_survivor_above_one_is_not_always_unique(table):
    # The minimal-survivor characterization holds, but survivors above 1 in
    # [1, 2 p_n] need not be unique: at n = 4 both 11 and 13 pass the filter
    # (13 <= 2 * 7), so only the minimum and the floor identity are contracts.
    assert coprime_indicator(11, 4, table) == 1
    assert coprime_indicator(13, 4, table) == 1
    assert 13 <= 2 * table.nth(4)
    assert next_prime_via_filter(4, table) == 11


def test_certificate_hand_values(table):
    c1 = harmonic_certificate(1, table)
    assert fraction(c1.exact_sum) == Fraction(4, 3)
    assert c1.exact_floor == 1
    assert fraction(c1.margin) == Fraction(1, 3)
    assert c1.next_prime == 3

    # survivors of [1, 2 p_2] = [1, 6] coprime to 6 are 1 and 5
    c2 = harmonic_certificate(2, table)
    assert fraction(c2.exact_sum) == Fraction(6, 5)
    assert c2.exact_floor == 1
    assert fraction(c2.margin) == Fraction(1, 5)
    assert c2.next_prime == 5


def test_certificate_n100_floor_is_one(table):
    report = harmonic_certificate(100, table)
    assert report.exact_floor == 1
    assert report.violations() == []


def test_margin_bounds_small_sweep(table):
    ln2 = math.log(2.0)
    for n in range(1, 51):
        report = harmonic_certificate(n, table)
        lower = Fraction(1, report.next_prime)
        assert fraction(report.margin) >= lower  # exact comparison
        assert float(fraction(report.margin) - lower) < ln2 + 1e-12


def test_margin_includes_next_prime_term(table):
    for n in (1, 5, 42, 300):
        report = harmonic_certificate(n, table)
        assert fraction(report.margin) >= Fraction(1, report.next_prime)


def assert_naive_sum_in_lowest_terms(report, table):
    survivors = table.primorial_coprime(report.n, 2 * table.nth(report.n))
    assert fraction(report.exact_sum) == sum(Fraction(1, m) for m in survivors)
    margin = report.margin
    assert math.gcd(margin.numerator, margin.denominator) == 1
    assert margin.denominator == math.prod(survivors[1:])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400))
def test_certificate_matches_naive_sum_in_lowest_terms(table, n):
    assert_naive_sum_in_lowest_terms(harmonic_certificate(n, table), table)


@st.composite
def certificate_calls(draw):
    """(table, n) calls: ascending runs, a repeated n, jumps both ways, a second table."""
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(["run", "repeat", "other"]))
        if step == "run" or not calls:
            start = draw(st.integers(1, 200))
            calls += [("main", n) for n in range(start, start + draw(st.integers(1, 8)))]
        elif step == "repeat":
            calls.append(calls[-1])
        else:
            calls.append(("other", draw(st.integers(1, 200))))
    return calls


@settings(max_examples=40, deadline=None)
@given(calls=certificate_calls())
@example(
    calls=[("main", 1), ("main", 2), ("main", 3), ("main", 3), ("main", 4), ("main", 10),
           ("main", 9), ("other", 4), ("main", 10), ("main", 11), ("main", 5), ("main", 6)]
)
# forward gaps: 60 -> 77 and 77 -> 93 jump within the joined primes, 93 -> 200 does not
@example(calls=[("main", 60), ("main", 77), ("other", 80), ("main", 93), ("main", 200), ("main", 202)])
def test_certificate_memo_matches_naive_sum_in_any_call_order(table, small_table, calls):
    # each table advances its own running sum on a call for its own n or any later n
    # up to the primes it has joined, and starts it again on any other
    tables = {"main": table, "other": small_table}
    for name, n in calls:
        assert_naive_sum_in_lowest_terms(harmonic_certificate(n, tables[name]), tables[name])


@pytest.mark.parametrize("limit", [0, 640, 4300])
@settings(max_examples=15, deadline=None)
@given(calls=certificate_calls())
@example(calls=[("main", 900), ("main", 901), ("other", 1200), ("main", 2500), ("main", 2501), ("main", 2500)])
def test_certificate_decimals_print_the_binary_digits(table, small_table, limit, calls):
    # the twin's digits, under any int-to-str limit, are str() of the ints without one;
    # D's digits are printed once, by the certificate, and both records carry that text
    tables = {"main": table, "other": small_table}
    previous = sys.get_int_max_str_digits()
    for name, n in calls:
        try:
            sys.set_int_max_str_digits(limit)
            report = harmonic_certificate(n, tables[name])
            values = (report.margin, report.exact_sum)
            assert report.margin.decimals[1] is report.exact_sum.decimals[1], n
            printed = [str(twin) for value in values for twin in value.decimals]
            sys.set_int_max_str_digits(0)
            assert printed == [str(part) for value in values for part in (value.numerator, value.denominator)]
        finally:
            sys.set_int_max_str_digits(previous)


def cold_certificate(n, table):
    """The certificate for n from a table with no running sum, so one product tree."""
    return harmonic_certificate(n, PrimeTable(limit=table.limit, primes=table.primes))


@settings(max_examples=20, deadline=None)
@given(start=st.integers(1, 2500), gaps=st.lists(st.integers(1, 60), min_size=1, max_size=8))
@example(start=100, gaps=[17, 17, 1, 2, 40])
def test_certificate_jumps_match_cold_certificates(table, start, gaps):
    # a fresh table's running sum steps over each gap, by one division where the
    # gap stays within the primes it has joined
    table = PrimeTable(limit=table.limit, primes=table.primes)
    n = start
    for gap in [0, *gaps]:
        n += gap
        report, cold = harmonic_certificate(n, table), cold_certificate(n, table)
        assert report == cold, n
        for value in (report, cold):  # one printed D for both records
            assert value.margin.decimals[1] is value.exact_sum.decimals[1], n
        assert [value.decimals for value in (report.margin, report.exact_sum)] == [
            value.decimals for value in (cold.margin, cold.exact_sum)
        ], n


@pytest.mark.parametrize("n", [1, 2, 500, 3000])
def test_a_repeated_certificate_builds_no_product_tree(monkeypatch, table, n):
    # the running sum is kept for n itself, so a second call at n neither leaves nor joins a prime
    fresh = PrimeTable(limit=table.limit, primes=table.primes)
    calls = []
    real = sieve_identity._harmonic_split

    def counted(terms, lo, hi):
        calls.append((lo, hi))
        return real(terms, lo, hi)

    monkeypatch.setattr(sieve_identity, "_harmonic_split", counted)
    first = harmonic_certificate(n, fresh)
    assert calls
    calls.clear()
    second = harmonic_certificate(n, fresh)
    assert calls == []
    assert second == first == cold_certificate(n, table)
    assert [value.decimals for value in (second.margin, second.exact_sum)] == [
        value.decimals for value in (first.margin, first.exact_sum)
    ]


@pytest.mark.parametrize(
    "spoil, message",
    [
        # N - 2 (D/R) is then no multiple of R = p_11 ··· p_14
        (lambda n, d: (n, 2 * d), "n=14: the Decimal twin is not a multiple of p_11 ··· p_n"),
        # the jump divides exactly, then leaves 2 N' and 2 D'
        (lambda n, d: (2 * n, 2 * d), "n=14: a Decimal twin differs from its int modulo 2^61 - 1"),
    ],
)
def test_a_spoiled_twin_fails_a_jump_naming_n(table, spoil, message):
    fresh = PrimeTable(limit=table.limit, primes=table.primes)
    harmonic_certificate(10, fresh)
    *pair, twins = fresh._harmonic
    assert pair[3] >= 14  # p_14 = 43 is among the primes joined at n = 10, up to 2 p_10 = 58
    with exact_decimals():
        fresh._harmonic = (*pair, spoil(*twins))
    with pytest.raises(InvariantViolation) as err:
        harmonic_certificate(14, fresh)
    assert str(err.value) == message


def test_probe_running_sum_matches_cold_certificates(monkeypatch, table):
    violations = []
    reports = list(certificate_sweep(3000, table, violations))
    assert violations == []
    # each tail is far below 1/2, so bit lengths decide its ln 2 bound without LN2_LOWER's products
    with monkeypatch.context() as patch:
        patch.setattr(sieve_identity, "LN2_LOWER", None)
        assert [r.violations() for r in reports] == [[]] * 3000
    assert [r.n for r in reports] == list(range(1, 3001))
    for n in [*range(1, 3001, 97), 2999, 3000]:
        # a fresh table has no running sum, so its first certificate is one product tree
        cold = harmonic_certificate(n, sieve(2 * table.nth(n)))
        assert reports[n - 1] == cold, n
        shadow = 0.0
        for m in table.primorial_coprime(n, 2 * table.nth(n)):
            shadow += 1.0 / m
        assert reports[n - 1].float_sum.hex() == shadow.hex(), n


def test_ln2_lower_bound_has_thirty_correct_digits():
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Fraction(Decimal(2).ln())
    assert 0 < ln2 - LN2_LOWER < Fraction(1, 10**30)


def _report_with_tail(tail, exact_floor=1, next_prime=1009):
    margin = Fraction(1, next_prime) + tail  # p_168 = 997, p_169 = 1009
    shadow = float(1 + margin)  # the exact sum rounded, so the float gap is 0
    return CertificateReport(
        n=168, next_prime=next_prime, exact_sum=ratio(1 + margin), exact_floor=exact_floor, margin=ratio(margin),
        float_sum=shadow, float_floor=1, float_margin=shadow - 1.0, float_gap=0.0,
    )


def test_tail_check_is_exact():
    # 1e-13 past ln 2 is below what a float comparison with 1e-12 slack sees
    assert _report_with_tail(LN2_LOWER + Fraction(1, 10**13)).violations() != []
    assert _report_with_tail(LN2_LOWER - Fraction(1, 10**30)).violations() == []


@pytest.mark.parametrize(
    "tail, exact_floor, fired",
    [
        (Fraction(0), 1, []),  # margin exactly 1/p
        (-Fraction(1, 10**40), 1, ["n=168: margin fell below 1/1009"]),
        (-Fraction(1, 1009 * 1010), 1, ["n=168: margin fell below 1/1009"]),  # margin 1/1010: excess -1
        (LN2_LOWER, 1, [f"n=168: harmonic tail {float(LN2_LOWER)} reached ln 2"]),
        (Fraction(0), 2, ["n=168: exact floor is 2, expected 1"]),
    ],
)
def test_certificate_bounds_at_their_boundaries(tail, exact_floor, fired):
    report = _report_with_tail(tail, exact_floor)
    assert report.violations() == certificate_violations(report) == fired


@settings(max_examples=300, deadline=None)
@given(
    # 1/4, 1/2 and 1 put tails on both sides of the bit-length cut below 1/2
    bound=st.sampled_from([Fraction(0), LN2_LOWER, Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    offset=st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    scale=st.integers(0, 60),
    exact_floor=st.integers(0, 2),
    next_prime=st.sampled_from([3, 1009, 17393, 1299721]),
)
def test_integer_bounds_match_the_fraction_bounds(bound, offset, scale, exact_floor, next_prime):
    # margins within 10^-scale of 1/p + bound, on either side
    report = _report_with_tail(bound + offset / 10**scale, exact_floor, next_prime)
    assert report.violations() == certificate_violations(report)


def test_probe_small_values(table):
    violations = []
    reports = list(certificate_sweep(3, table, violations))
    assert [r.n for r in reports] == [1, 2, 3]
    assert abs(reports[0].float_margin - 1 / 3) < 1e-15
    assert [r.n for r in reports if r.float_anomalous] == []
    assert violations == []


def test_probe_rejects_empty_range(table):
    with pytest.raises(ValueError):
        next(certificate_sweep(0, table, []))


def test_scan_range_error_beyond_limit(small_table):
    # 2 p_n above the sieve limit must be refused, not silently truncated
    n_limit = len(small_table.primes)
    with pytest.raises(ValueError):
        next_prime_via_filter(n_limit, small_table)


def test_sweep_windows_are_read_only(table):
    sweep = _filter_sweep(1, 5, table)
    for array in (sweep.death, sweep.next_primes, sweep.survivors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_sweep_starting_above_one_matches_full_sweep(table):
    assert next_prime_sweep(40, 60, table) == next_prime_sweep(1, 60, table)[39:]
    with pytest.raises(ValueError):
        next_prime_sweep(5, 4, table)


def test_next_prime_sweep_crosses_the_widest_gap(table):
    # the widest gap below 2e6 follows p_n = 1357201; sweeping past it needs 2 p_{n+2} < 2.8e6
    gaps = np.diff(table.prime_array)
    n = int(np.argmax(gaps)) + 1
    assert (table.nth(n), int(gaps[n - 1])) == (1357201, 132)
    wider = sieve(2_800_000)
    assert next_prime_sweep(n - 2, n + 2, wider) == wider.primes[n - 2 : n + 3]
    assert next_prime_sweep(n, n, wider) == [table.nth(n + 1)]
    assert next_prime_sweep(1, 500, table) == table.primes[1:501]
    assert next_prime_sweep(400, 400, table) == [table.primes[400]]


def test_sweep_memory_estimate_covers_its_allocations():
    # numpy reports its buffers to tracemalloc, so the traced peak is what the
    # sweep allocates, its Möbius table included, on a fresh table
    table = sieve(200_000)
    n = table.pi(100_000)
    tracemalloc.start()
    try:
        next_prime_sweep(1, n, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sweep_bytes(n, table)


def _corrupt_moebius(monkeypatch, d):
    """Every Möbius table read now has mu(d) = 0."""
    real = PrimeTable.moebius_values

    def corrupted(self, upto):
        mu = real(self, upto).copy()
        mu[d] = 0
        return mu

    monkeypatch.setattr(PrimeTable, "moebius_values", corrupted)


@pytest.fixture
def corrupt_moebius_six(monkeypatch):
    """Every Möbius table read now has mu(6) = 0 instead of 1."""
    _corrupt_moebius(monkeypatch, 6)


def test_sweep_flags_a_corrupted_moebius_value(table, corrupt_moebius_six):
    # d = 6 joins the divisors of P_n at n = 2, and m = 6 is in [1, 2 p_2]
    with pytest.raises(InvariantViolation, match="m=6, n=2"):
        next_prime_sweep(1, 10, table)
    with pytest.raises(InvariantViolation):
        next_prime_via_filter(10, table)
    # the scalar filter: gcd(6, P_2) = 6, so the Möbius sum reads 1 - 1 - 1 + 0
    with pytest.raises(InvariantViolation, match="filter mismatch at m=6, n=2: Möbius sum -1, gcd test 0"):
        coprime_indicator(6, 2, table)


def _sweep_outcome(sweep, lo, hi, table):
    """(windows yielded, message of the InvariantViolation raised or None)."""
    windows = []
    try:
        for n, passed in sweep(lo, hi, table):
            windows.append((n, passed.astype(int).tolist()))
    except InvariantViolation as err:
        return windows, str(err)
    return windows, None


_BASE = sieve(5_000)
# squarefree composites up to 2 p_200 + 6, so every window [1, 2 p_hi] holds one
_SQUAREFREE_COMPOSITES = [
    m for m in range(6, 2 * _BASE.nth(200) + 7) if _BASE.moebius_values(m)[m] and m not in _BASE.primes
]


@st.composite
def _corruptions(draw):
    """(lo, hi, (d, mu(d)) to write, or None, prime to drop, or None, squarefree composite to insert,
    or None); one of the three is set."""
    hi = draw(st.integers(1, 200))
    lo = draw(st.one_of(st.just(1), st.integers(1, hi)))
    kind = draw(st.sampled_from(["write", "drop", "insert"]))
    if kind == "write":
        d = draw(st.integers(1, 2 * _BASE.nth(hi)))
        real = int(_BASE.moebius_values(d)[d])
        return lo, hi, (d, draw(st.sampled_from([v for v in (-2, -1, 0, 1, 2) if v != real]))), None, None
    if kind == "drop":
        return lo, hi, None, _BASE.nth(draw(st.integers(1, hi))), None
    bound = 2 * _BASE.nth(hi) + 6
    return lo, hi, None, None, draw(st.sampled_from([c for c in _SQUAREFREE_COMPOSITES if c <= bound]))


def _raised_at(outcome):
    """A `_sweep_outcome` with its message cut to the (m, n) it names, or None."""
    windows, message = outcome
    return windows, message and tuple(map(int, re.search(r"m=(\d+), n=(\d+)", message).groups()))


@settings(max_examples=60, deadline=None)
@given(case=_corruptions())
@example(case=(1, 10, (6, 0), None, None))  # "m=6, n=2", in that step's tail
@example(case=(1, 10, (7, 0), None, None))  # "m=7, n=4", the re-check of p_4
@example(case=(3, 10, None, 3, None))  # p_2 = 5 lies beyond 2 p_1 = 4
@example(case=(1, 10, None, None, 10))  # "m=10, n=3" in both, the sums -1 and -2
@example(case=(30, 60, None, None, 10))  # "m=10, n=30": -3 when the reference weighed 10 as 2 * 5 and as 10
@example(case=(1, 118, None, None, 35))  # m = 35, at n = 12 here and n = 8 in the reference
def test_sweep_matches_the_whole_window_reference_under_corruption(case):
    lo, hi, write, drop, insert = case
    primes = [p for p in _BASE.primes if p != drop]
    mutant = PrimeTable(limit=_BASE.limit, primes=primes if insert is None else sorted([*primes, insert]))
    if write is not None:
        mu = _BASE.moebius_values(2 * _BASE.nth(hi)).copy()
        mu[write[0]] = write[1]
        mutant.moebius_values = lambda upto: mu
    ours, theirs = _sweep_outcome(sweep_windows, lo, hi, mutant), _sweep_outcome(filter_windows, lo, hi, mutant)
    if insert is None:
        assert ours == theirs
        return
    # Both add each divisor's mu(d) once, the reference from the step whose entry completes d
    # (10 = 2 * 5 at n = 3).  `_filter_sweep` leaves the weight of c, listed as p_k with k <= hi,
    # out of the sum at m = c: for good where its `rest` division leaves 0 at a c up to
    # sqrt(2 p_hi), and before step k where c enters an earlier window, as an early prime does.
    # So n can be later, and at the same step the sums differ by that weight alone.
    (windows, at), (reference_windows, reference_at) = _raised_at(ours), _raised_at(theirs)
    assert windows[: len(reference_windows)] == reference_windows
    assert (at and at[0]) == (reference_at and reference_at[0])  # the same m, or neither raises
    assert at is None or at[1] >= reference_at[1]
    if at is not None and at[1] == reference_at[1]:
        k = mutant.pi(insert)
        withheld = at[0] == insert and k <= hi and (
            insert <= math.isqrt(2 * mutant.nth(hi)) or lo < k and insert <= 2 * mutant.nth(k - 1) and at[1] < k
        )
        moebius = int(re.search(r"Möbius sum (-?\d+)", theirs[1]).group(1))
        moebius -= withheld * int(mutant.moebius_values(insert)[insert])
        assert ours == (reference_windows, re.sub(r"Möbius sum -?\d+", f"Möbius sum {moebius}", theirs[1]))


def _certified(sweep, n_max, table):
    """(violations, message of the InvariantViolation raised or None) of a certificate sweep."""
    violations = []
    try:
        for _ in sweep(n_max, table, violations):
            pass
    except InvariantViolation as err:
        return violations, str(err)
    return violations, None


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(1, 60),
    drop=st.sets(st.sampled_from(_BASE.primes[:40]), max_size=3),
    insert=st.sets(st.integers(4, 300).filter(lambda m: m not in _BASE.primes), max_size=3),
)
@example(n_max=12, drop={41}, insert=set())  # 41 survives from n = 9 on, unsummed
@example(n_max=12, drop=set(), insert={25})  # 25 is summed from n = 6 on, struck by 5
@example(n_max=30, drop={29}, insert={49})  # 29 survives unsummed; 49, struck by 7, leaves no survivor at its step
def test_running_survivor_count_matches_whole_window_counts(n_max, drop, insert):
    # the certificate's gather and count, on tables whose prime list lost and gained
    # numbers, find what a whole-window comparison finds, message for message
    primes = sorted(set(_BASE.primes) - drop | insert)
    tables = [PrimeTable(limit=_BASE.limit, primes=primes) for _ in range(2)]
    assert _certified(certificate_sweep, n_max, tables[0]) == _certified(reference.certificate_sweep, n_max, tables[1])


def test_sweep_counts_are_whole_window_counts(table):
    windows = filter_windows(1, 500, table)
    assert _filter_sweep(1, 500, table).survivors.tolist() == [np.count_nonzero(passed) for _, passed in windows]


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(1, 60),
    drop=st.sets(st.sampled_from(_BASE.primes[:40]), max_size=3),
    insert=st.sets(st.integers(4, 300).filter(lambda m: m not in _BASE.primes), max_size=3),
)
@example(n_max=12, drop={41}, insert=set())
@example(n_max=12, drop=set(), insert={25})
@example(n_max=30, drop={29}, insert={49})
def test_sweep_counts_are_whole_window_counts_on_a_spoiled_list(n_max, drop, insert):
    # the counts hold at every step the whole-window reference reaches before a mismatch
    table = PrimeTable(limit=_BASE.limit, primes=sorted(set(_BASE.primes) - drop | insert))
    windows, _ = _sweep_outcome(filter_windows, 1, n_max, table)
    assert _filter_sweep(1, n_max, table).survivors[: len(windows)].tolist() == [sum(w) for _, w in windows]


def test_sieve_next_exits_one_on_a_corrupted_moebius_value(corrupt_moebius_six, capsys):
    from primeforms.harness import EXIT_INVARIANT, main

    assert main(["sieve-next", "--n-max", "10"]) == EXIT_INVARIANT
    assert "filter mismatch at m=6" in capsys.readouterr().err


def test_sieve_next_exits_one_when_the_recheck_of_p_n_fails(monkeypatch, capsys):
    # 7 enters [1, 2 p_3] = [1, 10] with only d = 1 dividing P_3, so it passes
    # there; the re-check at n = 4 adds mu(7) = 0 and finds 7 struck
    from primeforms.harness import EXIT_INVARIANT, RunConfig, run

    _corrupt_moebius(monkeypatch, 7)
    assert run(RunConfig(command="sieve-next", n_max=10), stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: filter mismatch at m=7, n=4: Möbius sum 1, gcd test 0\n"


@pytest.fixture(scope="module")
def sweep_500(table):
    return next_prime_sweep(1, 500, table)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 500))
def test_single_scan_matches_sweep(table, sweep_500, n):
    assert next_prime_via_filter(n, table) == sweep_500[n - 1]
