"""Harness tests: CLI dispatch, report formats, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeforms import core, gandhi, harness, survival
from primeforms.harness import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    REPORT_COLUMNS,
    RunConfig,
    main,
    run,
)
from primeforms.spectral import cipolla_drift

LIMIT = 2_000_000


def run_to_rows(config):
    """Run a config, parse its CSV output back into dicts of strings."""
    buffer = io.StringIO()
    code = run(config, stream=buffer)
    buffer.seek(0)
    reader = csv.reader(buffer)
    header = next(reader)
    rows = [dict(zip(header, row)) for row in reader]
    return code, header, rows


def test_certify_sweep_all_floors_one():
    config = RunConfig(command="certify", n_max=100, sieve_limit=LIMIT)
    code, header, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert header == REPORT_COLUMNS
    assert len(rows) == 100
    assert all(row["exact_floor"] == "1" for row in rows)
    assert rows[0]["margin"] == "1/3"


def test_gandhi_single_row_extracts_seven():
    config = RunConfig(command="gandhi", n=3, samples=20_000, sieve_limit=LIMIT)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert len(rows) == 1
    assert rows[0]["extracted_prime"] == "7"


def test_spectral_zero_amplitude_floors_drift():
    config = RunConfig(command="spectral", n_max=50, alpha_override=0.0, sieve_limit=LIMIT)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert [row["n"] for row in rows] == [str(n) for n in range(3, 51)]
    for row in rows:
        assert int(row["floored"]) == math.floor(cipolla_drift(int(row["n"])))


def test_survival_emits_both_estimators():
    config = RunConfig(command="survival", n_max=10, sieve_limit=LIMIT)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert {row["source"] for row in rows} == {"survival", "capacity"}
    ns = [int(row["n"]) for row in rows]
    assert ns == sorted(ns)


def test_selberg_row_carries_weights():
    config = RunConfig(command="selberg", x=10, z=3, sieve_limit=LIMIT)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert rows[0]["weights"] == "1:1.0;2:-1.0"
    assert float(rows[0]["minimum"]) == 5.0


def test_brun_row_value():
    config = RunConfig(command="brun", x_upper=10, sieve_limit=LIMIT)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert math.isclose(float(rows[0]["estimate"]), 92 / 105, rel_tol=1e-15)


def test_report_summary_present_without_deviation():
    config = RunConfig(command="report", n_max=10, sieve_limit=LIMIT, alpha_override=0.0)
    code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    assert rows[0]["margin"] == "1/3"  # n = 1 serialized exactly
    summary = rows[-1]
    assert summary["source"] == "summary"
    assert summary["first_float_floor_break"] == ""
    assert summary["anomaly_count"] == "0"


def test_csv_round_trip_preserves_fields(tmp_path):
    out = tmp_path / "report.csv"
    config = RunConfig(command="certify", n_max=20, sieve_limit=LIMIT, out=str(out))
    assert run(config) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as handle:
        parsed = list(csv.reader(handle))
    buffer = io.StringIO()
    run(RunConfig(command="certify", n_max=20, sieve_limit=LIMIT), stream=buffer)
    buffer.seek(0)
    assert list(csv.reader(buffer)) == parsed


def test_csv_rationals_reparse_to_exact_values(table):
    from fractions import Fraction

    from primeforms.sieve_identity import harmonic_certificate

    code, _, rows = run_to_rows(RunConfig(command="certify", n_max=30, sieve_limit=LIMIT))
    assert code == EXIT_OK
    for row in rows:
        report = harmonic_certificate(int(row["n"]), table)
        assert Fraction(row["exact_sum"]) == report.exact_sum
        assert Fraction(row["margin"]) == report.margin


@contextmanager
def int_digit_limit(limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("limit", [0, 4300])
@pytest.mark.parametrize("value", [Fraction(2, 3), Fraction(3**20000, 2**40001)])
def test_fraction_str_leaves_digit_limit_unchanged(limit, value):
    # 0 means unlimited; the 12k-digit denominator exceeds the default 4300
    with int_digit_limit(limit):
        text = harness._fraction_str(value)
        after = sys.get_int_max_str_digits()
    assert after == limit
    with int_digit_limit(0):
        assert text == f"{value.numerator}/{value.denominator}"


@st.composite
def wide_ints(draw):
    """Signed ints from 0 to about 2^20 bits, half of them near a split point 2^(2^k)."""
    if draw(st.booleans()):
        bits = draw(st.integers(0, 20).flatmap(lambda e: st.integers(0, 1 << e)))
        value = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)
    else:
        value = (1 << (1 << draw(st.integers(11, 20)))) + draw(st.integers(-(2**70), 2**70))
    return -value if draw(st.booleans()) else value


@pytest.mark.parametrize("limit", [0, 640, 4300])
@settings(max_examples=25, deadline=None)
@given(value=wide_ints())
@example(value=2**2048 - 1)
@example(value=2**2048)
@example(value=-(2**2048) - 1)
@example(value=2**4096 + 1)
@example(value=-(2 ** (2**19)) + 1)
def test_int_str_matches_str(limit, value):
    with int_digit_limit(limit):
        text = harness._int_str(value)
        assert sys.get_int_max_str_digits() == limit
    with int_digit_limit(0):
        assert text == str(value)


@contextmanager
def csv_field_limit(limit):
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def test_gandhi_rationals_print_as_plain_str(table):
    config = RunConfig(command="gandhi", n_max=7, samples=20_000, sieve_limit=LIMIT)
    with csv_field_limit(sys.maxsize):  # the n = 7 cells run to ~150k digits
        code, _, rows = run_to_rows(config)
    assert code == EXIT_OK
    ev = gandhi.evaluate(7, table)
    with int_digit_limit(0):
        for column in ("probability", "half_excess", "scaled_remainder"):
            value = getattr(ev, column)
            assert rows[6][column] == f"{value.numerator}/{value.denominator}", column


def test_json_round_trip_preserves_fields(tmp_path):
    out = tmp_path / "report.json"
    config = RunConfig(command="gandhi", n_max=4, fmt="json", samples=20_000, out=str(out), sieve_limit=LIMIT)
    assert run(config) == EXIT_OK
    with open(out, encoding="utf-8") as handle:
        parsed = json.load(handle)
    assert [row["extracted_prime"] for row in parsed] == [3, 5, 7, 11]
    assert parsed[0]["probability"] == "2/3"
    buffer = io.StringIO()
    run(RunConfig(command="gandhi", n_max=4, fmt="json", samples=20_000, sieve_limit=LIMIT), stream=buffer)
    assert json.loads(buffer.getvalue()) == parsed


def per_cell_csv(rows, columns):
    """Reference CSV: every cell converted in Python, rationals as n/d, floats by repr."""

    def cell(value):
        if isinstance(value, Fraction):
            return harness._fraction_str(value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row.get(c, "")) for c in columns])
    return buffer.getvalue()


def per_cell_json(rows, columns):
    """Reference JSON: every cell converted on its own, rationals as n/d, blanks as null."""

    def cell(value):
        if isinstance(value, Fraction):
            return harness._fraction_str(value)
        if isinstance(value, str) and value == "":
            return None
        return value

    buffer = io.StringIO()
    json.dump([{c: cell(row.get(c, "")) for c in columns} for row in rows], buffer, indent=1)
    buffer.write("\n")
    return buffer.getvalue()


def written(rows, fmt="csv"):
    buffer = io.StringIO()
    harness.write_rows(rows, fmt, buffer)
    return buffer.getvalue()


def test_write_rows_matches_per_cell_rule_on_mixed_rows():
    wide = Fraction(3**2000 + 1, 2**2100 + 1)  # both terms above 2048 bits
    d = 5**3000  # a shared denominator above 2048 bits
    a = 7**2500 + 1  # coprime to d
    rows = [
        {"source": "x", "n": 5, "margin": Fraction(5), "exact_sum": Fraction(-7, 3), "estimate": 1e16},
        {"source": "a,b", "estimate": -0.0, "residual": 5e-324, "rel_error": 0.1, "floored": -3},
        {"probability": wide, "mc_estimate": 0.25, "weights": "1:1.0;2:-1.0", "x": ""},
        {},
        # numerators over one denominator that differ from the first by D, -D and 3 D
        {"exact_sum": Fraction(a, d), "margin": Fraction(a + d, d), "probability": Fraction(a - d, d),
         "half_excess": Fraction(a + 3 * d, d), "scaled_remainder": Fraction(-a, d)},
        # a shared denominator the numerators do not differ by a multiple of, a small
        # numerator over it, and one Fraction repeated
        {"exact_sum": Fraction(a, d), "margin": Fraction(a + 2, d), "probability": Fraction(2, d),
         "half_excess": wide, "scaled_remainder": wide, "float_gap": 0.5},
    ]
    for limit in (0, 640, 4300):
        with int_digit_limit(limit):
            text = written(rows)
            assert text == per_cell_csv(rows, REPORT_COLUMNS), limit
            assert written(rows, "json") == per_cell_json(rows, REPORT_COLUMNS), limit
    assert "5/1" in text.splitlines()[1].split(",")
    assert text.splitlines()[2].startswith('"a,b",')


# The cell types the commands put in rows, and text that needs csv quoting.
schema_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16]),
    st.floats(allow_nan=True).map(np.float64),
    st.just(""),
    st.lists(st.tuples(st.integers(1, 200), st.floats()), max_size=4).map(
        lambda pairs: ";".join(f"{d}:{w!r}" for d, w in pairs)
    ),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)


# One kind of value per column, as the sweeps write them.
column_kinds = st.sampled_from(
    [
        st.integers(-(2**70), 2**70),
        st.one_of(
            st.floats(),
            st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324]),
            st.floats().map(np.float64),
        ),
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
    ]
)


@st.composite
def blocks(draw):
    """One or two lanes (keys, columns) whose columns all hold the same number of rows."""
    length, lanes = draw(st.integers(1, 3)), []
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(st.lists(st.sampled_from(REPORT_COLUMNS), min_size=1, max_size=5, unique=True))
        values = [draw(column_kinds) for _ in keys]
        lanes.append((tuple(keys), [draw(st.lists(v, min_size=length, max_size=length)) for v in values]))
    return tuple(lanes)


def block_rows(block):
    """A block's rows as dicts: row i of every lane (keys, columns) in turn."""
    rows = []
    for i in range(len(block[0][1][0])):
        rows += (dict(zip(keys, (column[i] for column in columns))) for keys, columns in block)
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.dictionaries(st.sampled_from(REPORT_COLUMNS), schema_values), max_size=4), block=blocks())
@example(
    rows=[{"source": 'a,"b"\r\n', "n": 3, "weights": "1:1.0;2:-1.0"}, {"estimate": np.float64(0.5)}],
    block=(
        (
            ("source", "estimate", "residual", "margin"),
            [["a,b", "", 'q"\n'], [float("nan"), -0.0, np.float64(5e-324)],
             [float("inf"), float("-inf"), 1e16], [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]],
        ),
        (("n", "weights"), [[1, 2, 3], ["1:1.0;2:-1.0", "é", "x"]]),
    ),
)
def test_joined_lines_are_csv_writer_bytes(rows, block):
    # csv.writer writes every float, numpy's included, by float.__repr__
    def cells(row, blank):
        values = [row.get(column, "") for column in REPORT_COLUMNS]
        return [f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else blank if v == "" else v
                for v in values]

    buffer = io.StringIO()
    csv.writer(buffer).writerows([REPORT_COLUMNS, *(cells(row, "") for row in rows)])
    assert written(rows) == buffer.getvalue()
    buffer = io.StringIO()
    json.dump([dict(zip(REPORT_COLUMNS, cells(row, None))) for row in rows], buffer, indent=1)
    assert written(rows, "json") == buffer.getvalue() + "\n"

    # The block after the dict rows, through the layouts compiled for its lanes: a
    # column's "" is text, and only an absent column is blank (null in JSON).
    def present(row, absent):
        values = [row.get(column, absent) for column in REPORT_COLUMNS]
        return [f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v for v in values]

    block_cells = block_rows(block)
    for fmt, blank in (("csv", ""), ("json", None)):
        expected = [*(cells(row, blank) for row in rows), *(present(row, blank) for row in block_cells)]
        buffer = io.StringIO()
        if fmt == "csv":
            csv.writer(buffer).writerows([REPORT_COLUMNS, *expected])
        else:
            json.dump([dict(zip(REPORT_COLUMNS, values)) for values in expected], buffer, indent=1)
            buffer.write("\n")
        assert written([*rows, block], fmt) == buffer.getvalue(), fmt


@pytest.mark.parametrize("command, n_max", [("survival", 20_000), ("certify", 50)])
def test_write_rows_matches_per_cell_rule_on_reports(command, n_max):
    config = RunConfig(command=command, n_max=n_max, sieve_limit=LIMIT)
    items, _ = harness._EXECUTORS[command](config, harness._table(LIMIT))
    items = list(items)  # certify yields its rows; survival returns one block of two lanes
    rows = [row for item in items for row in ([item] if isinstance(item, dict) else block_rows(item))]
    assert written(items) == per_cell_csv(rows, REPORT_COLUMNS)


def forking_block(rows, lanes):
    """A block of `rows` rows in `lanes` lanes: floats, ints and a text column that needs quoting."""
    estimates = array("d", (math.sqrt(2) * k - 1e5 for k in range(rows)))
    estimates[:3] = array("d", [float("nan"), float("inf"), -0.0])
    first = (("source", "n", "estimate", "weights"),
             (["a,b"] * rows, range(3, rows + 3), estimates, [f'{k}:"{k / 7!r}"' for k in range(rows)]))
    second = (("source", "n", "residual", "floored"),
              (["capacity"] * rows, range(3, rows + 3), [k / 3 for k in range(rows)], [-k for k in range(rows)]))
    return (first, second)[:lanes]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2048, 2049, 3073])
@pytest.mark.parametrize("lanes", [1, 2])
def test_forked_chunks_match_the_per_cell_rule(monkeypatch, rows, lanes):
    block = forking_block(rows, lanes)
    parent, formatted = os.getpid(), []
    real = harness._chunk_text

    def counted(*args):
        if os.getpid() == parent:
            formatted.append(args[-2:])
        return real(*args)

    monkeypatch.setattr(harness, "_chunk_text", counted)
    expected = block_rows(block)
    assert written([block]) == per_cell_csv(expected, REPORT_COLUMNS)
    assert_no_child_left()
    # this process formats only the even-numbered chunks; the worker sends the others
    step = 1024 // lanes
    assert formatted == [(lo, min(lo + step, rows)) for lo in range(0, rows, 2 * step)]
    assert written([block], "json") == per_cell_json(expected, REPORT_COLUMNS)
    assert_no_child_left()
    assert '"a,b",' in written([block])


def test_forking_beside_a_thread_warns_nothing():
    # from Python 3.12 on, os.fork in a process with threads warns (numpy's pool is one)
    block, stop = forking_block(2049, 1), threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = written([block])
    finally:
        stop.set()
        thread.join()
    assert [str(w.message) for w in caught] == []
    assert text == per_cell_csv(block_rows(block), REPORT_COLUMNS)
    assert_no_child_left()


def _worker_fails(monkeypatch):
    parent, real = os.getpid(), harness._chunk_text

    def spoiled(*args):
        if os.getpid() != parent:
            raise RuntimeError("the worker ends before sending a chunk")
        return real(*args)

    monkeypatch.setattr(harness, "_chunk_text", spoiled)


def _fork_refused(monkeypatch):
    def refused():
        raise OSError("no processes left")

    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize(
    "spoil", [_worker_fails, _fork_refused, lambda monkeypatch: monkeypatch.delattr(os, "fork")]
)
def test_chunks_the_worker_does_not_deliver_are_formatted_here(monkeypatch, spoil):
    block = forking_block(3073, 2)
    expected = written([block]), written([block], "json")
    spoil(monkeypatch)
    assert (written([block]), written([block], "json")) == expected
    assert_no_child_left()


class FailingStream(io.StringIO):
    """A stream whose `writes`-th write and every later one raise `error`."""

    def __init__(self, writes, error):
        super().__init__()
        self.writes, self.error = writes, error

    def write(self, text):
        self.writes -= 1
        if self.writes < 0:
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
@pytest.mark.parametrize("writes", [1, 2, 3])
def test_a_failed_write_reaps_the_worker(writes, error):
    # the header, then chunk 0 (formatted here), then chunk 1 (sent by the worker)
    with pytest.raises(error):
        harness.write_rows([forking_block(3073, 1)], "csv", FailingStream(writes, error))
    assert_no_child_left()


def test_survival_rows_interleave_by_n():
    code, _, rows = run_to_rows(RunConfig(command="survival", n_max=2_000, sieve_limit=LIMIT))
    assert code == EXIT_OK
    assert len(rows) == 2 * (2_000 - 2)
    for k in range(len(rows) // 2):
        grown, capped = rows[2 * k], rows[2 * k + 1]
        assert (grown["source"], capped["source"]) == ("survival", "capacity")
        assert grown["n"] == capped["n"] == str(k + 3)


def test_identical_config_yields_byte_identical_reports():
    config = RunConfig(command="report", n_max=30, sieve_limit=LIMIT, seed=42)
    first, second = io.StringIO(), io.StringIO()
    assert run(config, stream=first) == EXIT_OK
    assert run(config, stream=second) == EXIT_OK
    assert first.getvalue() == second.getvalue()


def test_gandhi_resource_limit_exit_code(capsys):
    config = RunConfig(command="gandhi", n=9, sieve_limit=LIMIT)
    assert run(config, stream=io.StringIO()) == EXIT_RESOURCE
    assert "--allow-large-gandhi" in capsys.readouterr().err  # the flag a CLI user can pass


def test_usage_error_exit_codes():
    config = RunConfig(command="certify", n_max=100_000, sieve_limit=1_000)
    assert run(config, stream=io.StringIO()) == EXIT_USAGE
    config = RunConfig(command="certify", sieve_limit=LIMIT)  # missing n_max
    assert run(config, stream=io.StringIO()) == EXIT_USAGE
    with pytest.raises(harness.UsageError):
        RunConfig(command="nonsense")
    with pytest.raises(harness.UsageError):
        RunConfig(command="certify", n_max=-3)


def test_sieve_limit_message_names_required_limit(capsys):
    config = RunConfig(command="certify", n_max=50, sieve_limit=100)
    assert run(config, stream=io.StringIO()) == EXIT_USAGE
    message = capsys.readouterr().err
    assert "--sieve-limit" in message


@pytest.mark.parametrize("command", ["certify", "report"])
def test_invariant_violation_exit_code(monkeypatch, command):
    # exact modules cannot be made to fail honestly, so corrupt one report
    from primeforms import sieve_identity

    real = sieve_identity.harmonic_certificate

    def corrupted(n, table):
        report = real(n, table)
        report.exact_floor = 2
        return report

    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", corrupted)
    config = RunConfig(command=command, n_max=3, sieve_limit=LIMIT, alpha_override=0.0)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT


@pytest.mark.parametrize(
    "fmt, spoil, message",
    [
        # N - D/p_7 is then no multiple of p_7 = 17
        ("csv", lambda n, d: (n + 1, d), "n=7: the Decimal twin is not a multiple of p_n = 17"),
        # the step divides exactly but leaves D/17 + 17 and N' - 1
        ("json", lambda n, d: (n, d + 17 * 17), "n=7: a Decimal twin differs from its int modulo 2^61 - 1"),
    ],
)
def test_spoiled_twin_step_leaves_the_rows_before_it(monkeypatch, capsys, tmp_path, fmt, spoil, message):
    # the memo's Decimal pair is spoiled after the certificate for n = 6
    from primeforms import sieve_identity

    real = sieve_identity.harmonic_certificate

    def spoiled(n, table):
        report = real(n, table)
        if n == 6:
            *pair, twins = table._harmonic
            table._harmonic = (*pair, spoil(*twins))
        return report

    monkeypatch.setitem(harness._TABLES, 1_000, core.sieve(1_000))  # its memo is left spoiled
    config = RunConfig(command="certify", n_max=10, fmt=fmt, sieve_limit=1_000)
    complete = io.StringIO()
    assert run(config, stream=complete) == EXIT_OK
    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", spoiled)
    partial = io.StringIO()
    assert run(config, stream=partial) == EXIT_INVARIANT
    out = tmp_path / "report"
    config.out = str(out)
    assert run(config) == EXIT_INVARIANT
    assert out.read_bytes().decode() == partial.getvalue()
    assert capsys.readouterr().err == 2 * f"invariant violation: {message}\n"
    if fmt == "csv":
        assert partial.getvalue() == "".join(complete.getvalue().splitlines(keepends=True)[:7])
    else:
        assert json.loads(partial.getvalue()) == json.loads(complete.getvalue())[:6]


def mutant_table(table, drop=(), insert=()):
    """A fresh table over the same sieve whose prime list lost `drop` and gained `insert`."""
    primes = sorted({*table.primes} - {*drop} | {*insert})
    return core.PrimeTable(limit=table.limit, primes=primes)


@pytest.mark.parametrize(
    "mutation, first",
    [
        # 41 lies in (p_9, 2 p_9] = (23, 46]: the certificate no longer sums it
        ({"drop": [41]}, "n=9: the filter and the certificate disagree on the survivors [41]"),
        # 25 = 5^2 lies in (p_6, 2 p_6] = (13, 26]; being no squarefree divisor of
        # any primorial, it leaves both filter routes in agreement
        ({"insert": [25]}, "n=6: the filter and the certificate disagree on the survivors [25]"),
    ],
)
def test_certificates_are_checked_against_the_filter(monkeypatch, capsys, small_table, mutation, first):
    monkeypatch.setitem(harness._TABLES, small_table.limit, mutant_table(small_table, **mutation))
    config = RunConfig(command="certify", n_max=12, sieve_limit=small_table.limit)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith(f"invariant violation: {first}\n")


def test_certificates_are_checked_by_gather_not_only_by_count(monkeypatch, capsys):
    # at n = 9 the window [1, 46] loses the summed prime 41 and gains 25: the
    # count of survivors is still right, the survivors are not
    from primeforms import sieve_identity

    real = sieve_identity._filter_windows

    def swapped(lo, hi, table):
        for n, passed in real(lo, hi, table):
            if n == 9:
                passed = passed.copy()
                passed[41 - 1], passed[25 - 1] = False, True
            yield n, passed

    monkeypatch.setattr(sieve_identity, "_filter_windows", swapped)
    config = RunConfig(command="certify", n_max=12, sieve_limit=LIMIT)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: n=9: the filter and the certificate disagree on the survivors [25, 41]\n"
    )


def test_certify_flags_a_margin_below_the_next_prime_term(monkeypatch, capsys):
    # n = 5 reports a margin 10^-40 short of 1/p_6 = 1/13; every row is still written
    from primeforms import sieve_identity

    real = sieve_identity.harmonic_certificate

    def short(n, table):
        report = real(n, table)
        if n == 5:
            report.margin = Fraction(1, report.next_prime) - Fraction(1, 10**40)
        return report

    config = RunConfig(command="certify", n_max=10, sieve_limit=LIMIT)
    complete = io.StringIO()
    assert run(config, stream=complete) == EXIT_OK
    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", short)
    buffer = io.StringIO()
    assert run(config, stream=buffer) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: n=5: margin fell below 1/13\n"
    lines, expected = buffer.getvalue().splitlines(), complete.getvalue().splitlines()
    assert len(lines) == len(expected) == 11
    assert [line for i, line in enumerate(lines) if i != 5] == [line for i, line in enumerate(expected) if i != 5]
    assert lines[5].startswith("sieve_identity,5,11,13,")


def test_sieve_next_flags_a_next_prime_off_the_oracle(monkeypatch, capsys):
    # the sweep reports 12 for n = 4; the report is still written in full
    from primeforms import sieve_identity

    real = sieve_identity.next_prime_sweep

    def off_at_four(lo, hi, table):
        return [12 if n == 4 else p for n, p in zip(range(lo, hi + 1), real(lo, hi, table))]

    monkeypatch.setattr(sieve_identity, "next_prime_sweep", off_at_four)
    buffer = io.StringIO()
    assert run(RunConfig(command="sieve-next", n_max=6, sieve_limit=LIMIT), stream=buffer) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: n=4: filter found 12, oracle has 11\n"
    assert buffer.getvalue().splitlines()[4].startswith("sieve_identity,4,7,12,")
    assert len(buffer.getvalue().splitlines()) == 7


def test_gandhi_routes_disagreeing_exit_code(monkeypatch, capsys):
    # one inclusion-exclusion term off by one; Golomb's bit string must catch it
    from primeforms import gandhi

    real = gandhi._spaced_ones

    def off_by_one(stride, count):
        term = real(stride, count)
        return term + 1 if stride == 2 else term

    monkeypatch.setattr(gandhi, "_spaced_ones", off_by_one)
    config = RunConfig(command="gandhi", n=3, sieve_limit=LIMIT)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: n=3:") and "Golomb" in err


def test_gandhi_flags_an_extraction_one_past_the_prime(monkeypatch, capsys):
    # m + 1 doubles 2^m * half excess out of (1, 2) and its remainder out of
    # (0, 1/2), and the oracle's p_4 = 7 no longer matches
    real = gandhi.extract_prime
    monkeypatch.setattr(gandhi, "extract_prime", lambda probability: real(probability) + 1)
    config = RunConfig(command="gandhi", n=3, samples=10_000, sieve_limit=1_000)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err.splitlines() == [
        "invariant violation: n=3: scaled remainder 1244168833/1073741823 outside (0, 1/2)",
        "invariant violation: n=3: 2^m * half excess lies outside (1, 2)",
        "invariant violation: n=3: extracted 8, oracle has 7",
    ]


def test_selberg_flags_a_quadratic_form_mismatch(monkeypatch, capsys):
    # the Gram minimum is re-checked against the form summed over every m <= x
    real = survival.quadratic_form_value
    monkeypatch.setattr(survival, "quadratic_form_value", lambda *args: real(*args) + 1.0)
    config = RunConfig(command="selberg", x=100, z=10, sieve_limit=1_000)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith("invariant violation: quadratic form mismatch for x=100, z=10:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gandhi", "--n", "3", "--samples", "100"], "--samples"),
        (["selberg", "--x", "10", "--z", "100"], "--z"),
    ],
)
def test_main_rejects_out_of_range_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fix",
    [
        (["survival", "--n-max", "200000"], "--sieve-limit"),
        (["spectral", "--n-max", "5", "--calib-hi", "200000"], "--sieve-limit"),
        (["selberg", "--x", "1000", "--z", "200"], "--z 105"),
        (["spectral", "--n-max", "5", "--alpha", "nan"], "--alpha"),
        (["spectral", "--n-max", "5", "--alpha", "inf"], "--alpha"),
        (["gandhi", "--n", "1", "--sieve-limit", "2"], "--sieve-limit"),
        (["gandhi", "--n-max", "7", "--sieve-limit", "17", "--samples", "10000"], "--sieve-limit"),
        (["brun", "--X", "10", "--out", ""], "--out"),
        (["spectral", "--n-max", "20", "--alpha", "1e308"], "--alpha"),
    ],
)
def test_cli_out_of_range_exits_two_naming_the_fix(argv, fix):
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_USAGE
    *usage, line = proc.stderr.splitlines()
    assert "error: " in line and fix in line
    if usage:  # argparse prints its usage block before its error line
        assert usage[0].startswith("usage: primeforms ") and "error:" not in "".join(usage)
    else:  # a refusal of the harness is that one line, with no warning before it
        assert proc.stderr == line + "\n" and line.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv", [["sieve-next", "--n", "5", "--n-max", "3"], ["gandhi", "--n", "3", "--n-max", "2"]]
)
def test_main_refuses_n_with_n_max(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    message = capsys.readouterr().err
    assert "--n " in message and "--n-max" in message


# Each command's required flags and the RunConfig fields they set.
REQUIRED_FLAGS = {
    "sieve-next": ([], {}),
    "certify": (["--n-max", "5"], {"n_max": 5}),
    "gandhi": ([], {}),
    "spectral": (["--n-max", "5"], {"n_max": 5}),
    "survival": (["--n-max", "5"], {"n_max": 5}),
    "selberg": (["--x", "10", "--z", "3"], {"x": 10, "z": 3}),
    "brun": (["--X", "10"], {"x_upper": 10}),
    "report": (["--n-max", "5"], {"n_max": 5}),
}


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_parsed_command_keeps_run_config_defaults(command):
    argv, fields = REQUIRED_FLAGS[command]
    args = vars(harness.build_parser().parse_args([command, *argv]))
    assert args == {"command": command, **fields}
    assert RunConfig(**args) == RunConfig(command=command, **fields)


# Every flag of every command except --allow-large-gandhi, with values that
# stay small: no sieve above 5000, no ordinal above 60, so Gandhi's n <= 7
# cap refuses the rest before any large allocation.
FUZZ_FLAGS = {
    "--n": st.integers(-1, 60),
    "--n-max": st.integers(-1, 60),
    "--x": st.integers(-1, 300),
    "--z": st.integers(-1, 120),
    "--X": st.integers(-1, 6_000),
    "--seed": st.integers(-1, 2**64),
    "--alpha": st.floats(),
    "--calib-lo": st.integers(-1, 700),
    "--calib-hi": st.integers(-1, 700),
    "--format": st.sampled_from(["csv", "json"]),
    "--out": st.sampled_from(["report.out", ""]),  # a file, then the directory itself
}
# Each command's (required, optional) flags; --seed, --format and --out are common.
COMMAND_FLAGS = {
    "sieve-next": ([], ["--n", "--n-max"]),
    "certify": (["--n-max"], []),
    "gandhi": ([], ["--n", "--n-max"]),
    "spectral": (["--n-max"], ["--alpha", "--calib-lo", "--calib-hi"]),
    "survival": (["--n-max"], []),
    "selberg": (["--x", "--z"], []),
    "brun": (["--X"], []),
    "report": (["--n-max"], []),
}


@st.composite
def fuzz_argv(draw):
    """A command's required flags and some optional ones, with values mostly in range.

    One vector in ten also carries any flag at all, and one value in twenty
    is blank or not a number, so argparse's own refusals are reached too.
    """
    command = draw(st.sampled_from(harness.COMMANDS))
    required, optional = COMMAND_FLAGS[command]
    options = optional + ["--seed", "--format", "--out"]
    flags = required + draw(st.lists(st.sampled_from(options), max_size=len(options), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_FLAGS))))
    argv = [command]
    for flag in flags:
        garbled = draw(st.integers(0, 19)) == 0
        argv += [flag, draw(st.sampled_from(["", "x"]) if garbled else FUZZ_FLAGS[flag].map(str))]
    argv += ["--sieve-limit", str(draw(st.integers(-1, 5_000)))]
    argv += ["--samples", str(draw(st.integers(10_000, 20_000)))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=fuzz_argv())
def test_cli_fuzz_exits_zero_two_or_three(argv):
    with tempfile.TemporaryDirectory() as scratch:
        argv = [os.path.join(scratch, a) if flag == "--out" else a for flag, a in zip(["", *argv], argv)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse and RunConfig usage errors
                code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE), argv


def test_cli_refuses_a_sieve_limit_past_memory(capped_address_space):
    # 2^31 needs about 7.6 GiB of sieve tables, past the 1 GiB cap; a table
    # allocated before the memory estimate would end in MemoryError instead
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", "brun", "--X", "10", "--sieve-limit", "2147483648"],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=capped_address_space,
    )
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr.startswith("resource limit:")
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, fix",
    [
        # 4e9 draws take 30 GiB of uniforms: refused before numpy allocates them
        (["gandhi", "--n", "1", "--samples", "4000000000"], "; pass --samples "),
        # the brute-force re-check loops over every m <= x in Python
        (["selberg", "--x", str(survival.SELBERG_MAX_X + 1), "--z", "3"], f"use --x {survival.SELBERG_MAX_X} or"),
        # 1 GiB / 24 bytes a draw: the count fits the cap only if nothing else were mapped
        (["gandhi", "--n", "1", "--samples", "44739242"], "; pass --samples "),
    ],
)
def test_cli_refuses_past_a_resource_bound(capped_address_space, argv, fix):
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=capped_address_space,
    )
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr.startswith("resource limit:") and fix in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def _capped_gandhi(preexec_fn, samples, patch=""):
    """`gandhi --n 1 --samples <samples>` under the cap, after the Python statements `patch`."""
    argv = ["gandhi", "--n", "1", "--samples", str(samples)]
    code = f"import sys\nfrom primeforms import gandhi, harness\n{patch}\nsys.exit(harness.main({argv!r}))"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn
    )


def test_cli_samples_refusal_names_a_count_that_runs(capped_address_space):
    refused = _capped_gandhi(capped_address_space, 4_000_000_000)
    assert refused.returncode == EXIT_RESOURCE
    named = int(re.search(r"; pass --samples (\d+) or fewer", refused.stderr).group(1))
    proc = _capped_gandhi(capped_address_space, named)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.count("\n") == 2 and proc.stderr == ""


def test_cli_samples_out_of_memory_exits_three(capped_address_space):
    # past a budget that lets every count through, 1.6 GB of uniforms fail to allocate
    proc = _capped_gandhi(capped_address_space, 200_000_000, "gandhi._memory_budget = lambda: 1 << 40")
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr.startswith("resource limit:") and "pass a smaller --samples" in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_sieve_next_report_bytes_are_unchanged():
    # the digest the benchmark recorded for this command
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", "sieve-next", "--n-max", "500"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "b82d787f0cb3c0c61a223db7955791cffb1649798a65aea9531c4b8a38462122"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("survival", "--n-max", "20000"), "6858b569d9e80dd80b579a66a8b1328678fe72a0202ac287f78d929241cabc8c"),
        (("spectral", "--n-max", "2000"), "e96fa9e86377b8816808284fa3891ae6fd83d114083c1b57e76957040e6eb595"),
    ],
)
def test_estimator_json_report_bytes_are_unchanged(argv, digest):
    # no benchmark workload writes JSON; these digests were recorded from the per-n estimators
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", *argv, "--format", "json"], capture_output=True, timeout=120
    )
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_main_rejects_unknown_command():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == EXIT_USAGE


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", "sieve-next", "--n", "25", "--sieve-limit", "1000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert "101" in proc.stdout


def test_cli_closed_pipe_exits_zero_without_traceback():
    # ~0.5 MB of rows: far more than the pipe holds once the reader is gone
    with subprocess.Popen(
        [sys.executable, "-m", "primeforms", "spectral", "--n-max", "5000", "--alpha", "0",
         "--sieve-limit", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"source,n,")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_OK
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_a_chunk_failing_here_leaves_the_chunks_before_it(monkeypatch):
    block, real = forking_block(3073, 1), harness._chunk_text

    def failing(*args):
        if args[-2] == 2048:  # chunk 2, formatted by this process
            raise RuntimeError("chunk 2 fails")
        return real(*args)

    monkeypatch.setattr(harness, "_chunk_text", failing)
    buffer = io.StringIO()
    with pytest.raises(RuntimeError):
        harness.write_rows([block], "json", buffer)
    assert_no_child_left()
    assert buffer.getvalue() == per_cell_json(block_rows(block)[:2048], REPORT_COLUMNS)


def test_cli_closed_pipe_on_a_forking_block_leaves_no_process():
    # the survival block is 196 chunks, written from this process and a forked worker
    with subprocess.Popen(
        [sys.executable, "-m", "primeforms", "survival", "--n-max", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        assert proc.stdout.readline().startswith(b"source,n,")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_OK
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the session's process group is empty


def test_residuals_script_refuses_n_min_below_three():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "estimator_residuals.py")
    proc = subprocess.run(
        [sys.executable, script, "--n-min", "2", "--sieve-limit", "20000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert "--n-min" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_precision_study_shape(table):
    violations = []
    *rows, summary = harness._precision_rows(5, table, 0.0, violations)
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["margin"].numerator == 1 and rows[0]["margin"].denominator == 3
    assert rows[0]["survival_sign"] == ""  # estimator undefined below n = 3
    assert rows[4]["survival_sign"] in (-1, 0, 1)
    assert summary["source"] == "summary"
    assert summary["first_float_floor_break"] == ""
    assert summary["float_gap"] >= 0.0
    assert violations == []
