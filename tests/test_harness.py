"""Harness tests: CLI dispatch, report formats, round-trips, exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeforms import core, gandhi, harness, spectral, survival
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
from primeforms.sieve_identity import CertificateReport, certificate_sweep

from reference import cipolla_drift, fraction, moebius_values, ratio

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


def test_records_are_rows():
    # a certify row is its certificate's fields, and every field of a record is a report column
    code, _, rows = run_to_rows(RunConfig(command="certify", n_max=3, sieve_limit=LIMIT))
    assert code == EXIT_OK and len(rows) == 3
    fields = {field.name for field in dataclasses.fields(CertificateReport)}
    for row in rows:
        assert {column for column, cell in row.items() if cell} == fields | {"source", "p_n"}
    assert {field.name for field in dataclasses.fields(gandhi.GandhiEvaluation)} <= set(REPORT_COLUMNS)
    assert set(core.EstimatorColumns._fields) <= set(REPORT_COLUMNS)


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


@pytest.mark.parametrize(
    "command, options",
    [
        ("sieve-next", {"n_max": 50}),
        ("certify", {"n_max": 20}),
        ("gandhi", {"n_max": 4, "samples": 20_000}),
        ("spectral", {"n_max": 50}),
        ("survival", {"n_max": 10}),
        ("selberg", {"x": 10, "z": 3}),
        ("brun", {"x_upper": 10}),
        ("report", {"n_max": 10}),
    ],
)
def test_commands_leave_the_list_view_unbuilt(monkeypatch, command, options):
    # every command reads the table's int64 array; the list view would add 40 bytes a prime
    table = core.sieve(20_000)
    monkeypatch.setitem(harness._TABLES, table.limit, table)
    assert run(RunConfig(command=command, sieve_limit=table.limit, **options), stream=io.StringIO()) == EXIT_OK
    assert "primes" not in vars(table)


def test_certificates_read_the_table_in_place(monkeypatch):
    # the float shadows divide into the int64 view of the primes, so no float copy is kept
    table = core.sieve(20_000)
    monkeypatch.setitem(harness._TABLES, table.limit, table)
    for command in ("certify", "report"):
        assert run(RunConfig(command=command, n_max=100, sieve_limit=table.limit), stream=io.StringIO()) == EXIT_OK
    arrays = {name: value.dtype for name, value in vars(table).items() if isinstance(value, np.ndarray)}
    assert np.float64 not in arrays.values(), arrays
    assert not table.prime_view.flags.writeable and np.shares_memory(table.prime_view, memoryview(table.prime_array))
    # the Möbius table's large primes are a slice of the view, at the smallest tables too
    for limit, expected in ((2, [0, 1, -1]), (3, [0, 1, -1, -1]), (4, [0, 1, -1, -1, 0])):
        tiny = core.sieve(limit)
        assert tiny.moebius_values(limit).tolist() == expected == moebius_values(tiny, limit).tolist()


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
        assert Fraction(row["exact_sum"]) == fraction(report.exact_sum)
        assert Fraction(row["margin"]) == fraction(report.margin)


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
    cell = ratio(value)
    with int_digit_limit(limit):
        text = harness._fraction_str(cell)
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
    # the divide-and-conquer conversion that Gandhi's N and a cold certificate go through
    with int_digit_limit(limit), core.exact_decimals():
        digits = str(core.to_decimal(abs(value)))
        assert sys.get_int_max_str_digits() == limit
    with int_digit_limit(0):
        assert ("-" if value < 0 else "") + digits == str(value)


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
        if isinstance(value, core.Ratio):
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
        if isinstance(value, core.Ratio):
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
    wide = ratio(3**2000 + 1, 2**2100 + 1)  # both terms above 2048 bits
    d = 5**3000  # a shared denominator above 2048 bits
    a = 7**2500 + 1  # coprime to d
    rows = [
        {"source": "x", "n": 5, "margin": ratio(5), "exact_sum": ratio(-7, 3), "estimate": 1e16},
        {"source": "a,b", "estimate": -0.0, "residual": 5e-324, "rel_error": 0.1, "floored": -3},
        {"probability": wide, "mc_estimate": 0.25, "weights": "1:1.0;2:-1.0", "x": ""},
        {},
        # numerators over one denominator that differ from the first by D, -D and 3 D
        {"exact_sum": ratio(a, d), "margin": ratio(a + d, d),
         "probability": ratio(a - d, d), "half_excess": ratio(a + 3 * d, d),
         "scaled_remainder": ratio(-a, d)},
        # a shared denominator the numerators do not differ by a multiple of, a small
        # numerator over it, and one rational repeated
        {"exact_sum": ratio(a, d), "margin": ratio(a + 2, d),
         "probability": ratio(2, d),
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
    st.builds(ratio, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)


# Where orjson's float text and float.__repr__'s part: repr's exponent forms begin
# below 1e-4 and at 1e16, Ryū's below 1e-5 and at 1e16; then the extremes and nan.
FLOAT_BOUNDARIES = [
    9.999999999999999e-05, 1e-05, 1e-4, 9999999999999998.0, 1e16, 5e-324, -0.0, 1.7976931348623157e308, float("nan"),
]

# One kind of value per column, as the sweeps write them.
column_kinds = st.sampled_from(
    [
        st.integers(-(2**70), 2**70),
        st.one_of(
            st.floats(),
            st.sampled_from([float("inf"), float("-inf"), *FLOAT_BOUNDARIES, *(-x for x in FLOAT_BOUNDARIES)]),
            st.floats().map(np.float64),
        ),
        st.builds(ratio, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
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
             [float("inf"), float("-inf"), 1e16],
             [ratio(1, 3), ratio(-2), ratio(5, 7)]],
        ),
        (("n", "weights"), [[1, 2, 3], ["1:1.0;2:-1.0", "é", "x"]]),
    ),
)
@example(
    rows=[{"source": "100% of %s", "weights": "5%,%d", "estimate": float("nan"), "minimum": float("-inf"),
           "residual": float("inf"), "margin": ratio(-1, 3)}],
    block=((("n",), [[1]]),),
)
def test_joined_lines_are_csv_writer_bytes(rows, block):
    # csv.writer writes every float, numpy's included, by float.__repr__; each dict row
    # is written twice, so its second pass fills the layout its first one compiled
    rows = [*rows, *rows]

    def cells(row, blank):
        values = [row.get(column, "") for column in REPORT_COLUMNS]
        return [f"{v.numerator}/{v.denominator}" if isinstance(v, core.Ratio) else blank if v == "" else v
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
        return [f"{v.numerator}/{v.denominator}" if isinstance(v, core.Ratio) else v for v in values]

    block_cells = block_rows(block)
    for fmt, blank in (("csv", ""), ("json", None)):
        expected = [*(cells(row, blank) for row in rows), *(present(row, blank) for row in block_cells)]
        buffer = io.StringIO()
        if fmt == "csv":
            csv.writer(buffer).writerows([REPORT_COLUMNS, *expected])
        else:
            json.dump([dict(zip(REPORT_COLUMNS, values)) for values in expected], buffer, indent=1)
            buffer.write("\n")
        assert written([*rows, harness._lanes_block(block)], fmt) == buffer.getvalue(), fmt


any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(any_float, any_float.map(np.float64)), min_size=2))
@example(values=[2.5e-07, 1.0])  # only its exponent marks it: it has a fraction and is small
@example(values=[9.999999999999999e-05, 1.0])
@example(values=[-1e-05, 1.0])
@example(values=[1e-4, -1e-4])  # plain in both: orjson's text is kept
@example(values=[9999999999999998.0, -9999999999999998.0])
@example(values=[1e16, 2.5])
@example(values=[5e-324, 2.5])
@example(values=[-0.0, 0.0])
@example(values=[1.7976931348623157e308, -1.7976931348623157e308])
@example(values=[float("nan"), np.float64("nan"), float("inf"), float("-inf")])
@example(values=[*map(np.float64, FLOAT_BOUNDARIES)])
def test_float_cells_are_repr_cell_for_cell(values):
    # csv.writer and json.dump print each float, numpy's included, through float.__repr__
    assert harness._float_cells(values) == [*map(float.__repr__, values)]
    assert harness._float_cells(array("d", values)) == [*map(float.__repr__, values)]
    assert [*harness._converter(float, "json")(values)] == [*map(json.dumps, values)]


@pytest.mark.parametrize(
    "fmt, alpha",
    [pytest.param(fmt, alpha, id=fmt + suffix) for suffix, alpha in (("", 1e300), ("-alpha=-1e300", -1e300))
     for fmt in ("csv", "json")],
)
def test_estimates_past_orjsons_positional_range_print_by_repr(fmt, alpha):
    # at --alpha ±1e300 every estimate from n = 9 on is past 1e290 (below, the cosine sum
    # is empty): orjson writes it in its own exponent form, so each such cell is repr's,
    # and every piece holds floors on both sides of int64, which int.__repr__ prints
    config = RunConfig(command="spectral", n_max=300, alpha_override=alpha, sieve_limit=LIMIT, fmt=fmt)
    buffer = io.StringIO()
    assert run(config, stream=buffer) == EXIT_OK
    columns = spectral.spectral_sweep(3, 300, alpha, harness._table(LIMIT))
    rows = block_rows((harness._estimator_lane("spectral", columns),))
    assert all(abs(row["estimate"]) > 1e290 for row in rows[6:])
    assert min(row["floored"] for row in rows) < -(2**63) and max(row["floored"] for row in rows) >= 2**64
    expected = per_cell_csv if fmt == "csv" else per_cell_json
    assert buffer.getvalue() == expected(rows, REPORT_COLUMNS)


ORJSON_LOADED = """
import io, sys
from primeforms import harness
config = harness.RunConfig(**vars(harness.build_parser().parse_args(sys.argv[1:])))
assert harness.run(config, stream=io.StringIO()) == 0
print("orjson" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("report", "--n-max", "50"), False),
        (("certify", "--n-max", "20"), False),
        (("gandhi", "--n-max", "3", "--samples", "20000"), False),
        (("sieve-next", "--n-max", "50"), False),
        (("survival", "--n-max", "100"), True),
        (("spectral", "--n-max", "100"), True),
    ],
)
def test_only_float_columns_load_orjson(argv, loaded):
    # a dict row's float or int is a column of one, which repr prints; sieve-next's
    # lane has ints alone, which int.__repr__ prints
    proc = subprocess.run([sys.executable, "-c", ORJSON_LOADED, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "value", [Fraction(1, 3), (1, 3), True, np.int64(3)], ids=["Fraction", "pair", "bool", "int64"]
)
def test_write_rows_refuses_a_cell_kind_no_command_writes(fmt, value):
    # a plain Fraction or pair has no Decimals to print, and a bool or numpy int prints unlike an int
    kind = f"{type(value).__module__}.{type(value).__qualname__}"
    for rows in ([{"margin": value}], [harness._lanes_block(((("n", "margin"), ([1], [value])),))]):
        with pytest.raises(TypeError, match=re.escape(kind)):
            written(rows, fmt)


def sweep_lanes(lanes):
    """`lanes` estimator lanes of the column types the sweeps make, four pieces and one row long.

    n is a range, p_n a memoryview of the table's array("q"), estimate an array("d"), and
    source, floored, residual and rel_error DerivedColumns.  Each piece of 1024 // lanes
    rows after the first holds cells the one before it does not: a floor of ±1e19, just
    outside int64, then one of ∓1e300, then floats orjson lays out unlike repr.
    The second lane's estimates are the first's negated.
    """
    step = 1024 // lanes
    p_n = memoryview(harness._table(LIMIT).prime_array)[2 : 4 * step + 3]
    estimates = np.frombuffer(p_n, dtype=np.int64) + np.sqrt(np.arange(len(p_n)))
    estimates[step + 5] = 1e19
    estimates[2 * step + 7] = -1e300
    estimates[3 * step : 3 * step + 5] = [2.5e-5, 9.999999999999999e-05, 1e16, -0.0, 5e-324]
    return tuple(
        harness._estimator_lane(source, core.EstimatorColumns.against(3, p_n, sign * estimates))
        for source, sign in (("survival", 1.0), ("capacity", -1.0))[:lanes]
    )


@pytest.mark.parametrize("lanes", [1, 2])
def test_sweep_column_types_print_by_the_per_cell_rule(lanes):
    # the writer reads these columns as numpy slices; the reference reads them a cell at a time
    block = sweep_lanes(lanes)
    step = 1024 // lanes
    for _, columns in block:
        floored = columns[4]
        assert all(isinstance(harness._numpy_rows(c, 0, step), np.ndarray) for c in columns[1:])
        assert harness._numpy_rows(floored, 0, step).dtype == np.int64
        assert harness._numpy_rows(floored, step, 2 * step) == floored[step : 2 * step]  # 1e19 is past int64
    rows = block_rows(block)
    assert written([harness._lanes_block(block)]) == per_cell_csv(rows, REPORT_COLUMNS)
    assert written([harness._lanes_block(block)], "json") == per_cell_json(rows, REPORT_COLUMNS)


def serial_certificate_rows(n_max):
    """certify's rows as one process makes them: each certificate of one sweep, with its source and p_n."""
    table = harness._table(LIMIT)
    return [
        dict(vars(report), source="sieve_identity", p_n=table.nth(report.n))
        for report in certificate_sweep(n_max, table, [])
    ]


@pytest.mark.parametrize("command, n_max", [("survival", 20_000), ("certify", 50)])
def test_write_rows_matches_per_cell_rule_on_reports(command, n_max):
    config = RunConfig(command=command, n_max=n_max, sieve_limit=LIMIT)
    table = harness._table(LIMIT)
    items, _ = harness._EXECUTORS[command](config, table)
    if command == "certify":  # one block whose rows are made as they are written
        rows = serial_certificate_rows(n_max)
    else:  # one block of two lanes
        grown, capped = survival.survival_sweep(3, n_max, table), survival.capacity_sweep(3, n_max, table)
        rows = block_rows((harness._estimator_lane("survival", grown), harness._estimator_lane("capacity", capped)))
    assert written(items) == per_cell_csv(rows, REPORT_COLUMNS)


def test_estimator_lane_reads_its_source_off_n():
    columns = core.EstimatorColumns.against(3, [*range(5, 100_005)], np.arange(5.0, 100_005.0))
    tracemalloc.start()
    try:
        keys, lane = harness._estimator_lane("capacity", columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096  # no list of 100k sources
    assert keys == ("source", *core.EstimatorColumns._fields) and lane[1:] == tuple(columns)
    assert len(lane[0]) == 100_000 and lane[0][99_999] == "capacity"
    assert lane[0][10:13] == ["capacity"] * 3


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
    assert written([harness._lanes_block(block)]) == per_cell_csv(expected, REPORT_COLUMNS)
    assert_no_child_left()
    # this process formats only the even-numbered chunks; the worker sends the others
    step = 1024 // lanes
    assert formatted == [(lo, min(lo + step, rows)) for lo in range(0, rows, 2 * step)]
    assert written([harness._lanes_block(block)], "json") == per_cell_json(expected, REPORT_COLUMNS)
    assert_no_child_left()
    assert '"a,b",' in written([harness._lanes_block(block)])


def test_forking_beside_a_thread_warns_nothing():
    # from Python 3.12 on, os.fork in a process with threads warns (numpy's pool is one)
    block, stop = forking_block(2049, 1), threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = written([harness._lanes_block(block)])
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

    def both():  # the lanes' Block is made after `spoil`, so it formats through what spoil patched
        return written([harness._lanes_block(block)]), written([harness._lanes_block(block)], "json")

    expected = both()
    spoil(monkeypatch)
    assert both() == expected
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
        harness.write_rows([harness._lanes_block(forking_block(3073, 1))], "csv", FailingStream(writes, error))
    assert_no_child_left()


PIECE = harness._CERTIFY_PIECE  # certify rows per piece; pieces alternate, this process first


def serial_certify(n_max, fmt="csv"):
    """certify's report as one process writes it: a dict row per certificate of one sweep."""
    return written(serial_certificate_rows(n_max), fmt)


def certify_report(n_max, fmt="csv", sieve_limit=LIMIT):
    """(exit code, report) of certify run through `run`."""
    buffer = io.StringIO()
    code = run(RunConfig(command="certify", n_max=n_max, fmt=fmt, sieve_limit=sieve_limit), stream=buffer)
    return code, buffer.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_max", [PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 1, 600])
def test_certify_turns_match_the_serial_writer(fmt, n_max):
    assert certify_report(n_max, fmt) == (EXIT_OK, serial_certify(n_max, fmt))
    assert_no_child_left()


def _certify_worker_fails_at(first):
    """A spoil under which the worker raises on its certificate for every n >= first."""

    def spoil(monkeypatch):
        parent, real = os.getpid(), harness.sieve_identity.harmonic_certificate

        def failing(n, table):
            if os.getpid() != parent and n >= first:
                raise RuntimeError(f"the worker ends before sending row {n}")
            return real(n, table)

        monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", failing)

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        lambda monkeypatch: monkeypatch.delattr(os, "fork"),
        _fork_refused,
        _certify_worker_fails_at(PIECE + 1),  # at once
        _certify_worker_fails_at(PIECE + 4),  # after 3 rows
        _certify_worker_fails_at(3 * PIECE + 2),  # after its first piece and a row
    ],
    ids=["no fork", "fork refused", "worker fails at once", "after 3 rows", "in its second turn"],
)
def test_certify_rows_the_worker_does_not_deliver_are_made_here(monkeypatch, spoil):
    n_max = 4 * PIECE + 3
    expected = [(EXIT_OK, serial_certify(n_max, fmt)) for fmt in ("csv", "json")]
    spoil(monkeypatch)
    assert [certify_report(n_max, fmt) for fmt in ("csv", "json")] == expected
    assert_no_child_left()


def test_certify_violation_in_a_worker_row_is_reported_as_by_one_process(monkeypatch, capsys):
    # n = 20 is in the worker's first piece; its margin is 10^-40 short of 1/p_21 = 1/73
    real = harness.sieve_identity.harmonic_certificate

    def short(n, table):
        report = real(n, table)
        if n == PIECE + 4:
            report.margin = ratio(Fraction(1, report.next_prime) - Fraction(1, 10**40))
        return report

    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", short)
    n_max = 4 * PIECE + 3
    forked = certify_report(n_max)
    assert forked[0] == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: n=20: margin fell below 1/73\n"
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert certify_report(n_max) == forked
    assert capsys.readouterr().err == "invariant violation: n=20: margin fell below 1/73\n"


def test_certify_survivor_disagreement_in_a_worker_row_is_reported_as_by_one_process(monkeypatch, capsys, small_table):
    # 109 lies in (p_17, 2 p_17] = (59, 118], and n = 17 is the worker's first row: with 109
    # unlisted it survives the filter unsummed, so the worker ends and this process counts n = 17
    monkeypatch.setitem(harness._TABLES, small_table.limit, mutant_table(small_table, drop=[109]))
    reports = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        reports.append((*certify_report(70, sieve_limit=small_table.limit), capsys.readouterr().err))
        assert_no_child_left()
    assert reports[0] == reports[1]
    code, _, err = reports[0]
    assert code == EXIT_INVARIANT
    assert err.startswith("invariant violation: n=17: the filter and the certificate disagree on the survivors [109]\n")


def test_certify_spoiled_twin_in_a_worker_row_leaves_the_serial_partial_report(monkeypatch, capsys):
    # the running sum a certificate for n = 21, in the worker's first piece, starts from is
    # doubled: the worker steps to it from n = 20, this process from n = 16, and both fail
    real = harness.sieve_identity.harmonic_certificate

    def spoiled(n, table):
        if n == PIECE + 5 and table._harmonic is not None:
            *pair, (twin_n, twin_d) = table._harmonic
            with core.exact_decimals():
                table._harmonic = (*pair, (2 * twin_n, 2 * twin_d))
        return real(n, table)

    partial = "".join(serial_certify(4 * PIECE + 3).splitlines(keepends=True)[: PIECE + 5])
    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", spoiled)
    reports = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setitem(harness._TABLES, 1_000, core.sieve(1_000))  # its memo is left spoiled
        reports.append(certify_report(4 * PIECE + 3, sieve_limit=1_000))
        assert_no_child_left()
    assert reports == 2 * [(EXIT_INVARIANT, partial)]
    assert capsys.readouterr().err == 2 * "invariant violation: n=21: a Decimal twin differs from its int modulo 2^61 - 1\n"


def test_certify_twin_spoiled_before_a_jump_exits_one_naming_n(monkeypatch, capsys):
    # this process certifies n = 33..48, then steps its running sum over the
    # worker's piece 49..64 to n = 65 in one jump, which the spoiled twin fails
    parent, real = os.getpid(), harness.sieve_identity.harmonic_certificate

    def spoiled(n, table):
        report = real(n, table)
        if n == 3 * PIECE and os.getpid() == parent:
            *pair, (twin_n, twin_d) = table._harmonic
            with core.exact_decimals():
                table._harmonic = (*pair, (twin_n, 2 * twin_d))
        return report

    partial = "".join(serial_certify(5 * PIECE).splitlines(keepends=True)[: 4 * PIECE + 1])
    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", spoiled)
    monkeypatch.setitem(harness._TABLES, 1_000, core.sieve(1_000))  # its memo is left spoiled
    code, text = certify_report(5 * PIECE, sieve_limit=1_000)
    assert_no_child_left()
    assert code == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: n=65: the Decimal twin is not a multiple of p_49 ··· p_n\n"
    assert text == partial


@pytest.mark.parametrize(
    "short, code, err",
    [
        (None, EXIT_RESOURCE, ""),
        (3, EXIT_INVARIANT, "invariant violation: n=3: margin fell below 1/7\n"),
    ],
    ids=["alone", "after a violation"],
)
@pytest.mark.parametrize("fork", [False, True], ids=["one process", "forked"])
def test_certify_out_of_memory_keeps_the_rows_before_it(monkeypatch, capsys, short, code, err, fork):
    # an allocation fails making the fifth row, in this process's first piece, after an
    # invariant broke at n = `short`; a worker making the second piece is reaped
    real = harness.sieve_identity.harmonic_certificate

    def failing(n, table):
        if n == 5:
            raise MemoryError
        report = real(n, table)
        if n == short:
            report.margin = ratio(Fraction(1, report.next_prime) - Fraction(1, 10**40))
        return report

    if not fork:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", failing)
    _, rows = certify_report(4)  # the four rows before it, the broken one included
    assert capsys.readouterr().err == err
    assert certify_report(4 * PIECE + 3) == (code, rows)
    assert capsys.readouterr().err == err + "resource limit: certify ran out of memory; pass a smaller --n-max\n"
    assert_no_child_left()


def test_this_process_certifies_only_the_even_pieces(monkeypatch):
    # n = 1..16, 33..48 and 65..67 are certified here; the worker sends 17..32 and 49..64
    n_max = 4 * PIECE + 3
    expected = serial_certify(n_max)
    parent, certified, real = os.getpid(), [], harness.sieve_identity.harmonic_certificate

    def counted(n, table):
        if os.getpid() == parent:
            certified.append(n)
        return real(n, table)

    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", counted)
    assert certify_report(n_max) == (EXIT_OK, expected)
    assert_no_child_left()
    assert certified == [*range(1, 17), *range(33, 49), *range(65, 68)]


def test_the_certify_worker_inherits_the_sweep(monkeypatch, tmp_path):
    # each process that sweeps the filter appends its pid to the log: the worker, forked
    # after the sweep, certifies n = 17..32 and 49..64 without sweeping again
    n_max = 4 * PIECE + 3
    expected, log, real = serial_certify(n_max), tmp_path / "sweeps", harness.sieve_identity._filter_sweep

    def logged(lo, hi, table):
        with open(log, "a") as sweeps:
            sweeps.write(f"{os.getpid()}\n")
        return real(lo, hi, table)

    monkeypatch.setattr(harness.sieve_identity, "_filter_sweep", logged)
    assert certify_report(n_max) == (EXIT_OK, expected)
    assert_no_child_left()
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_certify_sweep_out_of_memory_forks_and_writes_nothing(monkeypatch, capsys, tmp_path):
    # the sweep runs before the header is written, so not even the header is
    def exhausted(lo, hi, table):
        raise MemoryError

    def forbidden():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(harness.sieve_identity, "_filter_sweep", exhausted)
    monkeypatch.setattr(os, "fork", forbidden)
    for fmt in ("csv", "json"):
        assert certify_report(4 * PIECE + 3, fmt) == (EXIT_RESOURCE, "")
    out = tmp_path / "report"
    assert run(RunConfig(command="certify", n_max=4 * PIECE + 3, sieve_limit=LIMIT, out=str(out))) == EXIT_RESOURCE
    assert not out.exists()
    assert capsys.readouterr().err == 3 * "resource limit: certify ran out of memory; pass a smaller --n-max\n"


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
def test_a_failed_certify_write_kills_the_worker_without_waiting(monkeypatch, error):
    # the worker takes 2 s a certificate, so its first piece, n = 17..32, would take 32 s;
    # a report abandoned at its first row does not wait for it
    parent, real = os.getpid(), harness.sieve_identity.harmonic_certificate

    def slow(n, table):
        if os.getpid() != parent:
            time.sleep(2)
        return real(n, table)

    monkeypatch.setattr(harness.sieve_identity, "harmonic_certificate", slow)
    monkeypatch.setitem(harness._TABLES, 1_000, core.sieve(1_000))
    config = RunConfig(command="certify", n_max=4 * PIECE + 3, sieve_limit=1_000)
    start = time.monotonic()
    with pytest.raises(error):
        run(config, stream=FailingStream(2, error))  # the header, then n = 1
    assert time.monotonic() - start < 1
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
    # a sweep past the gate is refused before its first row, not after row 7
    buffer = io.StringIO()
    assert run(RunConfig(command="gandhi", n_max=8, sieve_limit=LIMIT), stream=buffer) == EXIT_RESOURCE
    assert buffer.getvalue() == "" and "n=8 needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flag",
    [
        (RunConfig(command="sieve-next", n=100, sieve_limit=20_000), "--n"),
        (RunConfig(command="sieve-next", n_max=100, sieve_limit=20_000), "--n-max"),
        (RunConfig(command="certify", n_max=100, sieve_limit=20_000), "--n-max"),
        (RunConfig(command="report", n_max=100, sieve_limit=20_000), "--n-max"),
    ],
    ids=["sieve-next-n", "sieve-next-n-max", "certify", "report"],
)
def test_filter_sweep_past_memory_is_refused_before_a_row(monkeypatch, capsys, small_table, config, flag):
    monkeypatch.setitem(harness._TABLES, small_table.limit, small_table)
    needed = harness.sieve_identity.sweep_bytes(100, small_table)
    monkeypatch.setattr(core, "_memory_budget", lambda: needed - 1)
    buffer = io.StringIO()
    assert run(config, stream=buffer) == EXIT_RESOURCE
    assert buffer.getvalue() == ""
    assert capsys.readouterr().err == (
        f"resource limit: {flag} 100 sweeps the filter over [1, 1082], about {needed >> 20} MiB, "
        f"more than the {(needed - 1) >> 20} MiB this process may use; pass a smaller {flag}\n"
    )
    monkeypatch.setattr(core, "_memory_budget", lambda: needed)
    assert run(config, stream=io.StringIO()) == EXIT_OK


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
    # count of survivors is still right, the survivors are not.  41 stays struck
    # after n = 9, so the run ends there
    from primeforms import sieve_identity

    real = sieve_identity._filter_sweep

    def swapped(lo, hi, table):
        sweep = real(lo, hi, table)
        death = sweep.death.copy()
        death[41], death[25] = 9, 10
        return sweep._replace(death=death)

    monkeypatch.setattr(sieve_identity, "_filter_sweep", swapped)
    config = RunConfig(command="certify", n_max=9, sieve_limit=LIMIT)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: n=9: the filter and the certificate disagree on the survivors [25, 41]\n"
    )


@pytest.mark.parametrize(
    "command, n_max, d, kept, message",
    [
        # 7 enters [1, 2 p_3] = [1, 10] with only d = 1 dividing P_3; the re-check of p_4 adds mu(7)
        ("certify", 10, 7, 3, "filter mismatch at m=7, n=4: Möbius sum 1, gcd test 0"),
        ("report", 10, 7, 3, "filter mismatch at m=7, n=4: Möbius sum 1, gcd test 0"),
        # the re-check of p_20 = 71 lies in the worker's first piece, rows 17..32
        ("certify", 40, 71, 19, "filter mismatch at m=71, n=20: Möbius sum 1, gcd test 0"),
    ],
)
@pytest.mark.parametrize("fork", [True, False], ids=["forked", "one process"])
def test_a_filter_mismatch_stops_the_report_at_its_step(monkeypatch, capsys, command, n_max, d, kept, message, fork):
    config = RunConfig(command=command, n_max=n_max, sieve_limit=LIMIT)
    complete = io.StringIO()
    assert run(config, stream=complete) == EXIT_OK
    real = core.PrimeTable.moebius_values

    def corrupted(self, upto):
        mu = real(self, upto).copy()
        mu[d] = 0
        return mu

    monkeypatch.setattr(core.PrimeTable, "moebius_values", corrupted)
    if not fork:
        monkeypatch.delattr(os, "fork")
    buffer = io.StringIO()
    assert run(config, stream=buffer) == EXIT_INVARIANT
    assert capsys.readouterr().err == f"invariant violation: {message}\n"
    assert buffer.getvalue().splitlines() == complete.getvalue().splitlines()[: 1 + kept]
    assert_no_child_left()


def test_certify_flags_a_margin_below_the_next_prime_term(monkeypatch, capsys):
    # n = 5 reports a margin 10^-40 short of 1/p_6 = 1/13; every row is still written
    from primeforms import sieve_identity

    real = sieve_identity.harmonic_certificate

    def short(n, table):
        report = real(n, table)
        if n == 5:
            report.margin = ratio(Fraction(1, report.next_prime) - Fraction(1, 10**40))
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
    # (0, 1/2), and the oracle's p_{n+1} no longer matches; at n = 7 the
    # remainder's terms have ~150k digits, past the digit limit str() obeys
    real = gandhi.extract_prime
    monkeypatch.setattr(gandhi, "extract_prime", lambda probability: real(probability) + 1)
    for n, extracted, expected in ((3, 8, 7), (7, 20, 19)):
        config = RunConfig(command="gandhi", n=n, samples=10_000, sieve_limit=1_000)
        with int_digit_limit(640):
            assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
        assert capsys.readouterr().err.splitlines() == [
            f"invariant violation: n={n}: scaled remainder is not below 1/2",
            f"invariant violation: n={n}: 2^m * half excess lies outside (1, 2)",
            f"invariant violation: n={n}: extracted {extracted}, oracle has {expected}",
        ]


def test_gandhi_rows_before_a_violation_stay_written(monkeypatch, capsys):
    # n = 1 extracts one past the prime; then n = 2's probability of 1/2 ends the report
    real_probability, real_extract = gandhi.survivor_probability, gandhi.extract_prime
    monkeypatch.setattr(gandhi, "extract_prime", lambda probability: real_extract(probability) + 1)
    monkeypatch.setattr(
        gandhi,
        "survivor_probability",
        lambda n, table, allow_large=False: (1, 2) if n == 2 else real_probability(n, table),
    )
    buffer = io.StringIO()
    assert run(RunConfig(command="gandhi", n_max=2, samples=10_000, sieve_limit=1_000), stream=buffer) == EXIT_INVARIANT
    header, *rows = buffer.getvalue().splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    assert len(rows) == 1 and rows[0].startswith("gandhi,1,2,3,") and ",2/3,1/6,4,5/3,1," in rows[0]
    assert capsys.readouterr().err.splitlines() == [
        "invariant violation: n=1: scaled remainder is not below 1/2",
        "invariant violation: n=1: 2^m * half excess lies outside (1, 2)",
        "invariant violation: n=1: extracted 4, oracle has 3",
        "invariant violation: n=2: survivor probability does not exceed 1/2",
    ]


def test_gandhi_flags_a_decimal_twin_that_differs(monkeypatch, capsys):
    # N's twin is one too large from n = 2 (N = 34) on; n = 1's N = 2 and the base of D's twin stay
    real = gandhi.to_decimal
    monkeypatch.setattr(gandhi, "to_decimal", lambda value: real(value) + 1 if value > 2 else real(value))
    buffer = io.StringIO()
    config = RunConfig(command="gandhi", n_max=3, fmt="json", samples=10_000, sieve_limit=1_000)
    assert run(config, stream=buffer) == EXIT_INVARIANT
    assert [row["n"] for row in json.loads(buffer.getvalue())] == [1]  # a closed array
    assert capsys.readouterr().err == "invariant violation: n=2: a Decimal twin differs from its int modulo 2^61 - 1\n"


@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork a run makes, with no histogram of seeded draws remembered before it."""
    monkeypatch.setattr(gandhi, "_HISTOGRAMS", {})
    calls, real = [], os.fork

    def counted():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def gandhi_report(config, stream=None):
    """(exit code, report text) of a gandhi run written to `stream` or a fresh buffer."""
    stream = io.StringIO() if stream is None else stream
    return run(config, stream=stream), stream.getvalue()


@pytest.mark.parametrize("seed", [42, 7])
def test_gandhi_bytes_do_not_depend_on_the_draws_worker(monkeypatch, forks, seed):
    config = RunConfig(command="gandhi", n_max=7, seed=seed, sieve_limit=1_000)
    forked = gandhi_report(config)
    assert forks == [os.getpid()]  # the draws were made in the worker
    assert_no_child_left()
    monkeypatch.setattr(gandhi, "_HISTOGRAMS", {})
    monkeypatch.delattr(os, "fork")
    assert gandhi_report(config) == forked
    assert forked[0] == EXIT_OK and forked[1].count("\n") == 8


def test_gandhi_draws_the_worker_did_not_deliver_here(monkeypatch, forks):
    config = RunConfig(command="gandhi", n_max=4, samples=20_000, seed=3, sieve_limit=1_000)
    expected = gandhi_report(config)
    monkeypatch.setattr(gandhi, "_HISTOGRAMS", {})
    parent, real = os.getpid(), gandhi._draw_counts

    def spoiled(samples, seed):
        if os.getpid() != parent:
            raise RuntimeError("the worker ends before sending its histogram")
        return real(samples, seed)

    monkeypatch.setattr(gandhi, "_draw_counts", spoiled)
    assert gandhi_report(config) == expected
    assert forks == [parent, parent]
    assert_no_child_left()


def test_gandhi_forks_nothing_for_refused_or_remembered_draws(capsys, forks):
    refused = RunConfig(command="gandhi", n=1, samples=gandhi.MAX_SAMPLES + 1, sieve_limit=1_000)
    assert gandhi_report(refused) == (EXIT_RESOURCE, "")
    assert "pass --samples" in capsys.readouterr().err
    assert forks == []
    config = RunConfig(command="gandhi", n_max=3, samples=20_000, sieve_limit=1_000)
    first = gandhi_report(config)
    assert len(forks) == 1 and gandhi.drawn(20_000, 42)
    assert gandhi_report(config) == first  # from the histogram the worker delivered
    assert len(forks) == 1


@pytest.mark.parametrize(
    "writes, error",
    [(None, None), (2, BrokenPipeError), (3, KeyboardInterrupt)],  # the header, then n = 1, then n = 2
    ids=["violation at n=2", "closed pipe at n=1", "interrupt at n=2"],
)
def test_gandhi_leaves_no_process(monkeypatch, capsys, forks, writes, error):
    config = RunConfig(command="gandhi", n_max=3, samples=20_000, sieve_limit=1_000)
    if error is None:
        real = gandhi.survivor_probability
        monkeypatch.setattr(
            gandhi, "survivor_probability", lambda n, table, allow_large=False: (1, 2) if n == 2 else real(n, table)
        )
        code, text = gandhi_report(config)
        assert code == EXIT_INVARIANT and text.count("\n") == 2  # the header and n = 1, with its estimate
        assert capsys.readouterr().err == "invariant violation: n=2: survivor probability does not exceed 1/2\n"
    else:
        with pytest.raises(error):
            gandhi_report(config, FailingStream(writes, error))
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("at, error", [(1, core.InvariantViolation), (2, KeyboardInterrupt)])
def test_gandhi_kills_a_worker_still_drawing(monkeypatch, capsys, forks, at, error):
    # a violation at the first n needs no estimate, and an interrupt abandons the report
    parent, real = os.getpid(), gandhi.evaluate

    def slow(samples, seed):
        time.sleep(60)  # the worker exits only when killed

    def failing(n, table, allow_large=False):
        if n == at:
            raise error("stop")
        return real(n, table, allow_large=allow_large)

    monkeypatch.setattr(gandhi, "_draw_counts", slow)
    monkeypatch.setattr(gandhi, "evaluate", failing)
    config = RunConfig(command="gandhi", n_max=3, samples=20_000, sieve_limit=1_000)
    start = time.monotonic()
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            gandhi_report(config)
    else:
        assert gandhi_report(config) == (EXIT_INVARIANT, ",".join(REPORT_COLUMNS) + "\r\n")
        assert capsys.readouterr().err == "invariant violation: stop\n"
    assert time.monotonic() - start < 30
    assert forks == [parent]
    assert_no_child_left()


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1 imports numpy.random with numpy")
def test_gandhi_leaves_numpy_random_to_the_worker():
    code = (
        "import os, sys\nfrom primeforms import harness\n"
        "code = harness.main(['gandhi', '--n-max', '7', '--out', os.devnull])\n"
        "print(code, sorted(name for name in sys.modules if name.startswith('numpy.random')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.stdout, proc.stderr) == ("0 []\n", "")


@pytest.mark.parametrize(
    "config, mutation, probability, message",
    [
        # an excess of 0 over 1/2, which no doubling lifts past 1
        (RunConfig(command="gandhi", n=3, samples=10_000, sieve_limit=20_000), {},
         (1, 2), "n=3: survivor probability does not exceed 1/2"),
        # an excess of 1/4, which doubling takes from 1/2 straight to 2
        (RunConfig(command="gandhi", n=3, samples=10_000, sieve_limit=20_000), {},
         (3, 4), "n=3: no exponent places the scaled excess inside (1, 2)"),
        # 1 listed as p_1 strikes every m, so nothing in [2, 2 p_1] survives
        (RunConfig(command="sieve-next", n=1, sieve_limit=20_000), {"insert": [1]}, None,
         "no filter survivor in [2, 2] for n=1; the scan range guarantees one"),
        # with 3 gone, no tabulated prime lies in (p_1, 2 p_1] = (2, 4]
        (RunConfig(command="certify", n_max=1, sieve_limit=20_000), {"drop": [3]}, None,
         "no filter survivor above 1 in [1, 4] for n=1"),
    ],
    ids=["gandhi-excess-zero", "gandhi-excess-quarter", "sieve-next-no-survivor", "certify-no-survivor"],
)
def test_exit_one_sites_fire_through_run(monkeypatch, capsys, small_table, config, mutation, probability, message):
    monkeypatch.setitem(harness._TABLES, small_table.limit, mutant_table(small_table, **mutation))
    if probability is not None:  # survivor_probability returns it at every n
        monkeypatch.setattr(gandhi, "survivor_probability", lambda n, table, allow_large=False: probability)
    assert run(config, stream=io.StringIO()) == EXIT_INVARIANT
    assert capsys.readouterr().err == f"invariant violation: {message}\n"


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


@pytest.mark.parametrize("alpha", ["-2e-3", "-1e300", "-0.5"])
def test_main_reads_a_negative_alpha_after_a_space(tmp_path, alpha):
    # before Python 3.13, argparse took a negative number in exponent form for a flag
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["spectral", "--n-max", "300", "--alpha", alpha, "--out", str(spaced)]) == EXIT_OK
    assert main(["spectral", "--n-max", "300", f"--alpha={alpha}", "--out", str(joined)]) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()


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
        (["sieve-next", "--n", "200000"], "error: --n 200000 is beyond the 148933 tabulated primes"),
        (["sieve-next", "--n-max", "200000"], "error: --n-max 200000 is beyond"),
        (["certify", "--n-max", "200000"], "error: --n-max 200000 is beyond"),
        (["report", "--n-max", "200000"], "error: --n-max 200000 is beyond"),
        (["certify", "--n-max", "100", "--sieve-limit", "1000"], "error: --n-max 100 scans up to 1082"),
        # report takes no --calib-hi, so its refusal names the window's end
        (["report", "--n-max", "10", "--sieve-limit", "500"],
         "error: the calibration window's end n = 1000 is beyond the 95 tabulated primes"),
        # argparse before Python 3.13 took -inf for a flag, not --alpha's value
        (["spectral", "--n-max", "5", "--alpha", "-inf"], "error: --alpha must be a finite number, not -inf"),
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


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_missing_flag_refusal_names_a_flag_the_command_takes(capsys, command):
    assert run(RunConfig(command=command)) == EXIT_USAGE
    message = capsys.readouterr().err
    subparsers = next(a for a in harness.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {flag for action in subparsers.choices[command]._actions for flag in action.option_strings}
    named = re.findall(r"--[\w-]+", message)
    assert named and set(named) <= taken, message


# Every flag of every command except --allow-large-gandhi, with values that
# stay small: no sieve above 10000, which still tabulates p_1000 = 7919 so
# `report` and a default-window `spectral` run past their refusal, and no
# ordinal above 60, so Gandhi's n <= 7 cap refuses the rest before any large
# allocation.
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
    argv += ["--sieve-limit", str(draw(st.integers(-1, 10_000)))]
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
    # 2^31 needs about 2.9 GiB of sieve tables, past the 1 GiB cap; a table
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
        # 4e9 draws would take over a minute: refused past gandhi.MAX_SAMPLES before any is drawn
        (["gandhi", "--n", "1", "--samples", "4000000000"], "; pass --samples "),
        # the brute-force re-check loops over every m <= x in Python
        (["selberg", "--x", str(survival.SELBERG_MAX_X + 1), "--z", "3"], f"use --x {survival.SELBERG_MAX_X} or"),
        # P_2000 has about 7,500 digits, past str()'s limit, and the P_k up to P_78498 would fill memory
        (["gandhi", "--n-max", "2000"], "; pass --allow-large-gandhi "),
        (["gandhi", "--n", "78498"], "; pass --allow-large-gandhi "),
        # the sieve to 5e7 fits the cap, but the filter sweep's arrays over [1, 2 p_n],
        # 20 bytes an entry (954 MiB), do not; allocating them ended in a MemoryError
        (["sieve-next", "--n-max", "1565927", "--sieve-limit", "50000000"], "; pass a smaller --n-max"),
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
    # a lowered cap, so the count the refusal names runs in well under a second
    cap = "gandhi.MAX_SAMPLES = 20_000"
    refused = _capped_gandhi(capped_address_space, 4_000_000_000, cap)
    assert refused.returncode == EXIT_RESOURCE
    named = int(re.search(r"; pass --samples (\d+) or fewer", refused.stderr).group(1))
    proc = _capped_gandhi(capped_address_space, named, cap)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.count("\n") == 2 and proc.stderr == ""


def test_cli_samples_run_in_bounded_memory_under_the_cap(capped_address_space):
    # 1 GiB / 24 bytes: held whole, with their int64 copy, these draws would not fit the cap; batched, they do
    proc = _capped_gandhi(capped_address_space, 44_739_242)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.count("\n") == 2 and proc.stderr == ""


def test_cli_allocation_failure_mid_run_exits_three(capped_address_space):
    # past every estimate: the sweep asks numpy for 1 TiB, which the 1 GiB cap refuses
    code = (
        "import sys\nimport numpy as np\nfrom primeforms import harness, survival\n"
        "survival.survival_sweep = lambda *args: np.ones(1 << 40, dtype=np.uint8)\n"
        "sys.exit(harness.main(['survival', '--n-max', '100']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, preexec_fn=capped_address_space
    )
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stdout == ""
    assert proc.stderr == "resource limit: survival ran out of memory; pass a smaller --n-max\n"


def recorded_workloads():
    """Every command the benchmark runs, with the digest `perfbench/workloads.py` records for it."""
    limit = csv.field_size_limit()  # the module lifts csv's field limit when it loads
    try:
        workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]
    finally:
        csv.field_size_limit(limit)
    return [pytest.param(c.argv, c.sha256, id=" ".join(c.argv)) for commands in workloads.values() for c in commands]


def report_digest(argv):
    """sha256 of a command's report, run under the smallest legal int-to-str digit limit."""
    proc = subprocess.run(
        [sys.executable, "-m", "primeforms", *argv],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("argv, digest", recorded_workloads())
def test_workload_report_bytes_are_unchanged(argv, digest):
    assert report_digest(argv) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("certify", "--n-max", "50"), "704efa5b7b19a8977812495987ebc6b62026508e956a05ff2638e77a3473b4fc"),
        (("report", "--n-max", "200"), "001fa159f17378fceb2d92d8deab13b8e73a3e0c1bf6d3c54b7953e00f66633b"),
        (
            ("gandhi", "--n-max", "5", "--samples", "20000"),
            "f6f50c0a423e8705e1aa52793e57c6e204f7f7267d809ee6ffa369a59790c417",
        ),
    ],
)
def test_exact_json_report_bytes_are_unchanged(argv, digest):
    # no benchmark workload writes a rational cell to JSON
    assert report_digest([*argv, "--format", "json"]) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("selberg", "--x", "10", "--z", "3"), "f51321988a20093891658ce91803b343445013cc0f849ad8cff19e82f4ac6910"),
        (
            ("selberg", "--x", "10", "--z", "3", "--format", "json"),
            "74077f08b94ce266a62b5ee1bddd410384fb0dfa39f569be4855b8b2de12b16f",
        ),
        (("brun", "--X", "1000000"), "4809f16b7dcfb9aee6a4e64fa4a60c1a47e4d0472a13f7f9b4e931eca2692823"),
        (
            ("brun", "--X", "1000000", "--format", "json"),
            "1be192c21c874a8841c3c09aa20cc6321d52992de5ade6d7f22d616c2d34085c",
        ),
    ],
)
def test_single_row_report_bytes_are_unchanged(argv, digest):
    # one dict row each, exact on every BLAS: the Selberg solve is 1x1 over integers and brun one math.fsum
    assert report_digest(argv) == digest


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
        harness.write_rows([harness._lanes_block(block)], "json", buffer)
    assert_no_child_left()
    assert buffer.getvalue() == per_cell_json(block_rows(block)[:2048], REPORT_COLUMNS)


def test_cli_closed_pipe_on_a_forking_block_leaves_no_process():
    # the survival block is 196 pieces of one chunk, and certify's 600 rows 38 pieces of
    # 16 rows; the pieces alternate between this process and a forked worker
    for argv in (["survival", "--n-max", "100000"], ["certify", "--n-max", "600"]):
        with subprocess.Popen(
            [sys.executable, "-m", "primeforms", *argv],
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
