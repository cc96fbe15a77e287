"""Command-line harness: sweeps, CSV/JSON reports and the precision study.

The report schema is frozen (see REPORT_COLUMNS and the README): every row
carries a `source` naming its producer and the row's n; exact rationals are
serialized as "numerator/denominator" strings, never as floats, because
float serialization is precisely the failure mode the precision study
documents.  Exit codes: 0 success, 1 exact-module invariant violation,
2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import fcntl
import math
import os
import re
import signal
import sys
import warnings
from array import array
from collections.abc import Callable, Iterable
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import core, gandhi, sieve_identity, spectral, survival

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

REPORT_COLUMNS = [
    "source",
    "n",
    "p_n",
    "next_prime",
    "exact_sum",
    "exact_floor",
    "margin",
    "float_sum",
    "float_floor",
    "float_margin",
    "float_gap",
    "probability",
    "half_excess",
    "extracted_prime",
    "scaled_remainder",
    "subset_count",
    "mc_estimate",
    "estimate",
    "floored",
    "x",
    "z",
    "weights",
    "minimum",
    "survival_sign",
    "first_float_floor_break",
    "anomaly_count",
    "residual",
    "rel_error",
]

class UsageError(ValueError):
    """Bad flag combination or a parameter outside the configured resources."""


@dataclass
class RunConfig:
    """One harness invocation: exactly one command plus its parameters."""

    command: str
    n: int | None = None
    n_max: int | None = None
    x: int | None = None
    z: int | None = None
    x_upper: int | None = None  # scan bound of the twin-pair sum
    sieve_limit: int = core.DEFAULT_SIEVE_LIMIT
    samples: int = 1_000_000
    seed: int = 42
    alpha_override: float | None = None
    calib_lo: int = 10
    calib_hi: int = 1000
    fmt: str = "csv"
    out: str | None = None
    allow_large_gandhi: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, not {self.fmt!r}")
        for name in ("n", "n_max", "x", "z", "x_upper"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be positive")
        if self.n is not None and self.n_max is not None:
            raise UsageError("--n and --n-max exclude each other; pass one of them")
        if self.sieve_limit < 2:
            raise UsageError("sieve limit must be at least 2")
        if self.samples < gandhi.MIN_SAMPLES:
            raise UsageError(f"--samples must be at least {gandhi.MIN_SAMPLES}, not {self.samples}")
        if self.seed < 0:
            raise UsageError("--seed must be non-negative")
        if self.alpha_override is not None and not math.isfinite(self.alpha_override):
            raise UsageError(f"--alpha must be a finite number, not {self.alpha_override}")
        if self.x is not None and self.z is not None and not 2 <= self.z <= self.x:
            raise UsageError(f"selberg needs 2 <= --z <= --x, not --x {self.x} --z {self.z}")
        if self.z is not None and self.z > survival.SELBERG_MAX_Z:
            raise UsageError(
                f"--z {self.z} needs more than {survival.SELBERG_MAX_WEIGHTS} weights; "
                f"use --z {survival.SELBERG_MAX_Z} or smaller"
            )
        if self.calib_lo < 3 or self.calib_hi <= self.calib_lo:
            raise UsageError("calibration window needs 3 <= lo < hi")


# -- row plumbing -----------------------------------------------------------

_TABLES: dict[int, core.PrimeTable] = {}


def _table(limit: int) -> core.PrimeTable:
    if limit not in _TABLES:
        _TABLES[limit] = core.sieve(limit)
    return _TABLES[limit]


def _fraction_str(value: core.Ratio) -> str:
    """"numerator/denominator" in decimal, printed from the exact Decimals the value carries;
    a denominator already printed, which records sharing it carry as text, is copied in."""
    return "%s/%s" % value.decimals


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as `json` spells them
_LAYOUTS: dict[tuple, tuple] = {}  # (keys, kinds, fmt) -> text before the cells, per cell (key index, converter, text)


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_text(cell: str) -> str:
    """A text cell as csv.writer writes it (QUOTE_MINIMAL): quoted if it holds a comma, a quote or a line end."""
    return '"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell


def _csv_texts(cells):
    """Text cells, each as `_csv_text` writes it, if a scan of them all finds any that needs quoting."""
    return [*map(_csv_text, cells)] if _needs_quotes("".join(cells)) else cells


def _json_fraction(value: core.Ratio) -> str:
    return encode_basestring_ascii(_fraction_str(value))


def _float_cells(column) -> list[str]:
    """A column of floats, numpy's included, as `float.__repr__` prints them.

    A column of more than one float is printed once by orjson from a float64 array,
    whose Ryū digits are repr's shortest round-trip digits, and its text is kept where
    every cell is plainly positional (an optional -, at most 16 integer digits, a
    fraction), as repr lays it out too.  Substring scans of the whole text, and the
    array's min and max for 17 integer digits, find any other cell: an exponent form,
    a nonfinite float (orjson's null) or Ryū's 0.0000… for 1e-5 <= |x| < 1e-4.  A
    column with one is printed by repr whole.
    """
    if len(column) == 1:
        return [float.__repr__(column[0])]
    import orjson  # only lanes with a float column load it; a dict row is a column of one

    values = np.asarray(column, dtype=np.float64)  # a lane's slice as it is, a list copied
    text = "," + orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    cells = text[1:].split(",")
    if (
        any(mark in text for mark in ("e", "E", "n", ",0.0000", ",-0.0000"))  # an exponent, a null, Ryū's 0.0000…
        or text.count(".") != len(cells)  # a cell with no fraction
        or not -1e16 < values.min() <= values.max() < 1e16  # a cell with 17 integer digits
    ):  # some cell is not plainly positional
        return [*map(float.__repr__, values.tolist())]
    return cells


def _int_cells(column) -> list[str]:
    """A column of ints in a lane with a float column, a list or an int64 array, as
    `int.__repr__` prints them: by one orjson call, or by repr whole where orjson
    refuses a cell past 64 bits."""
    if len(column) == 1:
        return [int.__repr__(column[0])]
    import orjson

    try:
        text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError:  # a cell past 64 bits
        return [*map(int.__repr__, column)]
    return text[1:-1].decode().split(",")


def _json_float_cells(column):
    """A column of floats as `json` prints them: repr's text, nonfinite floats as NaN, Infinity, -Infinity."""
    cells = _float_cells(column)
    return map(_JSON_NONFINITE.get, cells, cells)


def _converter(kind: type, fmt: str) -> Callable:
    """The converter from a column of floats, `core.Ratio`s, text or ints to its `fmt` cells."""
    if issubclass(kind, float):  # numpy's floats too, which would repr() as np.float64(...)
        return _float_cells if fmt == "csv" else _json_float_cells
    if issubclass(kind, core.Ratio):
        return partial(map, _fraction_str if fmt == "csv" else _json_fraction)
    if issubclass(kind, str):
        return _csv_texts if fmt == "csv" else partial(map, encode_basestring_ascii)
    if kind is int:  # an int prints as both formats spell it
        return partial(map, int.__repr__)
    raise TypeError(f"a report cell cannot hold a {kind.__module__}.{kind.__qualname__}")


def _layout(keys: tuple, kinds: tuple, fmt: str) -> tuple:
    """The layout of rows with cells under `keys` of types `kinds`, compiled once for them and `fmt`.

    It is a CSV line or an element of json.dump(..., indent=1), absent columns already
    blank or null: the text before its first cell, then per cell the key index it takes,
    its column converter and the text after it, each text one endless `repeat`, None where
    empty; then whether a column holds floats, so the lane is read as numpy slices and its
    ints are printed by `_int_cells` too (a lane of ints alone never loads orjson).
    """
    if (keys, kinds, fmt) not in _LAYOUTS:
        at = dict(sorted((REPORT_COLUMNS.index(key), j) for j, key in enumerate(keys)))  # column -> key index
        cells = ["%s" if i in at else "" for i in range(len(REPORT_COLUMNS))]
        if fmt == "csv":
            line = ",".join(cells) + "\r\n"
        else:
            line = " {\n" + ",\n".join(f'  "{c}": {cell or "null"}' for c, cell in zip(REPORT_COLUMNS, cells)) + "\n }"
        texts = [repeat(text) if text else None for text in line.split("%s")]
        numeric = any(issubclass(kind, float) for kind in kinds)
        converters = [_int_cells if numeric and kind is int else _converter(kind, fmt) for kind in kinds]
        slots = [(j, converters[j], text) for j, text in zip(at.values(), texts[1:])]
        _LAYOUTS[keys, kinds, fmt] = texts[0], slots, numeric
    return _LAYOUTS[keys, kinds, fmt]


def _numpy_rows(column, lo: int, hi: int):
    """Rows lo..hi-1 of a column, read by numpy where a sweep's column type allows: a range
    as an arange, an `array` or `memoryview` in place, a ufunc DerivedColumn as its pass, and
    a floor DerivedColumn as the int64 floor of its base where every floor fits.  Any other
    column gives its own slice."""
    if isinstance(column, range):
        rows = column[lo:hi]
        return np.arange(rows.start, rows.stop, rows.step)
    if isinstance(column, (array, memoryview)):
        return np.asarray(column)[lo:hi]
    if isinstance(column, core.DerivedColumn):
        if isinstance(column.of, np.ufunc):
            return column._pass(slice(lo, hi))
        if column.of is math.floor:
            floors = np.floor(_numpy_rows(column.bases[0], lo, hi))
            if -(2.0**63) <= floors.min() and floors.max() < 2.0**63:
                return floors.astype(np.int64)
    return column[lo:hi]


def _lines(keys: tuple, columns, fmt: str, lo: int, hi: int):
    """Rows lo..hi-1 of one lane, equal-length columns under `keys`, in their layout: each
    row is one join of the text between its cells and the cells (a `%` template filled the same
    way grows its buffer cell by cell, which costs more once a certificate's cells pass a megabyte)."""
    head, slots, numeric = _layout(keys, tuple([type(column[lo]) for column in columns]), fmt)
    numeric = numeric and hi - lo > 1  # a column of one cell is printed by repr, from its own slice
    parts = [head] if head else []
    for j, convert, text in slots:
        parts.append(convert(_numpy_rows(columns[j], lo, hi) if numeric else columns[j][lo:hi]))
        if text:
            parts.append(text)
    return map("".join, zip(*parts))


class Block(NamedTuple):
    """A report block of `rows` rows, made `piece` rows at a time by text(fmt, joiner, lo, hi).

    text returns the texts of rows lo..hi-1, the lines within one text joined by
    `joiner`.  Pieces alternate between this process, which makes the even-numbered
    ones, and a forked worker, which sends each odd-numbered one as one text.
    """

    rows: int
    piece: int
    text: Callable[[str, str, int, int], Iterable[str]]


def _row_text(row: dict, fmt: str) -> str:
    """One row keyed by REPORT_COLUMNS ("" is a blank cell), in its layout: a lane of one row,
    converted by the same column converters.  `next` takes it, since a row with no cells
    is a lane of no columns, whose lines repeat without end."""
    kept = {k: v for k, v in row.items() if v.__class__ is not str or v}
    return next(_lines(tuple(kept), [[v] for v in kept.values()], fmt, 0, 1))


def write_rows(rows, fmt: str, stream) -> None:
    """Write `rows`, each item as soon as it is produced, in the CSV or JSON report layout.

    An item is a dict keyed by REPORT_COLUMNS ("" is a blank cell) or a Block.  A
    failure while producing an item leaves the items before it written (a JSON array
    still closed).
    """
    separator, joiner = ("", "") if fmt == "csv" else ("\n", ",\n")
    stream.write(",".join(REPORT_COLUMNS) + "\r\n" if fmt == "csv" else "[")
    try:
        for item in rows:
            if isinstance(item, dict):
                chunks = nullcontext([_row_text(item, fmt)])
            else:  # closing kills and reaps the block's worker however this ends
                chunks = closing(_block_chunks(item, fmt, joiner))
            with chunks as texts:
                for text in texts:
                    stream.write(separator + text)
                    separator = joiner
    finally:
        if fmt == "json":
            stream.write("]\n" if separator == "\n" else "\n]\n")


_CHUNK_LINES = 1024  # lines of a lane block formatted and written at a time


def _lanes_block(lanes) -> Block:
    """Lanes (keys, columns), all columns of one length, as a Block of pieces of `_CHUNK_LINES`
    lines, each one text; row i of every lane is written in turn."""
    rows = min((len(columns[0]) for _, columns in lanes), default=0)
    return Block(rows, max(1, _CHUNK_LINES // len(lanes)), partial(_chunk_text, lanes))


def _block_chunks(block: Block, fmt: str, joiner: str):
    """A block's texts, in order: those of the even-numbered pieces made here, those of the
    odd-numbered ones as a forked worker sent them, one text a piece.

    A piece the worker did not deliver (it ended early, or no worker started) is made
    here, so the bytes never depend on it.  The worker is killed and reaped when the
    generator ends or is closed.
    """
    text = partial(block.text, fmt, joiner)
    pieces = [(lo, min(lo + block.piece, block.rows)) for lo in range(0, block.rows, block.piece)]
    with _worker(lambda lo, hi: joiner.join(text(lo, hi)), pieces[1::2]) as receive:
        for k, piece in enumerate(pieces):
            received = receive() if k % 2 else None
            yield from text(*piece) if received is None else [received]


def _chunk_text(lanes, fmt: str, joiner: str, lo: int, hi: int) -> list[str]:
    """Rows lo..hi-1 of every lane, interleaved row by row, as a list of one text."""
    lines = zip(*(_lines(keys, columns, fmt, lo, hi) for keys, columns in lanes))
    return [joiner.join(chain.from_iterable(lines))]


_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@contextmanager
def _worker(make: Callable[..., str], pieces: list):
    """receive(): the text make(*piece) of each of `pieces` in turn, as a forked worker
    made and sent it, or None once the worker has ended early or if none started.

    A worker is forked only for pieces to make, on a platform that can fork.  It
    sends each text as an 8-byte length and the UTF-8 text, and ends at its first
    error.  On every way out the pipe is closed and the worker killed and reaped: one
    still making a piece would not see a closed pipe before its next write.
    """
    pid = pipe = None
    try:
        if pieces and hasattr(os, "fork"):
            reader, writer = os.pipe()
            pipe = open(reader, "rb")
            with suppress(AttributeError, OSError):  # Linux: a 1 MiB pipe lets the worker run pieces ahead
                fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, 1 << 20)
            # numpy's thread pool makes this process multi-threaded, which Python 3.12+
            # warns about.  The pool serves BLAS calls, and no piece makes one: the
            # worker runs cell printing, str joins, the certificates' int and Decimal
            # arithmetic, numpy's element-wise and indexing calls, Gandhi's seeded draws,
            # and writes to the pipe it opens itself, so it takes no lock another thread
            # could hold.
            with warnings.catch_warnings(), suppress(OSError):  # no fork: receive() reads the end at once
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the worker never leaves this block, whatever it raises
                try:
                    pipe.close()
                    with open(writer, "wb") as sink:
                        for piece in pieces:
                            data = make(*piece).encode()
                            sink.write(len(data).to_bytes(8, "little"))
                            sink.write(data)
                finally:
                    os._exit(0)
            os.close(writer)
        yield (lambda: None) if pipe is None else partial(_receive, pipe)
    finally:
        if pipe is not None:
            pipe.close()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)  # one that sent every piece is exiting anyway
            os.waitpid(pid, 0)


def _receive(pipe) -> str | None:
    """The next text the worker sent, or None if the pipe ends before all of it."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    return body.decode() if len(head) == 8 and len(body) == size else None


def _estimator_lane(source: str, columns: core.EstimatorColumns) -> tuple:
    """A sweep's columns as a report lane whose rows name `source`, a constant column over n."""
    return ("source", *columns._fields), (core.DerivedColumn(source, columns.n), *columns)


# -- command executors -------------------------------------------------------


def _flag(name: str) -> str:
    """The command-line flag of the RunConfig field `name`."""
    return "--X" if name == "x_upper" else f"--{name.replace('_', '-')}"


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"command {config.command!r} needs {_flag(name)}")


def _approx_limit(n: int) -> int:
    """A sieve limit at or above p_n: n (ln n + ln ln n) bounds p_n for n >= 6."""
    return int(n * (math.log(n) + math.log(max(math.log(n), 2.0)))) + 8


def _check_reach(table: core.PrimeTable, n: int, flag: str, reach: int) -> None:
    """The command reads p_n (reach 1) or scans up to 2 p_n (reach 2); fail naming a sieve limit that covers it."""
    if n > len(table.prime_array):
        raise UsageError(
            f"{flag} {n} is beyond the {len(table.prime_array)} tabulated primes; "
            f"needs roughly --sieve-limit {reach * _approx_limit(n)}"
        )
    required = reach * table.nth(n)
    if required > table.limit:  # only a scan can pass the limit: p_n itself is tabulated
        raise UsageError(f"{flag} {n} scans up to {required}; needs --sieve-limit {required}")


def _check_sweep(table: core.PrimeTable, n: int, flag: str) -> None:
    """The command sweeps the filter up to n, over [1, 2 p_n]; refuse it, naming `flag`, before it
    allocates more than this process may use."""
    _check_reach(table, n, flag, 2)
    needed, budget = sieve_identity.sweep_bytes(n, table), core._memory_budget()
    if needed > budget:
        raise core.ResourceLimitError(
            f"{flag} {n} sweeps the filter over [1, {2 * table.nth(n)}], about {needed >> 20} MiB, "
            f"more than the {budget >> 20} MiB this process may use; pass a smaller {flag}"
        )


def _ordinal_range(config: RunConfig) -> tuple[int, int]:
    """[lo, hi] of a command run at the single --n or at every n up to --n-max."""
    if config.n is None and config.n_max is None:
        raise UsageError(f"command {config.command!r} needs --n or --n-max")
    return (config.n, config.n) if config.n_max is None else (1, config.n_max)


def _run_sieve_next(config: RunConfig, table: core.PrimeTable):
    lo, hi = _ordinal_range(config)
    _check_sweep(table, hi, "--n-max" if config.n is None else "--n")
    found = sieve_identity.next_prime_sweep(lo, hi, table)
    ns, primes = range(lo, hi + 1), memoryview(table.prime_array)
    violations = [f"n={n}: filter found {f}, oracle has {e}" for n, f, e in zip(ns, found, primes[lo:]) if f != e]
    columns = (core.DerivedColumn("sieve_identity", ns), ns, primes[lo - 1 : hi], found)
    return [_lanes_block(((("source", "n", "p_n", "next_prime"), columns),))], violations


# Rows a piece of a certify block: at n = 2000 a worker's piece of 16 rows (about
# 0.4 MB) fits the 1 MiB pipe, so the worker is not held up writing it; pieces of
# 64 rows (about 1.7 MB) were.  This process writes the rows of its own pieces one
# at a time, so a violation raised at a piece's fifth row leaves the four before it
# written, as one process leaves them.
_CERTIFY_PIECE = 16


def _run_certify(config: RunConfig, table: core.PrimeTable):
    """Certificate rows for n = 1..n_max as a Block of `_CERTIFY_PIECE` rows a piece.

    The filter sweep runs once, here, before the header is written, so a forked
    worker inherits it.  Each process certifies the rows of its own pieces, stepping
    its running sum over the other's.  A worker delivers a piece only if making each
    of its rows raised nothing and broke no invariant; otherwise it ends, and this
    process makes that piece and every later one, so the report, the violations and
    their order are those of one process.
    """
    _require(config, "n_max")
    _check_sweep(table, config.n_max, "--n-max")
    violations, owner = [], os.getpid()
    sweep = sieve_identity._filter_sweep(1, config.n_max, table)

    def text(fmt: str, joiner: str, lo: int, hi: int):
        for n in range(lo + 1, hi + 1):
            report, found = sweep.certify(n, table)
            if found and os.getpid() != owner:  # the worker ends; this process makes the piece
                raise core.InvariantViolation(found[0])
            violations.extend(found)
            # each field of the certificate is a report column
            yield _row_text(dict(vars(report), source="sieve_identity", p_n=table.nth(n)), fmt)

    return [Block(config.n_max, _CERTIFY_PIECE, text)], violations


def _run_gandhi(config: RunConfig, table: core.PrimeTable):
    lo, hi = _ordinal_range(config)
    _check_reach(table, hi + 1, "the extracted prime's ordinal", 1)
    gandhi.check_feasible(hi, table, config.allow_large_gandhi)
    gandhi.check_samples(config.samples)  # draws refused end the run before its report starts or a worker forks
    violations = []
    return _gandhi_rows(range(lo, hi + 1), config, table, violations), violations


def _draws_text(samples: int, seed: int) -> str:
    """The histogram of the seeded draws as one text: its counts in decimal, space-separated."""
    return " ".join(map(str, gandhi._draw_counts(samples, seed).tolist()))


def _gandhi_rows(ns: range, config: RunConfig, table: core.PrimeTable, violations: list):
    """Gandhi's row for each n in `ns`, made once every n is evaluated.

    No exact row reads the Monte Carlo estimate, so a forked worker draws the
    histogram while this process evaluates n = lo..hi; the rows then read it
    from the memo the estimates share, or draw it here if the worker delivered
    nothing (no fork, or it ended), so the bytes never depend on the worker.  A
    remembered histogram forks nothing.  An InvariantViolation or MemoryError
    raised at n = k is raised after the rows before k.  The worker is killed and
    reaped before the first row is yielded, or as this raises: one still drawing
    (10^9 draws take about 12 s) would never notice a closed pipe.
    """
    draws, evaluated, failure = (config.samples, config.seed), [], None
    with _worker(_draws_text, [] if gandhi.drawn(*draws) else [draws]) as receive:
        for n in ns:
            try:
                evaluation = gandhi.evaluate(n, table, allow_large=config.allow_large_gandhi)
            except (core.InvariantViolation, MemoryError) as exc:
                failure = exc
                break
            violations.extend(evaluation.violations())
            expected = table.nth(n + 1)
            if evaluation.extracted_prime != expected:
                violations.append(f"n={n}: extracted {evaluation.extracted_prime}, oracle has {expected}")
            evaluated.append((evaluation, expected))
        received = receive() if evaluated else None  # no row, no estimate to wait for
        if received is not None:
            gandhi.remember_draws(*draws, [*map(int, received.split())])
    for evaluation, expected in evaluated:
        n = evaluation.n
        estimate = gandhi.monte_carlo_survivor_fraction(n, *draws, table)
        # each field of the evaluation is a report column
        yield dict(vars(evaluation), source="gandhi", p_n=table.nth(n), next_prime=expected, mc_estimate=estimate)
    if failure is not None:
        raise failure


def _resolve_amplitude(config: RunConfig, table: core.PrimeTable, window_end: str) -> float:
    """--alpha, or the amplitude fitted over the calibration window, whose end `window_end` names."""
    if config.alpha_override is not None:
        return config.alpha_override
    _check_reach(table, config.calib_hi, window_end, 1)
    return spectral.calibrate_amplitude(config.calib_lo, config.calib_hi, table)


def _run_spectral(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    if config.n_max < 3:
        raise UsageError("spectral sweep needs --n-max >= 3")
    _check_reach(table, config.n_max, "--n-max", 1)
    amplitude = _resolve_amplitude(config, table, "--calib-hi")
    try:
        columns = spectral.spectral_sweep(3, config.n_max, amplitude, table)
    except OverflowError as exc:
        raise UsageError(f"{exc}; pass a smaller --alpha") from None
    return [_lanes_block((_estimator_lane("spectral", columns),))], []


def _run_survival(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    if config.n_max < 3:
        raise UsageError("survival sweep needs --n-max >= 3")
    _check_reach(table, config.n_max, "--n-max", 1)
    grown = survival.survival_sweep(3, config.n_max, table)
    capped = survival.capacity_sweep(3, config.n_max, table)
    return [_lanes_block((_estimator_lane("survival", grown), _estimator_lane("capacity", capped)))], []


def _run_selberg(config: RunConfig, table: core.PrimeTable):
    _require(config, "x", "z")
    solution = survival.selberg_minimize(config.x, config.z)
    row = {
        "source": "selberg",
        "n": len(solution.divisors),
        "x": solution.x,
        "z": solution.z,
        "weights": ";".join(f"{d}:{w!r}" for d, w in zip(solution.divisors, solution.weights)),
        "minimum": solution.minimum,
    }
    return [row], []


def _run_brun(config: RunConfig, table: core.PrimeTable):
    _require(config, "x_upper")
    if config.x_upper > table.limit:
        raise UsageError(f"--X {config.x_upper} needs --sieve-limit {config.x_upper}")
    value = survival.brun_partial(config.x_upper, table)
    pairs = len(table.twin_pairs(config.x_upper))
    return [{"source": "brun", "n": pairs, "x": config.x_upper, "estimate": value}], []


def _precision_rows(n_max: int, table: core.PrimeTable, amplitude: float, violations: list):
    """The float-vs-exact precision study: one row per n = 1..n_max, then a summary row.

    Rows carry the exact margin (as an exact rational), its float shadow,
    the signed float gap, the float floor, the sign of the survival
    residual, and the spectral residual, each yielded as it is produced.
    The summary row reports the first n (if any) whose float floor broke,
    the anomaly count and the largest absolute float gap; it is emitted
    even when nothing deviated.  Broken exact invariants go to `violations`.
    """
    survival_residuals = survival.survival_sweep(3, n_max, table).residual[:]  # one pass: an entry read is a numpy call
    spectral_residuals = spectral.spectral_sweep(3, n_max, amplitude, table).residual[:]
    summary = {"source": "summary", "first_float_floor_break": "", "anomaly_count": 0, "float_gap": 0.0}
    for report in sieve_identity.certificate_sweep(n_max, table, violations):
        row = {
            "source": "precision",
            "n": report.n,
            "p_n": table.nth(report.n),
            "margin": report.margin,
            "float_margin": report.float_margin,
            "float_gap": report.float_gap,
            "float_floor": report.float_floor,
            "survival_sign": "",  # the estimator is undefined below n = 3
        }
        if report.n >= 3:
            residual = survival_residuals[report.n - 3]
            row["survival_sign"] = (residual > 0) - (residual < 0)
            row["residual"] = spectral_residuals[report.n - 3]
        if report.float_floor != 1 and summary["first_float_floor_break"] == "":
            summary["first_float_floor_break"] = report.n
        summary["anomaly_count"] += report.float_anomalous
        summary["float_gap"] = max(summary["float_gap"], abs(report.float_gap))
        yield row
    yield summary


def _run_report(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    _check_sweep(table, config.n_max, "--n-max")
    violations = []
    amplitude = _resolve_amplitude(config, table, "the calibration window's end n =")
    return _precision_rows(config.n_max, table, amplitude, violations), violations


_EXECUTORS = {
    "sieve-next": _run_sieve_next,
    "certify": _run_certify,
    "gandhi": _run_gandhi,
    "spectral": _run_spectral,
    "survival": _run_survival,
    "selberg": _run_selberg,
    "brun": _run_brun,
    "report": _run_report,
}
COMMANDS = tuple(_EXECUTORS)


def run(config: RunConfig, stream=None) -> int:
    """Dispatch one configured command; returns the process exit code.

    Rows are written in ascending n as the command produces them (`certify` and
    `report` stream them, `gandhi` writes them once it has evaluated every n).
    Invariants the rows break are printed after the full report, with exit 1.
    An InvariantViolation raised while rows are produced ends the report early:
    the rows before it stay written, on `stream`, on stdout or in --out alike,
    its message follows those of the earlier rows, and the exit code is 1.  A MemoryError raised while the command
    computes or writes ends it the same way, after those messages, with one line
    naming the flag to lower and exit 3 (1 if an invariant already failed).
    """
    violations, exhausted = [], None
    try:
        table = _table(config.sieve_limit)
        rows, violations = _EXECUTORS[config.command](config, table)
        _write_report(rows, config, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except core.InvariantViolation as exc:
        violations.append(str(exc))
    except MemoryError:  # an allocation no estimate refused, numpy's included
        size = next(name for name in ("n_max", "n", "x_upper", "x", "sieve_limit") if getattr(config, name) is not None)
        exhausted = f"{config.command} ran out of memory; pass a smaller {_flag(size)}"
    for violation in violations:
        print(f"invariant violation: {violation}", file=sys.stderr)
    if exhausted:
        print(f"resource limit: {exhausted}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_RESOURCE if exhausted else EXIT_OK


def _write_report(rows, config: RunConfig, stream) -> None:
    if stream is not None:
        write_rows(rows, config.fmt, stream)
    elif config.out is None:
        try:
            write_rows(rows, config.fmt, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early.  What is still buffered goes
            # to the null device, so the flush at interpreter exit cannot
            # raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                write_rows(rows, config.fmt, handle)
        except OSError as exc:
            raise UsageError(f"cannot write --out {config.out!r}: {exc.strerror}") from None


# A value that float() reads as negative, so `--alpha -2e-3` or `--alpha -inf` is --alpha's value.
_NEGATIVE_FLOAT = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """The CLI; each dest is a RunConfig field, and an absent flag keeps its default."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--sieve-limit", type=int)
    common.add_argument("--format", choices=("csv", "json"), dest="fmt")
    common.add_argument("--out", help="output path (default: standard output)")
    common.add_argument("--seed", type=int)
    common.add_argument("--samples", type=int)

    parser = argparse.ArgumentParser(
        prog="primeforms",
        description="Exact certificates and phenomenological estimators for the n-th prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help, argument_default=argparse.SUPPRESS)

    p = command("sieve-next", "next prime via the coprimality filter")
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)

    p = command("certify", "exact harmonic-sum certificates")
    p.add_argument("--n-max", type=int, required=True)

    p = command("gandhi", "exact Gandhi-formula evaluation")
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--allow-large-gandhi", action="store_true")

    p = command("spectral", "drift + resonance estimates")
    p._negative_number_matcher = _NEGATIVE_FLOAT  # before Python 3.13, argparse took -2e-3 for a flag
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument(
        "--alpha", type=float, dest="alpha_override", metavar="ALPHA", help="override the calibrated amplitude"
    )
    p.add_argument("--calib-lo", type=int)
    p.add_argument("--calib-hi", type=int)

    p = command("survival", "growth-product and capacity estimates")
    p.add_argument("--n-max", type=int, required=True)

    p = command("selberg", "minimize the sieve quadratic form")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--z", type=int, required=True)

    p = command("brun", "twin-prime partial sums")
    p.add_argument("--X", type=int, required=True, dest="x_upper")

    p = command("report", "float-vs-exact precision study")
    p.add_argument("--n-max", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except UsageError as exc:
        parser.error(str(exc))  # exits with status 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
