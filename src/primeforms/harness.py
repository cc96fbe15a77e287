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
import sys
import warnings
from collections.abc import Callable
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat, tee
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import core, gandhi, sieve_identity, spectral, survival

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

COMMANDS = ("sieve-next", "certify", "gandhi", "spectral", "survival", "selberg", "brun", "report")

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
_LAYOUTS: dict[tuple, tuple] = {}  # (keys, kinds, fmt) -> text between cells, column order, cell and column converters


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_text(cell: str) -> str:
    """A text cell as csv.writer writes it (QUOTE_MINIMAL): quoted if it holds a comma, a quote or a line end."""
    return '"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell


def _csv_texts(cells):
    """Text cells, each as `_csv_text` writes it, if a scan of them all finds any that needs quoting."""
    return [*map(_csv_text, cells)] if _needs_quotes("".join(cells)) else cells


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _json_fraction(value: core.Ratio) -> str:
    return encode_basestring_ascii(_fraction_str(value))


def _converters(kind: type) -> dict:
    """Per format, the converter from one value to its cell, of floats, `core.Ratio`s, text or ints."""
    if issubclass(kind, float):  # numpy's floats too, which would repr() as np.float64(...)
        return {"csv": float.__repr__, "json": _json_float}
    if issubclass(kind, core.Ratio):
        return {"csv": _fraction_str, "json": _json_fraction}
    if issubclass(kind, str):
        return {"csv": _csv_text, "json": encode_basestring_ascii}
    if kind is int:  # an int prints as both formats spell it
        return dict.fromkeys(("csv", "json"), int.__repr__)
    raise TypeError(f"a report cell cannot hold a {kind.__module__}.{kind.__qualname__}")


# Column converters that beat mapping the cell converter over the column.
_COLUMN_CONVERTERS = {
    _json_float: lambda column: map(_JSON_NONFINITE.get, *tee(map(float.__repr__, column))),
    _csv_text: _csv_texts,
}


def _layout(keys: tuple, kinds: tuple, fmt: str) -> tuple:
    """The layout of rows with cells under `keys` of types `kinds`, compiled once for them and `fmt`.

    It is a CSV line or an element of json.dump(..., indent=1), absent columns already
    blank or null: the text between its cells, the order in which the cells take the
    keys, and each cell's converters, from one value and from a column of them.
    """
    if (keys, kinds, fmt) not in _LAYOUTS:
        at = dict(sorted((REPORT_COLUMNS.index(key), j) for j, key in enumerate(keys)))  # column -> key index
        cells = ["%s" if i in at else "" for i in range(len(REPORT_COLUMNS))]
        if fmt == "csv":
            line = ",".join(cells) + "\r\n"
        else:
            line = " {\n" + ",\n".join(f'  "{c}": {cell or "null"}' for c, cell in zip(REPORT_COLUMNS, cells)) + "\n }"
        texts = line.split("%s")
        order = [*at.values()]
        converters = [_converters(kinds[j])[fmt] for j in order]
        columns = [_COLUMN_CONVERTERS.get(convert) or partial(map, convert) for convert in converters]
        _LAYOUTS[keys, kinds, fmt] = texts, order, converters, columns
    return _LAYOUTS[keys, kinds, fmt]


def _lines(keys: tuple, columns, fmt: str):
    """The rows of one lane, equal-length non-empty `columns` under `keys`, in their layout:
    each row is the join of the text between its cells and the cells."""
    texts, order, _, converters = _layout(keys, tuple([type(column[0]) for column in columns]), fmt)
    parts = [repeat(texts[0])] if texts[0] else []
    for j, convert, text in zip(order, converters, texts[1:]):
        parts.append(convert(columns[j]))
        if text:
            parts.append(repeat(text))
    return map("".join, zip(*parts))


class Block(NamedTuple):
    """A report block of `rows` rows, made `piece` rows at a time by text(fmt, joiner, lo, hi).

    text returns rows lo..hi-1, each line joined to the next by `joiner`.  Turns of
    `turn` pieces alternate between this process and a forked worker.
    """

    rows: int
    piece: int
    turn: int
    text: Callable[[str, str, int, int], str]


def _row_text(row: dict, fmt: str) -> str:
    """One row keyed by REPORT_COLUMNS ("" is a blank cell): each cell converted on its own and
    joined once with the text between cells.  A `%` template filled the same way grows its
    buffer as each cell arrives, which costs more once a certificate's cells pass a megabyte."""
    kept = {k: v for k, v in row.items() if v.__class__ is not str or v}
    values = [*kept.values()]
    texts, order, converters, _ = _layout(tuple(kept), tuple(map(type, values)), fmt)
    parts = [texts[0]]
    for j, convert, text in zip(order, converters, texts[1:]):
        parts += (convert(values[j]), text)
    return "".join(parts)


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
            else:  # closing reaps the block's worker however this ends
                chunks = closing(_block_chunks(item, partial(item.text, fmt, joiner)))
            with chunks as texts:
                for text in texts:
                    stream.write(separator + text)
                    separator = joiner
    finally:
        if fmt == "json":
            stream.write("]\n" if separator == "\n" else "\n]\n")


_CHUNK_LINES = 1024  # lines of a lane block formatted and written at a time


def _lanes_block(lanes) -> Block:
    """Lanes (keys, columns), all columns of one length, as a Block of chunks of `_CHUNK_LINES`
    lines, one chunk a turn; row i of every lane is written in turn."""
    rows = min((len(columns[0]) for _, columns in lanes), default=0)
    return Block(rows, max(1, _CHUNK_LINES // len(lanes)), 1, partial(_chunk_text, lanes))


def _block_chunks(block: Block, text):
    """A block's pieces as texts, in order, from text(lo, hi) here or from a forked worker.

    A block of more than one turn forks a worker that makes the pieces of the
    odd-numbered turns and sends them back while this process makes those of the
    even-numbered ones.  A piece the worker did not deliver (it ended early, or no
    worker started) is made here, so the bytes never depend on it.  The worker is
    reaped when the generator ends or is closed.
    """
    pieces = [(lo, min(lo + block.piece, block.rows)) for lo in range(0, block.rows, block.piece)]
    worker = [k // block.turn % 2 == 1 for k in range(len(pieces))]  # in an odd-numbered turn
    pid = pipe = None
    try:
        if len(pieces) > block.turn:
            pid, pipe = _start_worker(text, [piece for piece, its in zip(pieces, worker) if its])
        for piece, its in zip(pieces, worker):
            # once the pipe has ended, every later read ends at once too
            received = _receive(pipe) if its and pipe is not None else None
            yield text(*piece) if received is None else received
    finally:
        if pid is not None:
            pipe.close()  # a worker still writing gets EPIPE and exits
            os.waitpid(pid, 0)


def _chunk_text(lanes, fmt: str, joiner: str, lo: int, hi: int) -> str:
    """Rows lo..hi-1 of every lane, interleaved row by row, as one text."""
    lines = zip(*(_lines(keys, [column[lo:hi] for column in columns], fmt) for keys, columns in lanes))
    return joiner.join(chain.from_iterable(lines))


_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _start_worker(text, bounds) -> tuple:
    """(pid, read end as a binary file) of a forked worker that sends text(lo, hi) for each
    (lo, hi) in `bounds`, each as an 8-byte length and the UTF-8 text; (None, None) if none starts."""
    if not hasattr(os, "fork"):
        return None, None
    reader, writer = os.pipe()
    with suppress(AttributeError, OSError):  # Linux: a 1 MiB pipe lets the worker run chunks ahead
        fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, 1 << 20)
    pid = done = None
    try:
        # numpy's thread pool makes this process multi-threaded, which Python 3.12+
        # warns about.  The pool serves BLAS calls, and no block's text makes one:
        # the worker runs cell printing, str joins, the certificates' int and Decimal
        # arithmetic, numpy's element-wise and indexing calls, and writes to the pipe
        # it opens itself, so it takes no lock another thread could hold.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            os.close(reader)
            with open(writer, "wb") as pipe:
                for lo, hi in bounds:
                    data = text(lo, hi).encode()
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            done = True
    except OSError:  # no fork; in the worker, a pipe the parent closed
        pass
    finally:
        if pid == 0:  # the worker never leaves this function, whatever it raised
            os._exit(0 if done else 1)
        os.close(writer)
    if pid is None:
        os.close(reader)
        return None, None
    return pid, open(reader, "rb")


def _receive(pipe) -> str | None:
    """The next text the worker sent, or None if the pipe ends before all of it."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    return body.decode() if len(head) == 8 and len(body) == size else None


def _estimator_lane(source: str, columns: core.EstimatorColumns) -> tuple:
    """A sweep's columns as a report lane whose rows name `source`."""
    return ("source", *columns._fields), (core.DerivedColumn(lambda _: source, columns.n), *columns)


# -- command executors -------------------------------------------------------


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            flag = "--X" if name == "x_upper" else f"--{name.replace('_', '-')}"
            raise UsageError(f"command {config.command!r} needs {flag}")


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
    ns, oracle = range(lo, hi + 1), table.prime_array[lo : hi + 1]
    violations = [f"n={n}: filter found {f}, oracle has {e}" for n, f, e in zip(ns, found, oracle) if f != e]
    columns = (["sieve_identity"] * len(ns), ns, table.prime_array[lo - 1 : hi], found)
    return [_lanes_block(((("source", "n", "p_n", "next_prime"), columns),))], violations


# Rows per turn of a certify block: at n = 2000 a worker's turn of 16 rows (about
# 0.4 MB) fits the 1 MiB pipe, so the worker is not held up writing it; turns of
# 64 rows (about 1.7 MB) were.  A piece is one row, not one turn, so a turn this
# process makes in the worker's place is written row by row: a violation raised at
# its fifth row leaves the four before it written, as one process leaves them.  A
# block of 16-row pieces, one a turn, would write none of them.
_CERTIFY_TURN = 16


def _run_certify(config: RunConfig, table: core.PrimeTable):
    """Certificate rows for n = 1..n_max as a Block of one row a piece.

    Each process sweeps the filter over every n and certifies the rows of its own
    turns.  A worker delivers a row only if making it raised nothing and broke no
    invariant; otherwise it ends, and this process makes that row and every later
    one, so the report, the violations and their order are those of one process.
    """
    _require(config, "n_max")
    _check_sweep(table, config.n_max, "--n-max")
    violations, owner = [], os.getpid()
    steps = sieve_identity.certificate_steps(config.n_max, table)

    def text(fmt: str, joiner: str, lo: int, hi: int) -> str:
        # the calls come in ascending rows, the steps between them skipped; row lo is n = hi
        certify = next(step for n, step in steps if n == hi)
        report, found = certify()
        if found and os.getpid() != owner:  # the worker ends; this process makes the row
            raise core.InvariantViolation(found[0])
        violations.extend(found)
        # each field of the certificate is a report column
        return _row_text(dict(vars(report), source="sieve_identity", p_n=table.nth(hi)), fmt)

    return [Block(config.n_max, 1, _CERTIFY_TURN, text)], violations


def _run_gandhi(config: RunConfig, table: core.PrimeTable):
    lo, hi = _ordinal_range(config)
    _check_reach(table, hi + 1, "the extracted prime's ordinal", 1)
    gandhi.check_feasible(hi, table, config.allow_large_gandhi)
    ns = range(lo, hi + 1)  # draws refused end the run before its report starts
    estimates = [gandhi.monte_carlo_survivor_fraction(n, config.samples, config.seed, table) for n in ns]
    violations = []

    def rows():
        for n, estimate in zip(ns, estimates):
            evaluation = gandhi.evaluate(n, table, allow_large=config.allow_large_gandhi)
            violations.extend(evaluation.violations())
            expected = table.nth(n + 1)
            if evaluation.extracted_prime != expected:
                violations.append(f"n={n}: extracted {evaluation.extracted_prime}, oracle has {expected}")
            # each field of the evaluation is a report column
            yield dict(vars(evaluation), source="gandhi", p_n=table.nth(n), next_prime=expected, mc_estimate=estimate)

    return rows(), violations


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


def run(config: RunConfig, stream=None) -> int:
    """Dispatch one configured command; returns the process exit code.

    Rows are written in ascending n as the command produces them (`certify`,
    `report` and `gandhi` stream them).  Invariants the rows break are printed after
    the full report, with exit 1.  An InvariantViolation raised while rows
    are produced ends the report early: the rows before it stay written, on
    `stream`, on stdout or in --out alike, its message follows those of the
    earlier rows, and the exit code is 1.
    """
    violations = []
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
    for violation in violations:
        print(f"invariant violation: {violation}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


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
