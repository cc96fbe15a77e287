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
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

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


# Integers up to this many bits print through str(): at most 617 digits, under
# the smallest digit limit CPython accepts (640).  Larger ones are split.
_STR_BITS = 2048

# Decimal(2 ** 2 ** k), keyed by k >= 11 and shared by every call.  Each entry
# is an exact constant, so a racing writer can only store the same value.
_DECIMAL_POW2: dict = {}


def _decimal_pow2(k: int):
    """Decimal 2^(2^k) for 2^k >= _STR_BITS, by repeated squaring; exact context only."""
    power = _DECIMAL_POW2.get(k)
    if power is None:
        if 1 << k == _STR_BITS:
            from decimal import Decimal

            power = Decimal(1 << _STR_BITS)
        else:
            half = _decimal_pow2(k - 1)
            power = half * half
        _DECIMAL_POW2[k] = power
    return power


def _to_decimal(value: int):
    """Exact Decimal of value >= 0, split at the largest 2^(2^k) below its top bit."""
    if value.bit_length() <= _STR_BITS:
        from decimal import Decimal

        return Decimal(value)
    k = (value.bit_length() - 1).bit_length() - 1
    high = value >> (1 << k)
    low = value - (high << (1 << k))
    return _to_decimal(high) * _decimal_pow2(k) + _to_decimal(low)


def _signed_decimal(value: int):
    """Exact Decimal of any int; call inside `_exact_decimals`."""
    return -_to_decimal(-value) if value < 0 else _to_decimal(value)


def _exact_decimals():
    """Context manager for `decimal` integer arithmetic that never rounds."""
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    exact.traps[decimal.Inexact] = True
    return decimal.localcontext(exact)


def _int_str(value: int) -> str:
    """Decimal digits of value, equal to str(value) without its digit limit.

    CPython before 3.12 converts ints to decimal in quadratic time (about
    0.4 s for 510k bits).  Larger integers are instead split by divide and
    conquer, as in CPython 3.12's Lib/_pylong.py, and recombined by
    `decimal`'s subquadratic multiplication in an exact context; str() of a
    Decimal ignores the int-to-str digit limit, so the process-wide limit
    is neither read nor changed.
    """
    if value.bit_length() <= _STR_BITS:
        return str(value)
    with _exact_decimals():
        return str(_signed_decimal(value))


def _fraction_str(value: Fraction) -> str:
    """"numerator/denominator" in decimal, under any int-to-str digit limit."""
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _fraction_strs(cells: list) -> list:
    """The cells of one row with each Fraction written as `_fraction_str` writes it.

    Fractions in a row often share a denominator D above _STR_BITS: a
    certificate's exact_sum and margin are (N + D)/D and N/D.  D is then
    converted once, and a numerator that differs from an earlier one over
    D by k*D is that one's Decimal plus k*D, so such a row needs two big
    conversions, not four.
    """
    shared = {}  # D -> (digits of D, Decimal D, [(numerator, its Decimal), ...])
    out = []
    with _exact_decimals():
        for cell in cells:
            if not isinstance(cell, Fraction):
                out.append(cell)
                continue
            numerator, denominator = cell.numerator, cell.denominator
            if denominator.bit_length() <= _STR_BITS:
                out.append(_fraction_str(cell))
                continue
            if denominator not in shared:
                decimal_denominator = _to_decimal(denominator)
                shared[denominator] = (str(decimal_denominator), decimal_denominator, [])
            digits, decimal_denominator, seen = shared[denominator]
            for earlier, decimal_earlier in seen:
                k, rest = divmod(numerator - earlier, denominator)
                if not rest:
                    decimal_numerator = decimal_earlier + _signed_decimal(k) * decimal_denominator
                    break
            else:
                decimal_numerator = _signed_decimal(numerator)
            seen.append((numerator, decimal_numerator))
            out.append(f"{decimal_numerator}/{digits}")
    return out


def _csv_cells(rows: list[dict], columns: list[str]):
    """Each row's cells in column order, absent columns blank.

    `csv` itself writes floats by repr() and other cells by str(); only a
    row carrying a Fraction is re-mapped, to "numerator/denominator".  JSON
    reads the same cells, with a blank as null.
    """
    blanks = [""] * len(columns)
    for row in rows:
        cells = [*map(row.get, columns, blanks)]
        if Fraction in map(type, cells):
            cells = _fraction_strs(cells)
        yield cells


def write_rows(rows: list[dict], fmt: str, stream) -> None:
    columns = REPORT_COLUMNS
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(columns)
        writer.writerows(_csv_cells(rows, columns))
    else:
        payload = [
            {c: None if cell == "" else cell for c, cell in zip(columns, cells)}
            for cells in _csv_cells(rows, columns)
        ]
        json.dump(payload, stream, indent=1)
        stream.write("\n")


def _estimator_row(source: str, record: core.EstimatorRecord) -> dict:
    return {
        "source": source,
        "n": record.n,
        "p_n": record.p_n,
        "estimate": record.estimate,
        "floored": record.floored,
        "residual": record.residual,
        "rel_error": record.rel_error,
    }


def _certificate_row(report: sieve_identity.CertificateReport, table: core.PrimeTable) -> dict:
    return {
        "source": "sieve_identity",
        "n": report.n,
        "p_n": table.nth(report.n),
        "next_prime": report.next_prime,
        "exact_sum": report.exact_sum,
        "exact_floor": report.exact_floor,
        "margin": report.margin,
        "float_sum": report.float_sum,
        "float_floor": report.float_floor,
        "float_margin": report.float_margin,
        "float_gap": report.float_gap,
    }


# -- command executors -------------------------------------------------------


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"command {config.command!r} needs --{name.replace('_', '-')}")


def _approx_limit(n: int) -> int:
    """A sieve limit at or above p_n: n (ln n + ln ln n) bounds p_n for n >= 6."""
    return int(n * (math.log(n) + math.log(max(math.log(n), 2.0)))) + 8


def _check_tabulated(table: core.PrimeTable, n: int, flag: str) -> None:
    """The command reads p_n; fail naming a sieve limit that tabulates it."""
    if n > len(table.primes):
        raise UsageError(
            f"{flag} {n} is beyond the {len(table.primes)} tabulated primes; "
            f"needs roughly --sieve-limit {_approx_limit(n)}"
        )


def _check_scan_range(table: core.PrimeTable, n_max: int) -> None:
    """The certificate scan reaches 2 p_n; fail naming the limit actually needed."""
    if n_max > len(table.primes):
        raise UsageError(
            f"n_max={n_max} is beyond the {len(table.primes)} tabulated primes; "
            f"needs roughly --sieve-limit {2 * _approx_limit(n_max)}"
        )
    required = 2 * table.nth(n_max)
    if required > table.limit:
        raise UsageError(
            f"n_max={n_max} scans up to {required}; needs --sieve-limit {required}"
        )


def _ordinal_range(config: RunConfig) -> tuple[int, int]:
    """[lo, hi] of a command run at the single --n or at every n up to --n-max."""
    if config.n is None and config.n_max is None:
        raise UsageError(f"command {config.command!r} needs --n or --n-max")
    return (config.n, config.n) if config.n_max is None else (1, config.n_max)


def _run_sieve_next(config: RunConfig, table: core.PrimeTable):
    lo, hi = _ordinal_range(config)
    _check_scan_range(table, hi)
    found = sieve_identity.next_prime_sweep(lo, hi, table)
    rows, violations = [], []
    for n, next_prime in zip(range(lo, hi + 1), found):
        expected = table.nth(n + 1)
        if next_prime != expected:
            violations.append(f"n={n}: filter found {next_prime}, oracle has {expected}")
        rows.append(
            {"source": "sieve_identity", "n": n, "p_n": table.nth(n), "next_prime": next_prime}
        )
    return rows, violations


def _certificates(n_max: int, table: core.PrimeTable):
    """Certificates for n = 1..n_max, each built once, and every exact invariant they break."""
    reports = sieve_identity.precision_probe(n_max, table)
    violations = []
    for report in reports:
        violations.extend(report.violations())
        expected = table.nth(report.n + 1)
        if report.next_prime != expected:
            violations.append(
                f"n={report.n}: certificate survivor {report.next_prime}, oracle {expected}"
            )
    return reports, violations


def _run_certify(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    _check_scan_range(table, config.n_max)
    reports, violations = _certificates(config.n_max, table)
    return [_certificate_row(report, table) for report in reports], violations


def _run_gandhi(config: RunConfig, table: core.PrimeTable):
    lo, hi = _ordinal_range(config)
    _check_tabulated(table, hi + 1, "the extracted prime's ordinal")
    rows, violations = [], []
    for n in range(lo, hi + 1):
        evaluation = gandhi.evaluate(n, table, allow_large=config.allow_large_gandhi)
        violations.extend(evaluation.violations())
        expected = table.nth(n + 1)
        if evaluation.extracted_prime != expected:
            violations.append(
                f"n={n}: extracted {evaluation.extracted_prime}, oracle has {expected}"
            )
        mc_estimate = gandhi.monte_carlo_survivor_fraction(n, config.samples, config.seed, table)
        rows.append(
            {
                "source": "gandhi",
                "n": n,
                "p_n": table.nth(n),
                "next_prime": expected,
                "probability": evaluation.probability,
                "half_excess": evaluation.half_excess,
                "extracted_prime": evaluation.extracted_prime,
                "scaled_remainder": evaluation.scaled_remainder,
                "subset_count": evaluation.subset_count,
                "mc_estimate": mc_estimate,
            }
        )
    return rows, violations


def _spectral_params(config: RunConfig) -> spectral.SpectralParams:
    return spectral.SpectralParams(calib_lo=config.calib_lo, calib_hi=config.calib_hi)


def _resolve_amplitude(config: RunConfig, table: core.PrimeTable) -> float:
    if config.alpha_override is not None:
        return config.alpha_override
    _check_tabulated(table, config.calib_hi, "--calib-hi")
    return spectral.calibrate_amplitude(_spectral_params(config), table)


def _run_spectral(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    if config.n_max < 3:
        raise UsageError("spectral sweep needs --n-max >= 3")
    _check_tabulated(table, config.n_max, "--n-max")
    amplitude = _resolve_amplitude(config, table)
    params = spectral.SpectralParams(
        amplitude=amplitude, calib_lo=config.calib_lo, calib_hi=config.calib_hi
    )
    records = spectral.spectral_sweep(3, config.n_max, params, table)
    return [_estimator_row("spectral", r) for r in records], []


def _run_survival(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    if config.n_max < 3:
        raise UsageError("survival sweep needs --n-max >= 3")
    _check_tabulated(table, config.n_max, "--n-max")
    rows = []
    for grown, capped in zip(
        survival.survival_sweep(3, config.n_max, table),
        survival.capacity_sweep(3, config.n_max, table),
    ):
        if grown.n != capped.n:
            raise core.InvariantViolation(f"survival row n={grown.n} meets capacity row n={capped.n}")
        rows += (_estimator_row("survival", grown), _estimator_row("capacity", capped))
    return rows, []


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


def precision_study(n_max: int, table: core.PrimeTable, amplitude: float) -> tuple[list[dict], dict]:
    """Per-n float-vs-exact study plus a summary block.

    Rows carry the exact margin (as an exact rational), its float shadow,
    the signed float gap, the float floor, the sign of the survival
    residual, and the spectral residual.  The summary reports the first n
    (if any) whose float floor broke, the anomaly count, the largest
    absolute float gap, and the exact invariants the certificates broke;
    it is emitted even when nothing deviated.
    """
    reports, violations = _certificates(n_max, table)
    spectral_params = spectral.SpectralParams(amplitude=amplitude)
    survival_records = {r.n: r for r in survival.survival_sweep(3, n_max, table)}
    spectral_records = {r.n: r for r in spectral.spectral_sweep(3, n_max, spectral_params, table)}
    rows = []
    for report in reports:
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
        survival_record = survival_records.get(report.n)
        if survival_record is not None:
            row["survival_sign"] = (survival_record.residual > 0) - (survival_record.residual < 0)
        spectral_record = spectral_records.get(report.n)
        if spectral_record is not None:
            row["residual"] = spectral_record.residual
        rows.append(row)
    anomalies = sieve_identity.float_anomalies(reports)
    floor_breaks = [r.n for r in reports if r.float_floor != 1]
    summary = {
        "first_float_floor_break": floor_breaks[0] if floor_breaks else "",
        "anomaly_count": len(anomalies),
        "max_abs_float_gap": max(abs(r.float_gap) for r in reports),
        "violations": violations,
    }
    return rows, summary


def _run_report(config: RunConfig, table: core.PrimeTable):
    _require(config, "n_max")
    _check_scan_range(table, config.n_max)
    amplitude = _resolve_amplitude(config, table)
    rows, summary = precision_study(config.n_max, table, amplitude)
    summary_row = {
        "source": "summary",
        "first_float_floor_break": summary["first_float_floor_break"],
        "anomaly_count": summary["anomaly_count"],
        "float_gap": summary["max_abs_float_gap"],
    }
    return rows + [summary_row], summary["violations"]


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

    Rows stream in ascending n; the report is written even when an exact
    invariant failed, but the exit code then flags the failure.
    """
    try:
        table = _table(config.sieve_limit)
        rows, violations = _EXECUTORS[config.command](config, table)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except core.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

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
            print(f"error: cannot write --out {config.out!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE

    if violations:
        for violation in violations:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


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
