"""The benchmark's workloads and the checks every report they write must pass.

A report passes when its command exited 0, it has the expected number of
rows, its oracle columns agree with a `core.sieve` prime list, and its
digests match the ones recorded from the reference implementation.  A wrong
report is a failed command, never a fast one.
"""

from __future__ import annotations

import csv
import hashlib
import sys
from dataclasses import dataclass

# The CLI's default --seed.  Raw report bytes were recorded at this seed; the
# row digest, which blanks the seeded columns, holds for every seed.
DEFAULT_SEED = 42

# Primes the oracle must supply: p_n for every row n, p_{n+1} for next_prime.
ORACLE_PRIMES = 100_001

# Columns the oracle check reads; a report missing one fails as unreadable.
ORACLE_COLUMNS = ("n", "p_n", "next_prime", "extracted_prime", "exact_floor")

# Gandhi rationals run to ~150k digits per cell, past csv's default limit.
csv.field_size_limit(sys.maxsize)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its report must look like."""

    argv: tuple[str, ...]
    rows: int  # data rows after the header
    sha256: str  # digest of the report bytes at DEFAULT_SEED
    rows_sha256: str  # digest of the parsed rows with `seeded` columns blanked
    seeded: tuple[str, ...] = ()  # columns whose values depend on --seed


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "certify_large": (
        Command(
            ("certify", "--n-max", "2000"),
            rows=2000,
            sha256="4fb786910de1e0528099e5193d23beb34dc0a105af0b0858a1dfca38896a6259",
            rows_sha256="82a783c0793507604218f3111bf3523b7647c83eb1e9d89d7cb8b25998ae0ec7",
        ),
    ),
    "exact_small": (
        Command(
            ("sieve-next", "--n-max", "500"),
            rows=500,
            sha256="b82d787f0cb3c0c61a223db7955791cffb1649798a65aea9531c4b8a38462122",
            rows_sha256="fb0383e9faeb3a1aa84aefef46763f5e684252e666e30a2b04cb350c2ce2c937",
        ),
        Command(
            ("report", "--n-max", "500"),
            rows=501,  # one precision row per n plus the summary row
            sha256="bd1bd99c83423445aff74843ea462ace1960255e011719d22bb656164d4a1e67",
            rows_sha256="399ce1e797fcd9cc4cf19c970dd31d1ee7d9ef0f9e9649235065b381386e5a75",
        ),
    ),
    "gandhi": (
        Command(
            ("gandhi", "--n-max", "7"),
            rows=7,
            sha256="9b6089f64db5e1a0816681b15b0d8483c16c93169f0537da55a2f412f2ca1b40",
            rows_sha256="11487ad6cb1b8a8006417540acb749dd03993288360f998b5e946520010ca058",
            seeded=("mc_estimate",),
        ),
    ),
    "estimators": (
        Command(
            ("spectral", "--n-max", "10000"),
            rows=9998,  # n = 3 .. 10000
            sha256="4f40f7e4bb2ad6ea6e5641796b68153112229c2c4be55c9c63907a490af30366",
            rows_sha256="deb116f8108edbf7e807251f1b17411c9a2fafd563a8b7ecf8877f9ed07aea05",
        ),
        Command(
            ("survival", "--n-max", "100000"),
            rows=199996,  # a survival and a capacity row for each n = 3 .. 100000
            sha256="a5e334f5c95e1a614409f315bb3afc0f4e6a84ae81dacfa0828121c525c1c02c",
            rows_sha256="bbfa1815e9fbd2765fef95f78cfb538d34088aecea3d8449a5c753b899fec653",
        ),
    ),
}


@dataclass
class ReportStats:
    sha256: str = ""
    rows: int = 0
    rational_digits: int = 0  # decimal digits written for numerator/denominator cells
    output_bytes: int = 0


def file_sha256(path) -> tuple[str, int]:
    """Hex digest and size of a file, read in 1 MiB chunks."""
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _oracle_failure(cells: list[str], at: dict[str, int], primes: list[int]) -> str | None:
    """Cross-check the columns an oracle prime list can decide; None when they hold.

    `at` maps the checked column names present in the header to their index.
    """
    n, p_n = cells[at["n"]], cells[at["p_n"]]
    if not n or not p_n:
        return None  # e.g. the report's trailing summary row
    n = int(n)
    if int(p_n) != primes[n - 1]:
        return f"n={n}: p_n {p_n}, oracle {primes[n - 1]}"
    for column in ("next_prime", "extracted_prime"):
        value = cells[at[column]]
        if value and int(value) != primes[n]:
            return f"n={n}: {column} {value}, oracle {primes[n]}"
    floor = cells[at["exact_floor"]]
    if floor and floor != "1":
        return f"n={n}: exact_floor {floor}, expected 1"
    return None


def check_report(command: Command, path, primes: list[int], seed: int) -> tuple[list[str], ReportStats]:
    """Failures found in one report (empty when it is correct) and its size figures.

    Only the first failing row is described, so a broken 200k-row report
    costs no more memory than a correct one.
    """
    stats = ReportStats()
    stats.sha256, stats.output_bytes = file_sha256(path)
    failures = []
    if seed == DEFAULT_SEED and stats.sha256 != command.sha256:
        failures.append(f"report sha256 {stats.sha256} differs from the recorded {command.sha256}")
    rows_digest = hashlib.sha256()
    bad_rows, first_bad = 0, None
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows_digest.update("\x1f".join(header).encode() + b"\n")
            blank = [header.index(c) for c in command.seeded if c in header]
            at = {c: header.index(c) for c in ORACLE_COLUMNS}  # ValueError if one is missing
            for cells in reader:
                stats.rows += 1
                stats.rational_digits += sum(len(c) - 1 - c.startswith("-") for c in cells if "/" in c)
                if len(cells) != len(header):
                    failure = f"row {stats.rows}: {len(cells)} cells under a {len(header)}-column header"
                else:
                    failure = _oracle_failure(cells, at, primes)
                if failure:
                    bad_rows += 1
                    first_bad = first_bad or failure
                for i in blank:
                    cells[i] = ""
                rows_digest.update("\x1f".join(cells).encode() + b"\n")
    except (ValueError, IndexError, csv.Error) as exc:  # undecodable bytes or cells
        failures.append(f"unreadable report: {exc}")
    if bad_rows:
        failures.append(f"{bad_rows} rows fail the oracle check, first: {first_bad}")
    if stats.rows != command.rows:
        failures.append(f"{stats.rows} rows, expected {command.rows}")
    if rows_digest.hexdigest() != command.rows_sha256:
        failures.append(f"row digest {rows_digest.hexdigest()} differs from the recorded {command.rows_sha256}")
    return failures, stats
