#!/usr/bin/env python3
"""Residual profile of the three phenomenological estimators.

Sweeps spectral (calibrated and zero-amplitude), survival, and capacity
estimates against the sieve oracle and prints per-decade mean |relative
error| plus the sign balance of the survival residual (the pre-asymptotic
drift the precision discussion cares about).  Optionally dumps every
record to CSV.

Usage:
    python scripts/estimator_residuals.py --n-max 10000 --out residuals.csv
"""

import argparse
import math
import sys

from primeforms.core import DEFAULT_SIEVE_LIMIT, sieve
from primeforms.harness import RunConfig, _estimator_lane, _lanes_block, write_rows
from primeforms.spectral import calibrate_amplitude, spectral_sweep
from primeforms.survival import capacity_sweep, survival_sweep


def decade_stats(columns):
    buckets = {}
    for n, rel_error in zip(columns.n, columns.rel_error[:]):
        decade = 10 ** int(math.log10(n))
        buckets.setdefault(decade, []).append(abs(rel_error))
    return {d: sum(v) / len(v) for d, v in sorted(buckets.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10_000)
    parser.add_argument("--n-min", type=int, default=10)
    parser.add_argument("--sieve-limit", type=int, default=DEFAULT_SIEVE_LIMIT)
    parser.add_argument("--out", default=None, help="optional CSV dump of every record")
    args = parser.parse_args(argv)
    if args.n_min < 3:
        parser.error(f"--n-min must be at least 3, where the sweeps start, not {args.n_min}")

    table = sieve(args.sieve_limit)
    # the CLI's default calibration window
    amplitude = calibrate_amplitude(RunConfig.calib_lo, RunConfig.calib_hi, table)
    print(f"calibrated spectral amplitude: {amplitude:.6f}")

    sweeps = {
        "spectral(calibrated)": spectral_sweep(args.n_min, args.n_max, amplitude, table),
        "spectral(alpha=0)": spectral_sweep(args.n_min, args.n_max, 0.0, table),
        "survival": survival_sweep(args.n_min, args.n_max, table),
        "capacity": capacity_sweep(args.n_min, args.n_max, table),
    }

    for name, columns in sweeps.items():
        stats = decade_stats(columns)
        line = "  ".join(f"1e{int(math.log10(d))}: {v:.4f}" for d, v in stats.items())
        print(f"{name:22s} mean|rel err| by decade  {line}")

    survival_residuals = sweeps["survival"].residual[:]
    under = sum(1 for r in survival_residuals if r > 0)
    over = sum(1 for r in survival_residuals if r < 0)
    print(f"survival residual sign: {under} underestimates, {over} overestimates")

    if args.out:
        source_names = {
            "spectral(calibrated)": "spectral",
            "spectral(alpha=0)": "spectral_alpha0",
            "survival": "survival",
            "capacity": "capacity",
        }
        # every sweep covers the same n, so one block of lanes in source order sorts by (n, source)
        names = sorted(sweeps, key=source_names.get)
        lanes = tuple(_estimator_lane(source_names[name], sweeps[name]) for name in names)
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_rows([_lanes_block(lanes)], "csv", handle)
        print(f"wrote {sum(len(columns.n) for columns in sweeps.values())} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
