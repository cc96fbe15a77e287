"""One measured process: set up primeforms, then run CLI commands through the harness.

Run by `run.py`, one process per measurement, never two at once:

    python child.py '{"src": ..., "work": ..., "commands": [[...], ...], "trace": false}'

Set-up is importing `primeforms` and building the default sieve table; the
table is built through the public CLI (a one-row `brun` command) so that the
harness's own table cache is the one filled.  The commands then run with
`--out` files, so `run_s` ends when the last report is on disk.  Both
timings are rescaled to the reference CPU speed by `pace.Pace`, which
samples the core's speed throughout; the raw wall times are reported beside
them.  The last line of standard output is one JSON object with the
timings, exit codes and, for a traced process, the per-layer figures.  With
`"oracle": k` it also lists the first k primes of a fresh `core.sieve`
table, for checking reports.
"""

from pace import Pace

PACE = Pace()
START = PACE.start()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_command(harness, argv) -> int | None:
    """The command's exit code, or None when it escaped as an exception."""
    try:
        return harness.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import primeforms
    from primeforms import harness

    if not os.path.abspath(primeforms.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"imported primeforms from {primeforms.__file__}, not {spec['src']}", file=sys.stderr)
        return 1
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(primeforms)
        tracer.install()
    warm = os.path.join(spec["work"], "setup.csv")
    if run_command(harness, ["brun", "--X", "4", "--out", warm]) != 0:
        print("set-up command failed", file=sys.stderr)
        return 1
    setup_end = PACE.mark()
    result = {"setup_s": PACE.scaled(START, setup_end), "setup_wall_s": setup_end - START}

    if tracer is not None:
        tracer.begin_run()
    start = PACE.mark()
    result["exit_codes"] = [run_command(harness, argv) for argv in spec["commands"]]
    end = PACE.mark()
    PACE.stop()
    result["run_s"] = PACE.scaled(start, end)
    result["run_wall_s"] = end - start
    result["speed"] = PACE.speed()

    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["spans"])
    if spec.get("oracle"):
        import numpy

        table = primeforms.core.sieve(primeforms.core.DEFAULT_SIEVE_LIMIT)
        result["primes"] = table.primes[: spec["oracle"]]
        result["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "int_max_str_digits": sys.get_int_max_str_digits(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
