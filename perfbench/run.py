#!/usr/bin/env python3
"""Closed-loop benchmark of the primeforms CLI, one workload per invocation.

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0

Each measurement is a fresh child process (`child.py`) that imports
primeforms from `src/`, builds the default sieve table and runs the
workload's commands through `primeforms.harness`, one after another, writing
each report to a file.  Children run strictly one at a time, and the next
starts only after the previous one ended and its reports were checked (a
closed loop with one client).  A report that fails its check counts as a
failed command, and its timing is used only if no iteration succeeded.
Peak RSS comes from `os.wait4` on the child, so no workload inherits
another's high-water mark.

This process imports nothing heavy: a child's `ru_maxrss` starts from the
parent's high-water mark, so the parent must stay smaller than any child.

Times are rescaled to a fixed reference CPU speed (see `pace.py`), because
this host's core speed drifts more than any bound a wall time could keep;
the raw wall times are printed beside them.

With `--trace 0` the last line reports the end-to-end metrics, medians over
the run's processes; with `--trace 1` traced and untraced children alternate
and it reports the per-layer figures of the traced ones.  Progress and the
environment record go to the lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ORACLE_PRIMES, WORKLOADS, ReportStats, check_report, file_sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

MIN_SETUP_SAMPLES = 7  # set-up is timed in every child; top up with set-up-only children
WALL_LIMIT_S = 150.0  # start no child past this, so a run ends well inside 180 s


def spawn(spec: dict, deadline: float) -> tuple[dict | None, float]:
    """Run one child to completion; (its JSON result or None, its peak RSS in MB)."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # keep the interpreter's default digit limit
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result, usage.ru_maxrss / 1024.0


def environment(child_env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, **child_env, "git_revision": revision}


class ReportChecker:
    """Checks each command's report.

    The first report of a command that passes the full check is kept as the
    reference; later reports of the same run (same seed) must match its
    bytes, which the CLI promises and which decides them as surely as a
    second full check would.
    """

    def __init__(self, commands, primes: list[int], seed: int):
        self.commands, self.primes, self.seed = commands, primes, seed
        self.passed: dict[int, ReportStats] = {}

    def check(self, index: int, path: Path) -> tuple[list[str], ReportStats | None]:
        reference = self.passed.get(index)
        if reference is None:
            failures, stats = check_report(self.commands[index], path, self.primes, self.seed)
            if not failures:
                self.passed[index] = stats
            return failures, stats
        if file_sha256(path)[0] != reference.sha256:
            return ["report bytes differ from this run's first checked report"], None
        return [], reference


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[workload]
    reports = [WORK / f"{workload}-{i}.csv" for i in range(len(commands))]
    argvs = [
        [*command.argv, "--seed", str(seed), "--out", str(path)]
        for command, path in zip(commands, reports)
    ]
    hard_deadline = time.monotonic() + WALL_LIMIT_S

    def child(**spec) -> tuple[dict | None, float]:
        spec = {"src": str(SRC), "work": str(WORK), "trace": False, "commands": [], **spec}
        return spawn(spec, hard_deadline)

    probe, _ = child(oracle=ORACLE_PRIMES)
    if probe is None:
        raise SystemExit("error: the set-up process failed; is src/primeforms intact?")
    checker = ReportChecker(commands, probe.pop("primes"), seed)
    env = environment(probe.pop("env"))
    setups = [probe["setup_s"]]

    samples = {False: [], True: []}  # traced? -> iterations whose child produced a result
    attempted = failed = 0

    def iteration(traced: bool) -> None:
        nonlocal attempted, failed
        for path in reports:
            path.unlink(missing_ok=True)
        spans = WORK / f"spans-{workload}-{len(samples[True])}.jsonl"
        result, rss = child(commands=argvs, trace=traced, spans=str(spans))
        codes = result["exit_codes"] if result else [None] * len(commands)
        sizes = {"harness.rows": 0, "harness.rational_digits": 0, "harness.output_bytes": 0}
        bad = 0
        for index, (command, code) in enumerate(zip(commands, codes)):
            failures, stats = ([f"exit code {code}"], None) if code != 0 else checker.check(index, reports[index])
            for failure in failures:
                print(f"FAILED {' '.join(command.argv)}: {failure}", file=sys.stderr)
            bad += bool(failures)
            if stats is not None:
                sizes["harness.rows"] += stats.rows
                sizes["harness.rational_digits"] += stats.rational_digits
                sizes["harness.output_bytes"] += stats.output_bytes
        attempted += len(commands)
        failed += bad
        if result is None:
            print(f"# {workload} process crashed", file=sys.stderr)
            return
        print(
            f"# {workload} {'traced' if traced else 'untraced'}: run_s={result['run_s']:.4f} "
            f"(wall {result['run_wall_s']:.4f}) setup_s={result['setup_s']:.4f} "
            f"(wall {result['setup_wall_s']:.4f}) speed={result['speed']:.3f} peak_rss_mb={rss:.2f}",
            file=sys.stderr,
        )
        if not traced:
            setups.append(result["setup_s"])
        samples[traced].append({**result, **result.get("layers", {}), **sizes, "rss_mb": rss, "ok": not bad})

    rounds = []
    deadline = min(time.monotonic() + seconds, hard_deadline)
    while True:  # start another round only if one more is expected to end in time
        round_start = time.monotonic()
        for traced in (False, True) if trace else (False,):
            iteration(traced)
        rounds.append(time.monotonic() - round_start)
        if time.monotonic() + statistics.median(rounds) > deadline:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < hard_deadline:
        result, _ = child()
        if result is not None:
            setups.append(result["setup_s"])

    # A failed iteration's timing counts only when none succeeded; the result is then marked incorrect.
    plain, traced_samples = ([s for s in group if s["ok"]] or group for group in samples.values())
    if not plain or (trace and not traced_samples):
        raise SystemExit(f"error: every {workload} process crashed")
    if trace:
        metrics = {
            name: {"value": median_of(traced_samples, name), "unit": unit}
            for name, unit in layer_units().items()
            if name not in ("trace_overhead_s", "run_wall_s")
        }
        overhead = median_of(traced_samples, "run_s") - median_of(plain, "run_s")
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["run_wall_s"] = {"value": median_of(plain, "run_wall_s"), "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": median_of(plain, "run_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, "rss_mb"), "unit": "MB"},
        }
    env["parent_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# env " + json.dumps(env))
    print(
        f"# {workload}: {len(plain)} untraced and {len(traced_samples)} traced processes, "
        f"{len(setups)} set-up samples, run_wall_s={median_of(plain, 'run_wall_s'):.4f}, "
        f"failed_frac={failed / attempted:.4f} ({failed}/{attempted} commands)"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "primeforms" / "__init__.py").is_file():
        print(f"error: no primeforms package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed % (1 << 32), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
