"""Tests of the benchmark itself: its report check, its tracer, its speed sampler and its refusal to run bare.

    python -m pytest perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pace  # noqa: E402
import primeforms  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from primeforms import core, harness  # noqa: E402

SIEVE_NEXT = workloads.WORKLOADS["exact_small"][0]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The recorded `sieve-next --n-max 500` report, with its oracle primes."""
    path = tmp_path_factory.mktemp("report") / "sieve-next.csv"
    assert harness.main([*SIEVE_NEXT.argv, "--out", str(path)]) == 0
    primes = core.sieve(core.DEFAULT_SIEVE_LIMIT).primes[: workloads.ORACLE_PRIMES]
    return path.read_bytes(), primes


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_recorded_report_passes(report, tmp_path, seed):
    data, primes = report
    path = tmp_path / "report.csv"
    path.write_bytes(data)
    failures, stats = workloads.check_report(SIEVE_NEXT, path, primes, seed)
    assert failures == []
    assert stats.rows == SIEVE_NEXT.rows
    assert stats.output_bytes == len(data)


@pytest.mark.parametrize("where", [0.0, 0.37, 0.5, 0.999])
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_one_flipped_byte_fails_the_check(report, tmp_path, where, seed):
    data, primes = report
    flipped = bytearray(data)
    flipped[int(where * (len(data) - 1))] ^= 0x01
    path = tmp_path / "report.csv"
    path.write_bytes(bytes(flipped))
    failures, _ = workloads.check_report(SIEVE_NEXT, path, primes, seed)
    assert failures


def test_wrong_oracle_column_is_named(report, tmp_path):
    data, primes = report
    path = tmp_path / "report.csv"
    path.write_bytes(data.replace(b"sieve_identity,10,29,31", b"sieve_identity,10,29,37"))
    failures, _ = workloads.check_report(SIEVE_NEXT, path, primes, 7)
    assert any("n=10: next_prime 37, oracle 31" in f for f in failures)


def _attributes():
    owners = [core, core.PrimeTable, primeforms.sieve_identity, primeforms.gandhi]
    owners += [primeforms.spectral, primeforms.survival, harness]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_run_restores_every_attribute(tmp_path):
    before = _attributes()
    trace = tracer.Tracer(primeforms)
    trace.install()
    try:
        assert _attributes() != before
        trace.begin_run()
        for argv in (["certify", "--n-max", "5"], ["gandhi", "--n", "2", "--samples", "10000"]):
            assert harness.main([*argv, "--sieve-limit", "1000", "--out", str(tmp_path / "r.csv")]) == 0
    finally:
        trace.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = trace.layer_metrics()
    assert metrics["sieve_identity.harmonic_certificate_calls"] == 5
    assert metrics["gandhi.terms"] == 3
    assert metrics["harness.write_rows_s"] > 0


def test_benchmark_json_declares_every_traced_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    measured = set(tracer.Tracer(primeforms).layer_metrics())
    measured |= {"harness.rows", "harness.rational_digits", "harness.output_bytes", "trace_overhead_s", "run_wall_s"}
    assert declared == measured


def test_scaled_time_is_wall_time_at_the_sampled_speed():
    sampler = pace.Pace()
    half = 2 * pace.REFERENCE_NS  # a core running at half the reference speed
    sampler.samples = [(10.0, half), (10.5, half), (11.0, half), (13.0, half)]
    assert sampler.scaled(10.0, 13.0) == pytest.approx(1.5)
    assert sampler.scaled(10.5, 11.0) == pytest.approx(0.25)
    assert sampler.speed() == pytest.approx(0.5)


def test_one_slow_sample_does_not_decide_a_long_interval():
    sampler = pace.Pace()
    ref = pace.REFERENCE_NS
    sampler.samples = [(0.0, ref), (0.1, ref), (0.2, ref), (1.2, 10 * ref), (1.3, ref), (1.4, ref)]
    assert sampler.scaled(0.0, 1.4) == pytest.approx(1.4)


def test_sampler_samples_while_busy_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = pace.Pace(interval_s=0.005)
    start = sampler.start()
    try:
        while len(sampler.samples) < 4:
            pace.reference_ns()
        end = sampler.mark()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.scaled(start, end) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gandhi", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
