"""Per-layer tracing from outside the package, by replacing module attributes.

The harness looks its collaborators up at call time (`sieve_identity.
harmonic_certificate`, `gandhi.evaluate`, `write_rows`, ...), and the
modules call each other through their module globals, so swapping those
attributes for timing wrappers traces every layer boundary without editing
a file under `src/`.  Spans (name, start, end, parent) stay in memory and
are written out when the traced process ends; per-element `PrimeTable`
lookups are only counted, because a span per call would cost more than the
lookup itself.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


def _timed_targets(primeforms):
    """(owner, attribute, span name) for every function a span is recorded around."""
    core, harness = primeforms.core, primeforms.harness
    sieve_identity, gandhi = primeforms.sieve_identity, primeforms.gandhi
    spectral, survival = primeforms.spectral, primeforms.survival
    return [
        (core, "sieve", "core.sieve"),
        (core.PrimeTable, "primorial_coprime", "core.primorial_coprime"),
        (sieve_identity, "harmonic_certificate", "sieve_identity.harmonic_certificate"),
        (sieve_identity, "next_prime_via_filter", "sieve_identity.next_prime_via_filter"),
        (gandhi, "evaluate", "gandhi.evaluate"),
        (gandhi, "survivor_probability", "gandhi.survivor_probability"),
        (gandhi, "extract_prime", "gandhi.extract_prime"),
        (gandhi, "monte_carlo_survivor_fraction", "gandhi.monte_carlo"),
        (spectral, "calibrate_amplitude", "spectral.calibrate_amplitude"),
        (spectral, "spectral_sweep", "spectral.spectral_sweep"),
        (survival, "survival_sweep", "survival.survival_sweep"),
        (survival, "capacity_sweep", "survival.capacity_sweep"),
        (harness, "run", "harness.run"),
        (harness, "write_rows", "harness.write_rows"),
    ]


def _counted_targets(primeforms):
    """(owner, attribute, counter name) for per-element lookups that are only counted."""
    core, sieve_identity = primeforms.core, primeforms.sieve_identity
    return [
        (core.PrimeTable, "factorize", "core.factorize_calls"),
        (core.PrimeTable, "moebius", "core.moebius_calls"),
        (core.PrimeTable, "totient", "core.totient_calls"),
        (core.PrimeTable, "moebius_values", "core.moebius_values_calls"),
        (sieve_identity, "coprime_indicator", "sieve_identity.coprime_indicator_calls"),
    ]


def _bits(fraction) -> int:
    return max(fraction.numerator.bit_length(), fraction.denominator.bit_length())


class Tracer:
    """Wraps the package's layer boundaries; `restore` puts every original back."""

    def __init__(self, primeforms):
        self._primeforms = primeforms
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._run_from = 0

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self):
        """Operand sizes read off the values a layer returns."""
        counts = self.counts

        def survivors(result):
            counts["sieve_identity.survivor_terms"] += len(result)

        def certificate(report):
            key = "sieve_identity.sum_bits_max"
            counts[key] = max(counts[key], _bits(report.exact_sum))

        def evaluation(result):
            counts["gandhi.terms"] += result.subset_count
            key = "gandhi.denominator_bits_max"
            counts[key] = max(counts[key], result.probability.denominator.bit_length())

        return {
            "core.primorial_coprime": survivors,
            "sieve_identity.harmonic_certificate": certificate,
            "gandhi.evaluate": evaluation,
        }

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        observers = self._observers()
        for owner, attr, name in _timed_targets(self._primeforms):
            self._swap(owner, attr, self._timed(vars(owner)[attr], name, observers.get(name)))
        for owner, attr, name in _counted_targets(self._primeforms):
            self._swap(owner, attr, self._counted(vars(owner)[attr], name))

    def _swap(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_run(self) -> None:
        """Mark the end of set-up: counters restart and later spans form the run."""
        self.counts.clear()
        self._run_from = len(self.spans)

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive and self seconds per span name, plus the counters.

        `core.sieve_s` covers set-up, where the table is built; every other
        figure covers only the commands run after `begin_run`.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            if index < self._run_from and name != "core.sieve":
                continue
            total[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
        metrics = {
            "core.sieve_s": total["core.sieve"],
            "core.primorial_coprime_s": total["core.primorial_coprime"],
            "sieve_identity.harmonic_certificate_s": total["sieve_identity.harmonic_certificate"],
            "sieve_identity.harmonic_certificate_calls": calls["sieve_identity.harmonic_certificate"],
            "sieve_identity.next_prime_via_filter_s": total["sieve_identity.next_prime_via_filter"],
            "gandhi.survivor_probability_s": total["gandhi.survivor_probability"],
            "gandhi.evaluate_self_s": own["gandhi.evaluate"],
            "gandhi.extract_prime_s": total["gandhi.extract_prime"],
            "gandhi.monte_carlo_s": total["gandhi.monte_carlo"],
            "spectral.calibrate_amplitude_s": total["spectral.calibrate_amplitude"],
            "spectral.spectral_sweep_s": total["spectral.spectral_sweep"],
            "survival.survival_sweep_s": total["survival.survival_sweep"],
            "survival.capacity_sweep_s": total["survival.capacity_sweep"],
            "harness.write_rows_s": total["harness.write_rows"],
            "harness.run_self_s": own["harness.run"],
        }
        counted = [name for _, _, name in _counted_targets(self._primeforms)]
        observed = [
            "sieve_identity.survivor_terms",
            "sieve_identity.sum_bits_max",
            "gandhi.terms",
            "gandhi.denominator_bits_max",
        ]
        metrics.update({name: self.counts[name] for name in counted + observed})
        return metrics
