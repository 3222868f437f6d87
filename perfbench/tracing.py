"""Per-layer spans for the traced benchmark run.

The layers are lurwit's modules. Each public function is wrapped at the
module attribute where its callers look it up: a function bound into another
module by `from .x import y` is wrapped there too, under its home name. A
span records name, start, end and the index of its parent span; spans stay
in memory until the run ends. A function's self time is its span minus its
child spans.
"""

from __future__ import annotations

import functools
import gzip
import time
import weakref
from collections import Counter, defaultdict

from lurwit import cli, linalg, measurement, rng, states, witness

# span name -> (owner, attribute) pairs where callers look the function up
LAYER_FUNCTIONS = {
    "cli.main": [(cli, "main")],
    "cli.build_parser": [(cli, "build_parser")],
    "cli.simulate_counts": [(cli, "simulate_counts")],
    "states.DensityMatrix": [(states.DensityMatrix, "__post_init__")],
    "states.density_from_pure": [(states, "density_from_pure")],
    "states.haar_random_local_unitary": [(states, "haar_random_local_unitary")],
    "states.noise_mixture": [(states, "noise_mixture")],
    "states.parse_state_spec": [(states, "parse_state_spec")],
    "witness.evaluate": [(witness, "evaluate")],
    "witness.ppt_min_eigenvalue": [(witness, "ppt_min_eigenvalue")],
    "witness.standard_sets": [(witness, "standard_sets")],
    "witness.local_bound": [(witness, "local_bound")],
    "witness.expectation": [(witness, "expectation"), (measurement, "expectation")],
    "linalg.hermitian_eigenvalues": [(linalg, "hermitian_eigenvalues"), (witness, "hermitian_eigenvalues")],
    "measurement.outcome_distribution": [(measurement, "outcome_distribution")],
    "measurement.sample_counts": [(measurement, "sample_counts")],
    "measurement.estimate_witnesses": [(measurement, "estimate_witnesses")],
    "rng.stream": [(rng, "stream")],
}

# functions whose first argument is a state the workload actually uses
CONSUMERS = ("witness.evaluate", "witness.ppt_min_eigenvalue", "witness.expectation",
             "measurement.outcome_distribution")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # (name, start, end, parent index or -1)
        self.raised = Counter()
        self._open = []

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span while the tracer is active; `observe(args, result)` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent)
                self._open.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def self_times(self, scales):
        """Per name: (calls, self seconds); and the wall time of all item spans.

        `scales[k]` multiplies every time under the k-th item span, to put
        it at the reference speed (see speed.py).
        """
        durations = [end - start for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        item = [0] * len(self.spans)  # which item span each span runs under
        items = 0
        for i, ((_, _, _, parent), d) in enumerate(zip(self.spans, durations)):
            if parent >= 0:
                children[parent] += d
                item[i] = item[parent]
            else:
                item[i] = items
                items += 1
        calls = Counter()
        self_time = defaultdict(float)
        wall = 0.0
        for (name, _, _, parent), d, c, k in zip(self.spans, durations, children, item):
            if parent < 0:
                wall += d * scales[k]
            else:
                calls[name] += 1
                self_time[name] += (d - c) * scales[k]
        return calls, self_time, wall

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start and end in microseconds, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent}\n")


class LayerCounters:
    """Counts taken at the wrapped boundaries, for the ratios in `layer_metrics`."""

    def __init__(self):
        self.validated = weakref.WeakSet()  # states whose validation ran while tracing
        self.used = weakref.WeakSet()
        self.useful = 0  # validated states that reached a consumer
        self.distributions = set()  # distinct (state, basis) asked of outcome_distribution
        self.shots = 0

    def on_validated(self, args, result):
        self.validated.add(args[0])

    def on_consumed(self, args, result):
        rho = args[0]
        if rho in self.validated and rho not in self.used:
            self.used.add(rho)
            self.useful += 1

    def on_distribution(self, args, result):
        self.on_consumed(args, result)
        self.distributions.add((args[0].matrix.tobytes(), args[1]))

    def on_sample(self, args, result):
        self.shots += args[1]


def instrument(tracer: Tracer, counters: LayerCounters):
    """Wrap every layer function; returns a function that puts the originals back."""
    observers = {name: counters.on_consumed for name in CONSUMERS}
    observers["states.DensityMatrix"] = counters.on_validated
    observers["measurement.outcome_distribution"] = counters.on_distribution
    observers["measurement.sample_counts"] = counters.on_sample
    restore = []
    for name, sites in LAYER_FUNCTIONS.items():
        present = [(owner, attr) for owner, attr in sites if hasattr(owner, attr)]
        if not present:
            continue  # a function a later version removed reads as zero calls
        owner, attr = present[0]
        wrapped = tracer.wrap(name, getattr(owner, attr), observers.get(name))
        for owner, attr in present:
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer, counters: LayerCounters, run) -> dict:
    """Per-layer figures of the traced pass `run`, as {name: (value, unit)}."""
    calls, self_time, wall = tracer.self_times([s / d for s, d in zip(run.scaled, run.durations)])
    items = max(run.items, 1)  # every call may have failed
    metrics = {}
    for name in LAYER_FUNCTIONS:
        n = calls[name]
        metrics[f"{name}.calls"] = (n / items, "1/item")
        metrics[f"{name}.us_per_call"] = (self_time[name] / n * 1e6 if n else 0.0, "us")
        metrics[f"{name}.share"] = (self_time[name] / wall, "share")
        metrics[f"{name}.raised"] = (tracer.raised[name], "count")
    validations = calls["states.DensityMatrix"]
    distributions = calls["measurement.outcome_distribution"]
    metrics["cli.out_bytes"] = (run.out_bytes / items, "B/item")
    metrics["states.validations_per_state"] = (
        counters.useful / validations if validations else 0.0, "ratio")
    metrics["measurement.outcome_distribution.distinct_ratio"] = (
        len(counters.distributions) / distributions if distributions else 0.0, "ratio")
    metrics["measurement.sample_counts.shots_drawn"] = (counters.shots / items, "shots/item")
    return metrics
