"""Outside-in tracing of feelsim's layers for the traced benchmark run.

Each entry of ``SPANS`` names a layer span and the module attribute through
which its caller reaches the layer's public function.  The wrapper goes on
that attribute (``feelsim.engine.local_train``, not
``feelsim.learning.local_train``), because the caller looks the name up in
its own module at call time.  Wrapping the hot calls from outside costs up
to about 12% of a unit, which is why end-to-end numbers come only from
untraced units.

A span's ``busy`` is its summed duration and its ``self`` is that minus the
time its direct child spans cover.  Spans are aggregated per unit in memory
rather than stored one by one: a ``pre_fleet`` unit makes several hundred
thousand of them.  A name that no longer exists is reported as absent, so a
refactor such as merging the two round functions does not break the
benchmark.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _count_eligible(tracer, args, result):
    tracer.counters["scheduler.offered"] += len(args[0])
    tracer.counters["scheduler.eligible"] += len(result)


def _count_aggregated(tracer, args, result):
    tracer.counters["learning.aggregated"] += len(args[0])


def _count_aborted(tracer, args, result):
    tracer.counters["engine.aborted_rounds"] += int(result.aborted)


def _count_flops(tracer, args, result):
    # two n x d x k matrix products (logits, weight gradient) at 2 flops per
    # multiply-add, plus about six elementwise passes over the n x k logits
    weights, features = args[0], args[1]
    n, d = features.shape
    k = weights.size // (d + 1)
    tracer.counters["learning.loss_and_grad.flop"] += 4 * n * d * k + 6 * n * k


# (span name, module the caller looks the name up in, attribute, observer)
SPANS = (
    ("cli.run_experiment", "feelsim.cli", "run_experiment", None),
    ("config_io.load_config", "feelsim.cli", "load_config", None),
    ("engine.run_simulation", "feelsim.cli", "run_simulation", None),
    ("engine.build_state", "feelsim.engine", "build_state", None),
    ("engine.round", "feelsim.engine", "run_round_pre", _count_aborted),
    ("engine.round", "feelsim.engine", "run_round_post", _count_aborted),
    ("datagen.make_classification_pool", "feelsim.engine", "make_classification_pool", None),
    ("datagen.partition", "feelsim.engine", "partition", None),
    ("datagen.make_fleet", "feelsim.engine", "make_fleet", None),
    ("diversity.dataset_index", "feelsim.engine", "dataset_diversity_index", None),
    ("diversity.model_index", "feelsim.engine", "model_diversity_index", None),
    ("diversity.outlier_ceiling", "feelsim.engine", "outlier_ceiling", None),
    ("network.resample_channel", "feelsim.engine", "resample_channel", None),
    ("seeding.substream", "feelsim.seeding", "substream", None),
    ("seeding.derive_seed", "feelsim.seeding", "derive_seed", None),
    ("scheduler.filter_eligible", "feelsim.engine", "filter_eligible", _count_eligible),
    ("scheduler.schedule", "feelsim.engine", "schedule_pre_training", None),
    ("scheduler.schedule", "feelsim.engine", "schedule_post_training", None),
    ("scheduler.schedule", "feelsim.engine", "schedule_random", None),
    ("scheduler.schedule", "feelsim.engine", "schedule_data_size_priority", None),
    ("scheduler.schedule", "feelsim.engine", "schedule_age_fair", None),
    ("network.allocate_bandwidth", "feelsim.scheduler", "allocate_bandwidth", None),
    ("network.expected_completion_time", "feelsim.scheduler", "expected_completion_time", None),
    ("learning.local_train", "feelsim.engine", "local_train", None),
    ("learning.loss_and_grad", "feelsim.learning", "loss_and_grad", _count_flops),
    ("learning.evaluate", "feelsim.engine", "evaluate", None),
    ("learning.aggregate", "feelsim.engine", "aggregate_fedavg", _count_aggregated),
    ("learning.aggregate", "feelsim.engine", "aggregate_loss_weighted", _count_aggregated),
)


class Tracer:
    """Installs the span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._installed = []

    def self_time(self, name: str) -> float:
        return self.busy[name] - self.child[name]

    def _wrap(self, name, fn, observe):
        calls, busy, child, stack = self.calls, self.busy, self.child, self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child[name] += stack.pop()
                calls[name] += 1
                busy[name] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return span

    def __enter__(self):
        for name, module_name, attr, observe in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, observe))
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)
        return False
