"""Process-wide metrics registry of labeled counters.

The program registers eight counters (``KEPT_METRICS`` in
``tests/test_obs.py``).  ``Gauge`` and ``Histogram`` remain only because
``perfbench/layers.py`` names ``MetricsRegistry.gauge/histogram``.

The registry is the quantitative half of :mod:`repro.obs`: while the
tracer answers *where did the time go*, the registry answers *how often*
-- optimizer invocations by statement kind, what-if and analyze cache
hits, statements quarantined at intake.

Metrics are identified by name and free-form labels.  Hot paths hold a
:class:`BoundMetric` (``_CALLS = BoundMetric("counter", "optimizer.calls",
kind="select")``): it resolves the labeled child at its first event in
each registry, so an event costs one identity check
plus one lock + one float add, and never counts into a swapped-out
registry.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Any, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BoundMetric",
    "get_registry",
    "set_registry",
]

LabelKey = tuple[tuple[str, str], ...]

#: Raw observations retained per histogram child for percentile math.
#: Below the cap every observation is kept and quantiles are exact; past
#: it the child switches to reservoir sampling (Algorithm R) with an RNG
#: seeded from the metric name + label key, so memory stays bounded,
#: count/sum/min/max remain exact, and a given observation sequence
#: always retains the same sample set (deterministic across runs).
HISTOGRAM_SAMPLE_CAP = 4096


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Common name/label plumbing for the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: dict[LabelKey, Any] = {}

    def labels(self, **labels: Any):
        """Get-or-create the child bound to one label set."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(key)
                    self._children[key] = child
        return child

    def _make_child(self, key: LabelKey):   # pragma: no cover - overridden
        raise NotImplementedError

    def _child_seed(self, key: LabelKey) -> int:
        """Deterministic per-child RNG seed (metric name + label key)."""
        return zlib.crc32(f"{self.name}|{_label_str(key)}".encode())

    def children(self) -> dict[LabelKey, Any]:
        with self._lock:
            return dict(self._children)

    def reset(self) -> None:
        """Zero all children *in place* (bound children stay valid)."""
        for child in self.children().values():
            child.reset()


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Counter(_Metric):
    """Monotonically increasing count (events, calls, rows)."""

    kind = "counter"

    def _make_child(self, key: LabelKey) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).value

    def snapshot(self) -> dict[str, float]:
        # Zero children (bound but never hit, or freshly reset) are noise.
        return {
            _label_str(key): child.value
            for key, child in sorted(self.children().items())
            if child.value
        }


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Gauge(_Metric):
    """Point-in-time value (queue depth, configured budget, cache size)."""

    kind = "gauge"

    def _make_child(self, key: LabelKey) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).value

    def snapshot(self) -> dict[str, float]:
        return {
            _label_str(key): child.value
            for key, child in sorted(self.children().items())
        }


class _HistogramChild:
    __slots__ = ("_lock", "count", "sum", "min", "max", "_samples", "_rng", "_seed")

    def __init__(self, seed: int = 0):
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: list[float] = []
        self._seed = seed
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._reserve(value)

    def _reserve(self, value: float) -> None:
        """Retain *value* with probability cap/count (Algorithm R).

        Below ``HISTOGRAM_SAMPLE_CAP`` every observation is kept (exact
        quantiles); past it each new observation replaces a random
        retained one with probability cap/count, giving a uniform sample
        of the whole stream under bounded memory.  The RNG is seeded per
        child, so retention is deterministic for a given observation
        sequence.
        """
        if len(self._samples) < HISTOGRAM_SAMPLE_CAP:
            self._samples.append(value)
            return
        j = self._rng.randrange(self.count)
        if j < HISTOGRAM_SAMPLE_CAP:
            self._samples[j] = value

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile over the retained samples."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        rank = (p / 100.0) * (len(samples) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(samples) - 1)
        frac = rank - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None
            self._samples = []
            self._rng = random.Random(self._seed)


class Histogram(_Metric):
    """Distribution with p50/p95/p99 summaries (timings, plan costs)."""

    kind = "histogram"

    def _make_child(self, key: LabelKey) -> _HistogramChild:
        return _HistogramChild(self._child_seed(key))

    def observe(self, value: float, **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def summary(self, **labels: Any) -> dict[str, float]:
        return self.labels(**labels).summary()

    def snapshot(self) -> dict[str, dict]:
        return {
            _label_str(key): child.summary()
            for key, child in sorted(self.children().items())
            if child.count
        }


class MetricsRegistry:
    """Get-or-create home for all metrics of a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def metrics(self) -> dict[str, _Metric]:
        with self._lock:
            return dict(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready dump of every metric, grouped by kind."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in sorted(self.metrics().items()):
            data = metric.snapshot()
            if not data:
                continue
            out[metric.kind + "s"][name] = data
        return out

    def reset(self) -> None:
        """Zero every metric in place (module-bound children stay valid)."""
        for metric in self.metrics().values():
            metric.reset()


# -- process-wide registry ---------------------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry library code records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry.

    Every :class:`BoundMetric` re-binds to *registry* on its next event,
    so library metrics count into the new registry from the swap on.
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous


class BoundMetric:
    """A labeled metric child, bound once per registry (the hot-path handle).

    ``BoundMetric("counter", "whatif.cache_hits", "help")`` registers the
    metric in the current registry and binds its child for *labels* at its
    first event, not at import.  Each event checks that the process
    registry is still the bound one and re-binds after a
    :func:`set_registry` swap, so the handle never counts into a stale
    registry and pays a registry lock and a label sort only once per
    registry.
    """

    __slots__ = ("_kind", "_name", "_help", "_labels", "_bound")

    def __init__(self, kind: str, name: str, help: str = "", /, **labels: Any):
        self._kind = kind
        self._name = name
        self._help = help
        self._labels = labels
        self._bound: tuple[Optional[MetricsRegistry], Any] = (None, None)

    def child(self):
        """The child in the current process registry."""
        registry, child = self._bound
        if registry is not _registry:
            registry = _registry
            metric = getattr(registry, self._kind)(self._name, self._help)
            child = metric.labels(**self._labels)
            self._bound = (registry, child)
        return child

    def inc(self, amount: float = 1.0) -> None:
        self.child().inc(amount)
