"""Metrics registry: counters, gauges, and percentile histograms.

Replaces the ad-hoc counters scattered across the codebase (dispatcher
``decisions``/``migrations`` attributes, the retriever memo's ``cache_stats``,
monitor ``broadcasts``) with one named registry per system, so reports and
exporters can enumerate everything that was measured without knowing which
object owns which attribute.

Design constraints:

* **deterministic** — histograms never sample randomly; when a histogram
  exceeds its bound it decimates (keeps every other sample), which is
  reproducible run-to-run;
* **cheap when absent** — instrumented code takes ``registry: MetricsRegistry
  | None`` and guards with ``if registry is not None``, so the uninstrumented
  hot path pays one attribute test;
* **JSON-friendly** — :meth:`MetricsRegistry.to_dict` renders every metric
  with its type, used verbatim by the JSONL exporter and the observe report.
"""

from __future__ import annotations

import typing as t

from ..workload.metrics import percentile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def to_dict(self) -> dict[str, t.Any]:
        """JSON form: ``{"type": "counter", "value": ...}``."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A named value that can move both ways (e.g. queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (either sign)."""
        self.value += amount

    def to_dict(self) -> dict[str, t.Any]:
        """JSON form: ``{"type": "gauge", "value": ...}``."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Sample distribution with deterministic bounded memory.

    Keeps raw samples up to ``max_samples``; past the bound it decimates
    (drops every other retained sample and doubles its keep-stride), so
    memory stays bounded while count/sum/min/max remain exact and the
    percentiles are computed over an evenly thinned subset — deterministic,
    unlike a random reservoir.
    """

    __slots__ = (
        "name",
        "max_samples",
        "count",
        "total",
        "min",
        "max",
        "_samples",
        "_stride",
        "_skip",
    )

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._skip > 0:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self._samples.append(value)
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observed samples (exact)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) of the retained samples,
        by :func:`repro.workload.metrics.percentile`'s definition."""
        return percentile(self._samples, q)

    def to_dict(self) -> dict[str, t.Any]:
        """JSON form with count/sum/min/max/mean and p50/p95/p99."""
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


_Metric = t.Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics for one system (or one pipeline stack).

    ``counter``/``gauge``/``histogram`` get-or-create; requesting an
    existing name with a different type is an error — one name, one
    meaning.  Use the canonical names from
    :mod:`repro.observability.names`.

    When ``enabled`` is False the shorthand write paths (:meth:`inc`,
    :meth:`observe`) are single-branch no-ops — no registry lookup, no
    float conversion, no histogram bookkeeping — so uninstrumented
    simulation runs pay nothing for the metrics layer.  The read side
    and explicit ``counter()``/``gauge()`` handles keep working (they
    just see empty/zero metrics).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, _Metric] = {}

    def _get(self, name: str, cls: type) -> t.Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str, max_samples: int = 65536) -> Histogram:
        """Get or create the histogram ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, max_samples=max_samples)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested Histogram"
            )
        return metric

    # -- shorthand write paths -------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (no-op when disabled)."""
        if self.enabled:
            self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (no-op when disabled)."""
        if self.enabled:
            self.histogram(name).observe(value)

    # -- read side --------------------------------------------------------------
    def get(self, name: str) -> _Metric | None:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (histograms: their sum)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def to_dict(self) -> dict[str, dict[str, t.Any]]:
        """All metrics rendered to JSON-friendly dicts, keyed by name."""
        return {name: self._metrics[name].to_dict() for name in self.names()}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

