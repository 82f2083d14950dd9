"""Metrics registry: counters, gauges, and percentile histograms.

Replaces the ad-hoc counters scattered across the codebase (dispatcher
``decisions``/``migrations`` attributes, retriever ``cache_stats`` dicts,
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
  with its type, used verbatim by the JSONL exporter and the observe report;
* **mergeable** — every metric serializes its *full* state
  (:meth:`MetricsRegistry.snapshot`) and folds back into another registry
  (:meth:`MetricsRegistry.merge_snapshot`): counters sum, gauges keep
  labeled per-source values, and decimation histograms merge
  deterministically (the merged retained-sample set is a pure function of
  the two input states).  This is how serving workers ship their per-process
  registries to the server, which exposes one aggregated view.
"""

from __future__ import annotations

import typing as t

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "gauge_label",
    "merge_snapshots",
]


def gauge_label(name: str, label: str) -> str:
    """The registry key a labeled (per-source) gauge merges under."""
    return f"{name}{{{label}}}"


def _nearest_rank(ordered: t.Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of pre-sorted samples (0 when empty).

    The one definition: :meth:`Histogram.percentile` and the SLO monitor's
    rolling window (``repro.serving.slo``) both judge with it.
    """
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


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
        """The ``q``-quantile (``q`` in [0, 1]) of the retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return _nearest_rank(sorted(self._samples), q)

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

    def state_dict(self) -> dict[str, t.Any]:
        """Full serializable state — enough to merge, unlike :meth:`to_dict`.

        ``min``/``max`` serialize as None when empty (``inf`` is not valid
        strict JSON).
        """
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "samples": list(self._samples),
            "stride": self._stride,
            "max_samples": self.max_samples,
        }

    def merge_state(self, state: dict[str, t.Any]) -> None:
        """Fold another histogram's :meth:`state_dict` into this one.

        Exact aggregates (count/sum/min/max) add exactly.  Retained samples
        merge at the coarser of the two strides: the finer-stride side is
        thinned by ``target_stride // stride`` (same rule decimation itself
        uses), then the lists concatenate — in (self, other) order — and
        decimate until under bound.  Deterministic: the merged sample set is
        a pure function of the two input states.
        """
        if state.get("type") != "histogram":
            raise ValueError(f"cannot merge {state.get('type')!r} into histogram")
        other_count = int(state["count"])
        self.count += other_count
        self.total += float(state["sum"])
        if other_count:
            if state["min"] is not None and state["min"] < self.min:
                self.min = float(state["min"])
            if state["max"] is not None and state["max"] > self.max:
                self.max = float(state["max"])
        other_samples = [float(v) for v in state["samples"]]
        other_stride = int(state.get("stride", 1))
        target = max(self._stride, other_stride)
        mine = self._samples[:: target // self._stride]
        theirs = other_samples[:: target // other_stride]
        merged = mine + theirs
        while len(merged) >= self.max_samples:
            merged = merged[::2]
            target *= 2
        self._samples = merged
        self._stride = target
        # Conservative: restart stride-skipping at the new stride so the
        # next observe() lands on a retained slot.
        self._skip = 0


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

    # -- snapshot / merge --------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        """Full mergeable state of every metric, keyed by name.

        Counters/gauges serialize via :meth:`to_dict` (their value *is*
        their state); histograms via :meth:`Histogram.state_dict` so the
        retained-sample set travels too.  The result is picklable and
        strict-JSON-serializable — it is what workers ship to the server.
        """
        out: dict[str, dict[str, t.Any]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.state_dict()
            else:
                out[name] = metric.to_dict()
        return out

    def merge_snapshot(
        self,
        snap: dict[str, dict[str, t.Any]],
        label: str | None = None,
    ) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters sum.  Histograms merge deterministically
        (:meth:`Histogram.merge_state`).  Gauges are point-in-time values
        that cannot meaningfully sum across sources, so with ``label`` set
        (e.g. ``"worker=3"``) each gauge lands under its labeled name via
        :func:`gauge_label`, keeping per-source values distinguishable;
        without a label a gauge overwrites (last write wins).
        """
        for name in sorted(snap):
            state = snap[name]
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).inc(float(state["value"]))
            elif kind == "gauge":
                key = gauge_label(name, label) if label else name
                self.gauge(key).set(float(state["value"]))
            elif kind == "histogram":
                self.histogram(
                    name, max_samples=int(state.get("max_samples", 65536))
                ).merge_state(state)
            else:
                raise ValueError(f"metric {name!r}: unknown type {kind!r}")

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def merge_snapshots(
    snapshots: t.Mapping[str, dict[str, dict[str, t.Any]]],
    base: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Aggregate labeled snapshots into one registry.

    ``snapshots`` maps a source label (e.g. ``"worker=3"``) to that source's
    :meth:`MetricsRegistry.snapshot`.  Sources merge in sorted-label order so
    the aggregate is deterministic regardless of arrival order.
    """
    agg = base if base is not None else MetricsRegistry()
    for label in sorted(snapshots):
        agg.merge_snapshot(snapshots[label], label=label)
    return agg
