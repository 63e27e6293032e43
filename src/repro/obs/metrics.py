"""A small in-process metrics registry with Prometheus text exposition.

Three metric kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (pair updates,
  merges accepted, store hits, ...);
* :class:`Gauge` — last-observed values (current round, cache size);
* :class:`Histogram` — cumulative-bucket distributions (per-stage
  seconds).

The registry is deliberately dependency-free and lock-free: the matching
pipeline feeds it from one thread, so plain attribute updates are
sufficient and cost two dict lookups per event.

:meth:`MetricsRegistry.to_prometheus_text` renders the classic text
exposition format (``# HELP`` / ``# TYPE`` / samples) accepted by the
Prometheus ecosystem, node-exporter textfile collectors included.  HTTP
endpoints serving it must send :data:`PROMETHEUS_CONTENT_TYPE` — the
version parameter is how scrapers pick the text parser — and the
exposition itself always ends in a newline, which the format requires
of the final line.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterator

#: The Content-Type a ``/metrics`` endpoint must serve for the classic
#: text exposition format (``version=0.0.4``); without it, strict
#: scrapers refuse the payload as an unknown format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets: latency-shaped, seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, math.inf,
)


def _check_name(name: str) -> str:
    if not _NAME_PATTERN.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down; remembers the last set value."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A cumulative-bucket distribution (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the last
    bucket is always ``+Inf`` so ``bucket_counts[-1] == count``.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count")

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be sorted, got {bounds}")
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Asking twice for the same name returns the same object; asking for an
    existing name with a different kind raises, so instrumentation typos
    fail loudly instead of splitting a series.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """A JSON-safe snapshot (used by the run manifest)."""
        snapshot: dict[str, Any] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                snapshot[metric.name] = {
                    "kind": metric.kind,
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": {
                        _bucket_label(bound): count
                        for bound, count in zip(metric.buckets, metric.bucket_counts)
                    },
                }
            else:
                snapshot[metric.name] = {"kind": metric.kind, "value": metric.value}
        return snapshot

    def to_prometheus_text(self) -> str:
        """The classic Prometheus text exposition of every metric.

        The output is always newline-terminated — the format requires a
        line feed after the final sample, and scrapers reject a payload
        whose last line is torn — and ``# HELP`` text is escaped per the
        exposition rules (backslash and newline), so free-form help
        strings can never break the line-oriented parse.  Serve it with
        :data:`PROMETHEUS_CONTENT_TYPE`.
        """
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in zip(metric.buckets, metric.bucket_counts):
                    lines.append(
                        f'{metric.name}_bucket{{le="{_bucket_label(bound)}"}} {count}'
                    )
                lines.append(f"{metric.name}_sum {_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                lines.append(f"{metric.name} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _bucket_label(bound: float) -> str:
    return "+Inf" if bound == math.inf else format(bound, "g")


def _format_value(value: float) -> str:
    return format(value, "g")
