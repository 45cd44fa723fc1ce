"""The metrics half of the telemetry subsystem: named counters/gauges/histograms.

Before this module the repo's accounting was an ad-hoc scatter — a
``_conversions`` int on each backend, ``_pool_dispatches`` on the parallel
coordinator, plan-cache tallies on each evaluator — each with its own
reset method that had to be called on exactly the right object.
:class:`MetricsRegistry` promotes them into one namespace:

* **Counters** — monotonically increasing ints (``conversions.rows``,
  ``pool.dispatches``, ``plan.cache_hits``, ``ntt.invocations``).
  :meth:`MetricsRegistry.inc` walks the parent chain, so an evaluator's
  increments also land in its owning context's registry — the basis of
  the per-tenant accounting the ROADMAP's service direction needs.
* **Gauges** — zero-argument callables evaluated at snapshot time
  (``shm.bytes_in_use``, the per-shape ``ntt.engine_choices``).  A gauge
  reports current state; it is never reset.
* **Histograms** — summaries fed by :meth:`MetricsRegistry.observe`
  (the serving layer's per-stage latencies and batch occupancy).  Beyond
  ``{count, total, min, max}``, every histogram keeps **log-bucketed**
  sample counts (8 buckets per octave, so any estimate is within ~±4.5%
  of the true sample), which is what makes
  :meth:`MetricsRegistry.quantile` — and the ``p50``/``p90``/``p99``
  fields of every snapshot — possible without storing samples: a p99
  service latency costs O(buckets) memory however many requests flow
  through.

:meth:`HeContext.metrics() <repro.he.context.HeContext.metrics>` merges
the pinned backend's registry with the context's own into one flat
snapshot, and ``reset_metrics()`` clears both — including, via the
weak-ref child set, every evaluator registry the context handed out.
Counter mutation costs one dict update per chain link and no allocation,
so the registry is cheap enough to stay on even in benchmarks.
"""

from __future__ import annotations

import math
import weakref

__all__ = ["MetricsRegistry"]

#: Natural-log width of one histogram bucket: 8 buckets per octave keeps
#: any bucket-midpoint estimate within ~±4.5% of the true sample value.
_BUCKET_WIDTH = math.log(2.0) / 8.0

#: Bucket index reserved for non-positive samples (log-bucketing needs a
#: positive value; zero-duration timings land here and report as ``min``).
_ZERO_BUCKET = -(1 << 30)

#: The percentiles every snapshot reports for every histogram.
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def _bucket_of(value: float) -> int:
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.ceil(math.log(value) / _BUCKET_WIDTH)


def _quantile_from(hist: dict, q: float) -> float:
    """Estimate the ``q``-quantile from a histogram's log buckets.

    Walks buckets in value order until the target rank is covered and
    returns the geometric midpoint of the covering bucket, clamped into
    the exact ``[min, max]`` the histogram also tracks (so ``p50`` of a
    single sample is that sample, not a bucket edge).
    """
    target = q * hist["count"]
    seen = 0.0
    estimate = hist["max"]
    for index in sorted(hist["buckets"]):
        seen += hist["buckets"][index]
        if seen >= target:
            if index == _ZERO_BUCKET:
                estimate = hist["min"]
            else:
                estimate = math.exp((index - 0.5) * _BUCKET_WIDTH)
            break
    return min(max(estimate, hist["min"]), hist["max"])


class MetricsRegistry:
    """One namespace of counters, gauges and histograms.

    Args:
        parent: Optional registry that also receives every :meth:`inc` /
            :meth:`observe` recorded here (aggregation without double
            bookkeeping at call sites).  The parent tracks this registry
            through a weak reference so :meth:`reset` can cascade down
            without keeping dropped children alive.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, object] = {}
        self._hists: dict[str, dict] = {}
        self._parent = parent
        self._children: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()
        if parent is not None:
            parent._children.add(self)

    def adopt(self, child: "MetricsRegistry") -> None:
        """Re-parent an already-built registry under this one.

        Construction-time parenting covers components built *after* their
        aggregator; ``adopt`` covers the opposite order — a backend builds
        its own registry in ``__init__``, and a serving tenant later wants
        those counters flowing into its per-tenant aggregate.  Future
        :meth:`inc`/:meth:`observe` calls on ``child`` propagate here (and
        up this registry's own chain); :meth:`reset` cascades down.  A
        child already parented elsewhere is refused — silently re-wiring
        would drop counts from the first aggregator.
        """
        if child is self:
            raise ValueError("a registry cannot adopt itself")
        if child._parent is self:
            return
        if child._parent is not None:
            raise ValueError("registry already has a parent; cannot re-parent")
        child._parent = self
        self._children.add(child)

    # -- counters --------------------------------------------------------------
    def declare(self, *names: str) -> None:
        """Pre-register counters at zero so snapshots always carry them."""
        for name in names:
            self._counters.setdefault(name, 0)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add to a counter here and in every ancestor registry."""
        node: MetricsRegistry | None = self
        while node is not None:
            node._counters[name] = node._counters.get(name, 0) + amount
            node = node._parent

    def value(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        return self._counters.get(name, 0)

    def zero(self, name: str) -> None:
        """Reset one counter in **this** registry only — the compatibility
        shim for the old per-object ``reset_*_count`` methods, which never
        touched anyone else's tally either."""
        self._counters[name] = 0

    # -- gauges ----------------------------------------------------------------
    def set_gauge(self, name: str, fn) -> None:
        """Register a zero-argument callable evaluated at snapshot time."""
        self._gauges[name] = fn

    # -- histograms ------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram here and in every ancestor."""
        bucket = _bucket_of(value)
        node: MetricsRegistry | None = self
        while node is not None:
            hist = node._hists.get(name)
            if hist is None:
                node._hists[name] = {
                    "count": 1, "total": value, "min": value, "max": value,
                    "buckets": {bucket: 1},
                }
            else:
                hist["count"] += 1
                hist["total"] += value
                if value < hist["min"]:
                    hist["min"] = value
                if value > hist["max"]:
                    hist["max"] = value
                buckets = hist["buckets"]
                buckets[bucket] = buckets.get(bucket, 0) + 1
            node = node._parent

    def quantile(self, name: str, q: float) -> float | None:
        """Estimated ``q``-quantile of a histogram (``None`` if no samples).

        Bucket-midpoint estimation over the log buckets: exact for the
        extremes (``q`` of 0/1 hit the tracked min/max) and within ~±4.5%
        elsewhere — the precision the serving dashboards need from a p99
        without the memory of keeping samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % q)
        hist = self._hists.get(name)
        if hist is None or not hist["count"]:
            return None
        if q == 0.0:
            return hist["min"]
        if q == 1.0:
            return hist["max"]
        return _quantile_from(hist, q)

    def histogram(self, name: str) -> dict | None:
        """The snapshot-form summary of one histogram (``None`` if absent)."""
        hist = self._hists.get(name)
        if hist is None:
            return None
        return self._summarize(hist)

    @staticmethod
    def _summarize(hist: dict) -> dict:
        summary = {
            "count": hist["count"], "total": hist["total"],
            "min": hist["min"], "max": hist["max"],
        }
        for label, q in SNAPSHOT_QUANTILES:
            summary[label] = _quantile_from(hist, q)
        return summary

    # -- snapshot / reset ------------------------------------------------------
    def snapshot(self) -> dict:
        """One flat dict: counters, evaluated gauges, histogram summaries."""
        snap: dict = dict(self._counters)
        for name, hist in self._hists.items():
            snap[name] = self._summarize(hist)
        for name, fn in self._gauges.items():
            try:
                snap[name] = fn()
            except Exception:  # pragma: no cover - defensive (closed pools)
                snap[name] = None
        return snap

    def reset(self) -> None:
        """Zero every counter and drop every histogram, here and in every
        live child registry.  Gauges report live state and are untouched."""
        for name in self._counters:
            self._counters[name] = 0
        self._hists.clear()
        for child in list(self._children):
            child.reset()
