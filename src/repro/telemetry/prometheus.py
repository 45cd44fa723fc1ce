"""Prometheus text exposition for :class:`~repro.telemetry.metrics.MetricsRegistry`.

The JSON snapshot on ``GET /v1/metrics`` is for humans and tests; fleet
monitoring wants the `Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so a
scraper can poll the server directly.  :func:`render_registries` converts
the server's root registry plus its per-tenant children into one exposition
document:

* **counters** become ``repro_<name>_total`` samples (dots and other
  non-metric characters collapse to ``_``);
* **gauges** are evaluated at render time; only numeric gauges are
  exported (structured gauges like the per-shape engine-choice tables
  have no Prometheus representation and stay JSON-only);
* **histograms** become *summaries*: ``{quantile="0.5|0.9|0.99"}``
  samples estimated from the registry's log buckets plus the exact
  ``_sum`` / ``_count`` pair.

Per-tenant registries emit the same metric names with a
``{tenant="<params-hash>"}`` label, so fleet totals (the unlabelled root
series) and per-tenant breakdowns coexist under one metric family.
"""

from __future__ import annotations

from .metrics import SNAPSHOT_QUANTILES, MetricsRegistry

__all__ = ["CONTENT_TYPE", "render_registries"]

#: The content type Prometheus scrapers expect (text format 0.0.4).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _metric_name(name: str, suffix: str = "") -> str:
    safe = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return "repro_" + safe + suffix


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    escaped = [
        '%s="%s"'
        % (key, value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for key, value in sorted(labels.items())
    ]
    return "{%s}" % ",".join(escaped)


def _value_str(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return "%d" % value
    return repr(float(value))


class _Family:
    """One metric family: the TYPE declaration plus its samples in order."""

    __slots__ = ("kind", "samples")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[tuple[str, dict, object]] = []


def _collect(
    families: "dict[str, _Family]", registry: MetricsRegistry, labels: dict
) -> None:
    for name, value in sorted(registry._counters.items()):
        family = families.setdefault(_metric_name(name, "_total"), _Family("counter"))
        family.samples.append(("", labels, value))
    for name, fn in sorted(registry._gauges.items()):
        try:
            value = fn()
        except Exception:  # pragma: no cover - defensive (closed pools)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        family = families.setdefault(_metric_name(name), _Family("gauge"))
        family.samples.append(("", labels, value))
    for name, hist in sorted(registry._hists.items()):
        family = families.setdefault(_metric_name(name), _Family("summary"))
        summary = registry._summarize(hist)
        for label, q in SNAPSHOT_QUANTILES:
            family.samples.append(
                ("", dict(labels, quantile=str(q)), summary[label])
            )
        family.samples.append(("_sum", labels, hist["total"]))
        family.samples.append(("_count", labels, hist["count"]))


def render_registries(
    root: MetricsRegistry,
    tenants: "dict[str, MetricsRegistry] | None" = None,
) -> str:
    """One Prometheus text-format document for a registry hierarchy.

    Args:
        root: The server's root registry — exported unlabelled.
        tenants: Optional ``tenant-key -> registry`` map; each exports the
            same families with a ``tenant`` label.
    """
    families: dict[str, _Family] = {}
    _collect(families, root, {})
    for tenant_key, registry in sorted((tenants or {}).items()):
        _collect(families, registry, {"tenant": tenant_key})
    lines = []
    for name in sorted(families):
        family = families[name]
        lines.append("# TYPE %s %s" % (name, family.kind))
        for suffix, labels, value in family.samples:
            lines.append(
                "%s%s%s %s" % (name, suffix, _label_str(labels), _value_str(value))
            )
    return "\n".join(lines) + "\n"
