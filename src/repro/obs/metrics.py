"""Labelled metrics registry with Prometheus and JSON exporters.

:class:`MetricsRegistry` groups the counters, gauges and histograms of
:mod:`repro.sim.stats` for one run, each created on first use, with:

* optional ``labels={...}`` on all three metric kinds — the labelled
  series is stored under a canonical ``name{k="v",...}`` key in the same
  dicts, so ``summary()`` and ad-hoc inspection see it too;
* :meth:`to_prometheus` — the text exposition format (``# TYPE`` lines,
  sanitised names, counters as ``_total``, histograms as summaries with
  ``quantile`` labels plus ``_sum``/``_count``);
* :meth:`to_json` — a structured snapshot for dashboards and tests.

:func:`validate_prometheus` is the grammar check the CI step runs over
exporter output.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

from repro.sim.stats import Counter, Gauge, Histogram

#: quantiles exported for every histogram, summary-style
_QUANTILES = (0.5, 0.9, 0.99)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\"\\n])*\""  # first label
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\"\\n])*\")*,?\})?"  # rest
    r" (-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|NaN|\+Inf)"  # value
    r"( -?[0-9]+)?$"  # optional timestamp
)
_COMMENT_LINE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped))$"
)


def _series_key(name: str, labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return name
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{body}}}"


def split_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of the canonical key encoding: ``name{a="b"}`` -> parts."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value.strip('"')
    return name, labels


def sanitize_name(name: str) -> str:
    """A metric name the Prometheus grammar accepts (dots become underscores)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = f"_{cleaned}"
    return cleaned


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """The one registry the observability layer wires everywhere."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> Counter:
        key = _series_key(name, labels)
        if key not in self.counters:
            self.counters[key] = Counter(key)
        return self.counters[key]

    def gauge(self, name: str, labels: Mapping[str, Any] | None = None) -> Gauge:
        key = _series_key(name, labels)
        if key not in self.gauges:
            self.gauges[key] = Gauge(key)
        return self.gauges[key]

    def histogram(
        self,
        name: str,
        labels: Mapping[str, Any] | None = None,
        reservoir_size: int | None = None,
    ) -> Histogram:
        """The named histogram; ``reservoir_size`` applies on creation."""
        key = _series_key(name, labels)
        if key not in self.histograms:
            self.histograms[key] = Histogram(key, reservoir_size=reservoir_size)
        return self.histograms[key]

    def summary(self) -> dict[str, float]:
        """Flat numeric summary: counters, gauges, and histogram means."""
        out: dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, gauge in self.gauges.items():
            out[name] = gauge.value
        for name, histogram in self.histograms.items():
            out[f"{name}.mean"] = histogram.mean
            out[f"{name}.count"] = histogram.count
        return out

    # -- exporters ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format,
        each name under the ``repro_`` prefix."""
        lines: list[str] = []
        typed: set[str] = set()

        def emit_type(base: str, kind: str) -> None:
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} {kind}")

        def full_name(key: str, suffix: str = "") -> tuple[str, str]:
            name, labels = split_series_key(key)
            base = sanitize_name(f"repro_{name}") + suffix
            body = ",".join(
                f'{sanitize_name(k)}="{_escape(v)}"' for k, v in labels.items()
            )
            return base, body

        for key in sorted(self.counters):
            base, body = full_name(key, suffix="_total")
            emit_type(base, "counter")
            label_part = f"{{{body}}}" if body else ""
            lines.append(f"{base}{label_part} {_format_value(self.counters[key].value)}")

        for key in sorted(self.gauges):
            base, body = full_name(key)
            emit_type(base, "gauge")
            label_part = f"{{{body}}}" if body else ""
            lines.append(f"{base}{label_part} {_format_value(self.gauges[key].value)}")

        for key in sorted(self.histograms):
            histogram = self.histograms[key]
            base, body = full_name(key)
            emit_type(base, "summary")
            if histogram.count:
                for q in _QUANTILES:
                    quantile_body = (body + "," if body else "") + f'quantile="{q}"'
                    lines.append(
                        f"{base}{{{quantile_body}}} "
                        f"{_format_value(histogram.quantile(q))}"
                    )
            label_part = f"{{{body}}}" if body else ""
            lines.append(f"{base}_sum{label_part} {_format_value(histogram.total)}")
            lines.append(f"{base}_count{label_part} {histogram.count}")

        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """Structured snapshot of every series (exact stats, key quantiles)."""
        histograms: dict[str, Any] = {}
        for key, histogram in self.histograms.items():
            entry: dict[str, Any] = {
                "count": histogram.count,
                "sum": histogram.total,
                "mean": None if not histogram.count else histogram.mean,
                "min": None if not histogram.count else histogram.minimum,
                "max": None if not histogram.count else histogram.maximum,
            }
            if histogram.count:
                entry["quantiles"] = {
                    str(q): histogram.quantile(q) for q in _QUANTILES
                }
            histograms[key] = entry
        return {
            "counters": {key: c.value for key, c in sorted(self.counters.items())},
            "gauges": {key: g.value for key, g in sorted(self.gauges.items())},
            "histograms": dict(sorted(histograms.items())),
        }


def _escape(value: Any) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def validate_prometheus(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` parses as the exposition format.

    Line-by-line check against the text-format grammar: comment lines
    must be well-formed ``# HELP``/``# TYPE``, sample lines must be
    ``name[{labels}] value [timestamp]`` with legal metric/label names
    and a parseable value.
    """
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_LINE.match(line):
                raise ValueError(f"line {number}: malformed comment: {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        if not _NAME_OK.match(match.group(1)):  # pragma: no cover - regex overlap
            raise ValueError(f"line {number}: bad metric name: {match.group(1)!r}")
