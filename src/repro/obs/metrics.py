"""Labelled counters for one run.

:class:`MetricsRegistry` holds the :class:`repro.sim.stats.Counter`\\ s
of one run, each created on first use. A series may carry
``labels={...}``; it is stored under a canonical ``name{k="v",...}``
key, so ``bench``'s ``pier_counts`` can sum a family by prefix.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.sim.stats import Counter


def _series_key(name: str, labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return name
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{body}}}"


class MetricsRegistry:
    """The one registry the observability layer wires everywhere."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}

    def counter(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> Counter:
        key = _series_key(name, labels)
        if key not in self.counters:
            self.counters[key] = Counter(key)
        return self.counters[key]
