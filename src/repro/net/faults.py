"""Fault injection at the transport boundary.

A network partition (or regional congestion) is, to the survivors, a
*link-level* phenomenon: messages still leave, they just take much longer
— or never land. :class:`FaultInjectingTransport` wraps any
:class:`~repro.net.transport.Transport` and lets a scenario driver
(:mod:`repro.scenario.injectors`) degrade the link in virtual time:

* ``set_delay_multiplier(m)`` stretches every per-hop latency draw by
  ``m`` while active (``m >= 1``). Byte accounting is untouched — a slow
  partition-era message costs the same wire bytes as a fast one — and a
  stretched draw only ever lands later than the undisturbed one.
* Draw replay stays bit-for-bit reproducible: the wrapper consumes the
  inner transport's draw stream unchanged and scales the result, so runs
  with the injector disabled see the identical RNG sequence.
"""

from __future__ import annotations

import random

from repro.net.transport import Transport


class FaultInjectingTransport(Transport):
    """Wraps a transport with scenario-driven latency degradation."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self._delay_multiplier = 1.0
        #: hop-latency draws taken while a degradation window was active
        self.degraded_draws = 0

    # -- scenario-driver surface ---------------------------------------

    @property
    def delay_multiplier(self) -> float:
        return self._delay_multiplier

    def set_delay_multiplier(self, multiplier: float) -> None:
        """Stretch subsequent hop-latency draws by ``multiplier`` (>= 1)."""
        if multiplier < 1.0:
            raise ValueError(
                f"delay multiplier must be >= 1 (a degraded link is never "
                f"faster than the undisturbed one), got {multiplier}"
            )
        self._delay_multiplier = multiplier

    def clear_faults(self) -> None:
        """Restore the undisturbed link."""
        self._delay_multiplier = 1.0

    # -- Transport interface (byte path delegates untouched) -----------

    def charge(self, category: str, messages: int, byte_count: int) -> None:
        self.inner.charge(category, messages, byte_count)

    def hop_delays(self, rng: random.Random, hops: int) -> float:
        multiplier = self._delay_multiplier
        if multiplier == 1.0:
            return self.inner.hop_delays(rng, hops)
        # Scale each draw, then add: the stretched sum is the one the
        # per-draw path always produced, to the last bit.
        self.degraded_draws += hops
        draw = self.inner.hop_delays
        total = 0.0
        for _ in range(hops):
            total += draw(rng, 1) * multiplier
        return total

    # -- passthroughs some call sites read off the in-process backend --

    @property
    def meter(self):
        return self.inner.meter

    @property
    def cost_model(self):
        return self.inner.cost_model
