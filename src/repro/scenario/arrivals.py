"""Seeded arrival processes for scenario schedules.

All three processes are generated from one :class:`random.Random`
stream, entirely in virtual time, so the same seed always produces the
same arrival sequence — the foundation of the bit-for-bit schedule
digest. The diurnal process is sampled by thinning a homogeneous
process at the peak rate, the standard exact method for inhomogeneous
Poisson processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.scenario.spec import DIURNAL_AMPLITUDE, ArrivalSpec


@dataclass(frozen=True)
class Arrival:
    """One query arrival: when, and whether it belongs to the spike."""

    at: float
    #: flash-crowd spike member — the schedule points every flash
    #: arrival at the same designated item
    flash: bool = False


def _homogeneous(
    rate: float, start: float, end: float, rng: random.Random, flash: bool = False
) -> list[Arrival]:
    out: list[Arrival] = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return out
        out.append(Arrival(t, flash))


def _diurnal(spec: ArrivalSpec, duration: float, rng: random.Random) -> list[Arrival]:
    peak = spec.rate * (1.0 + DIURNAL_AMPLITUDE)
    out: list[Arrival] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration:
            return out
        instantaneous = spec.rate * (
            1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / spec.diurnal_period)
        )
        if rng.random() * peak < instantaneous:
            out.append(Arrival(t))


def generate_arrivals(
    spec: ArrivalSpec, duration: float, rng: random.Random
) -> list[Arrival]:
    """All arrivals in ``[0, duration)``, time-ordered.

    ``flash_crowd`` superimposes the spike window on the base Poisson
    process: the base draws happen first, then the spike draws, so the
    two sub-streams stay individually stable; the merge sort is on
    arrival time (ties keep base before spike — both sides of a tie are
    measure-zero under continuous draws anyway).
    """
    spec.validate()
    if spec.kind == "poisson":
        return _homogeneous(spec.rate, 0.0, duration, rng)
    if spec.kind == "diurnal":
        return _diurnal(spec, duration, rng)
    base = _homogeneous(spec.rate, 0.0, duration, rng)
    spike_end = min(duration, spec.flash_start + spec.flash_duration)
    spike = (
        _homogeneous(spec.flash_rate, spec.flash_start, spike_end, rng, flash=True)
        if spec.flash_start < duration
        else []
    )
    return sorted(base + spike, key=lambda arrival: arrival.at)
