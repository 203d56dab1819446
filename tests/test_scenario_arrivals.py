"""Arrival processes: seeded, ordered, in-window, correctly shaped."""

import math

from repro.common.rng import make_rng
from repro.scenario import ArrivalSpec, generate_arrivals

DURATION = 200.0


def arrivals(spec, seed=7, duration=DURATION):
    return generate_arrivals(spec, duration, make_rng(seed))


def test_poisson_in_window_and_ordered():
    out = arrivals(ArrivalSpec(kind="poisson", rate=2.0))
    assert all(0.0 <= a.at < DURATION for a in out)
    assert [a.at for a in out] == sorted(a.at for a in out)
    assert not any(a.flash for a in out)


def test_poisson_rate_roughly_holds():
    out = arrivals(ArrivalSpec(kind="poisson", rate=2.0), duration=1000.0)
    # Mean 2000 arrivals; 5 sigma is about 220.
    assert 1700 < len(out) < 2300


def test_same_seed_reproduces_exactly():
    spec = ArrivalSpec(kind="flash_crowd", rate=2.0)
    assert arrivals(spec, seed=3) == arrivals(spec, seed=3)


def test_different_seeds_differ():
    spec = ArrivalSpec(kind="poisson", rate=2.0)
    assert arrivals(spec, seed=3) != arrivals(spec, seed=4)


def test_diurnal_oscillates_about_the_mean():
    spec = ArrivalSpec(kind="diurnal", rate=2.0, diurnal_period=200.0)
    out = arrivals(spec, duration=2000.0)
    # Day half-cycles [0, 100) mod 200 run at up to 1.8x the trough
    # half-cycles [100, 200): the split must be visibly asymmetric.
    day = sum(1 for a in out if math.fmod(a.at, spec.diurnal_period) < 100.0)
    night = len(out) - day
    assert day > 1.5 * night
    # Thinning never exceeds the homogeneous peak-rate envelope.
    assert 0.5 * 2.0 * 2000.0 < len(out) < 1.8 * 2.0 * 2000.0


def test_flash_crowd_spike_confined_to_window():
    spec = ArrivalSpec(
        kind="flash_crowd", rate=1.0, flash_start=50.0, flash_duration=10.0,
        flash_rate=30.0,
    )
    out = arrivals(spec)
    spike = [a for a in out if a.flash]
    base = [a for a in out if not a.flash]
    assert all(50.0 <= a.at < 60.0 for a in spike)
    # Spike rate 30/s for 10s >> base rate 1/s across 200s.
    assert len(spike) > len(base)
    assert [a.at for a in out] == sorted(a.at for a in out)


def test_flash_window_clamped_to_duration():
    spec = ArrivalSpec(
        kind="flash_crowd", rate=1.0, flash_start=195.0, flash_duration=50.0,
        flash_rate=30.0,
    )
    out = arrivals(spec)
    assert all(a.at < DURATION for a in out)
    assert any(a.flash for a in out)


def test_flash_start_beyond_duration_yields_no_spike():
    spec = ArrivalSpec(
        kind="flash_crowd", rate=1.0, flash_start=500.0, flash_duration=10.0,
        flash_rate=30.0,
    )
    assert not any(a.flash for a in arrivals(spec))
