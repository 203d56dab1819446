"""Scenario spec validation: every axis rejects inconsistent values."""

import dataclasses

import pytest

from repro.common.errors import ScenarioError
from repro.scenario import (
    ArrivalSpec,
    ChurnSpec,
    ScenarioSpec,
    SloSpec,
    WorkloadSpec,
)
from repro.scenario.presets import SCENARIOS


def spec(**overrides) -> ScenarioSpec:
    return dataclasses.replace(ScenarioSpec(name="t"), **overrides)


def test_default_spec_validates():
    spec().validate()


def test_all_presets_validate():
    for preset in SCENARIOS.values():
        preset.validate()


@pytest.mark.parametrize(
    "arrival",
    [
        ArrivalSpec(kind="bogus"),
        ArrivalSpec(rate=0.0),
        ArrivalSpec(rate=-1.0),
        ArrivalSpec(kind="diurnal", diurnal_amplitude=1.0),
        ArrivalSpec(kind="diurnal", diurnal_period=0.0),
        ArrivalSpec(kind="flash_crowd", flash_duration=0.0),
        ArrivalSpec(kind="flash_crowd", flash_start=-1.0),
        ArrivalSpec(kind="flash_crowd", flash_rate=0.0),
    ],
)
def test_bad_arrival_rejected(arrival):
    with pytest.raises(ScenarioError):
        spec(arrival=arrival).validate()


@pytest.mark.parametrize(
    "churn",
    [
        ChurnSpec(kind="bogus"),
        ChurnSpec(kind="uniform", interval=0.0),
        ChurnSpec(kind="uniform", steps=0),
        ChurnSpec(kind="uniform", failure_fraction=1.5),
        ChurnSpec(kind="regional", fraction=0.0),
        ChurnSpec(kind="regional", fraction=1.0),
        ChurnSpec(kind="regional", at=999.0),
        ChurnSpec(kind="partition", delay_multiplier=0.5),
        ChurnSpec(kind="partition", at=15.0, heal_at=10.0),
    ],
)
def test_bad_churn_rejected(churn):
    with pytest.raises(ScenarioError):
        spec(churn=churn).validate()


@pytest.mark.parametrize(
    "workload",
    [
        WorkloadSpec(kind="bogus"),
        WorkloadSpec(popular_fraction=1.0),
        WorkloadSpec(kind="free_riders", free_rider_fraction=0.0),
        WorkloadSpec(kind="free_riders", free_rider_fraction=1.0),
        WorkloadSpec(kind="query_of_death", qod_families=1),
        WorkloadSpec(kind="query_of_death", family_size=1),
    ],
)
def test_bad_workload_rejected(workload):
    with pytest.raises(ScenarioError):
        spec(workload=workload).validate()


def test_qod_conjunction_space_must_cover_corpus():
    # 2 families x 2 values = 4 distinct conjunctions < 5 files.
    workload = WorkloadSpec(kind="query_of_death", qod_families=2, family_size=2)
    with pytest.raises(ScenarioError, match="exactly-one-match"):
        spec(workload=workload, num_files=5).validate()
    spec(workload=workload, num_files=4).validate()


@pytest.mark.parametrize(
    "slo",
    [
        SloSpec(min_recall=1.5),
        SloSpec(max_p95_latency=0.0),
        SloSpec(max_query_kb=0.0),
        SloSpec(max_silent_loss=-1),
        SloSpec(max_degraded_fraction=2.0),
        SloSpec(min_cache_hit_rate=-0.1),
    ],
)
def test_bad_slo_rejected(slo):
    with pytest.raises(ScenarioError):
        spec(slo=slo).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"name": ""},
        {"duration": 0.0},
        {"num_nodes": 1},
        {"num_files": 0},
        {"num_ultrapeers": 0},
        {"num_ultrapeers": 999},
        {"replication": 0},
        {"gnutella_timeout": 0.0},
    ],
)
def test_bad_scenario_fields_rejected(overrides):
    with pytest.raises(ScenarioError):
        spec(**overrides).validate()
