"""Scenario compile + run: schedules, reports, gates, reproducibility."""

import dataclasses

from repro.hybrid.engine import RaceConfig
from repro.scenario import (
    ArrivalSpec,
    ChurnSpec,
    ScenarioRunner,
    ScenarioSpec,
    SloSpec,
    WorkloadSpec,
    compile_schedule,
    run_scenario,
)
from repro.scenario.engine import REQUERY_DEADLINE
from repro.scenario.presets import SMOKE


def tiny(**overrides) -> ScenarioSpec:
    base = ScenarioSpec(
        name="tiny",
        seed=13,
        duration=12.0,
        num_nodes=16,
        num_files=24,
        num_ultrapeers=3,
        arrival=ArrivalSpec(kind="poisson", rate=1.5),
        gnutella_timeout=5.0,
    )
    return dataclasses.replace(base, **overrides)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def test_schedule_is_deterministic_and_digested():
    a = compile_schedule(SMOKE)
    b = compile_schedule(SMOKE)
    assert a.events == b.events
    assert a.digest == b.digest
    assert len(a.digest) == 64


def test_schedule_digest_tracks_seed():
    assert (
        compile_schedule(tiny(seed=1)).digest
        != compile_schedule(tiny(seed=2)).digest
    )


def test_schedule_events_time_ordered_with_faults_included():
    spec = tiny(churn=ChurnSpec(kind="uniform", interval=3.0, steps=2))
    schedule = compile_schedule(spec)
    times = [event.at for event in schedule.events]
    assert times == sorted(times)
    assert sum(1 for e in schedule.events if e.kind == "churn") == 2
    assert all(e.kind in ("query", "churn") for e in schedule.events)


def test_flash_schedule_targets_one_item():
    spec = tiny(
        duration=30.0,
        arrival=ArrivalSpec(
            kind="flash_crowd", rate=1.0, flash_start=5.0, flash_duration=8.0,
            flash_rate=12.0,
        ),
    )
    flash = [e for e in compile_schedule(spec).events if e.flash]
    assert flash
    assert len({e.item for e in flash}) == 1


def test_partition_schedule_carries_heal_event():
    spec = tiny(churn=ChurnSpec(kind="partition", at=4.0, heal_at=8.0))
    kinds = [e.kind for e in compile_schedule(spec).events if e.kind != "query"]
    assert kinds == ["partition", "heal"]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def test_smoke_scenario_passes_its_slo_gates():
    """The fast default-suite scenario: every gate green, no silent loss."""
    report = run_scenario(SMOKE)
    assert report.passed, [c for c in report.slo_checks if not c.ok]
    assert report.silent_loss == 0
    assert report.queries > 0
    assert report.rare_published > 0


def test_identical_seeds_reproduce_report_bit_for_bit():
    spec = tiny(churn=ChurnSpec(kind="uniform", interval=4.0, steps=2))
    assert run_scenario(spec) == run_scenario(spec)


def test_report_accounting_is_consistent():
    report = run_scenario(tiny())
    assert report.queries == report.popular_queries + report.rare_queries
    assert report.rare_published <= report.rare_queries
    assert report.answered_rare <= report.rare_published
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.coverage <= 1.0
    assert report.latency_p50 <= report.latency_p95


def test_free_rider_run_separates_recall_from_coverage():
    spec = tiny(
        workload=WorkloadSpec(kind="free_riders", free_rider_fraction=0.5),
    )
    report = run_scenario(spec)
    # Unpublished targets are honestly empty: never degraded, never
    # silent loss, but coverage drops below recall.
    assert report.silent_loss == 0
    assert report.rare_published < report.rare_queries
    assert report.coverage < report.recall or report.rare_published == 0


def test_query_of_death_run_answers_conjunctions():
    spec = tiny(
        num_files=16,
        workload=WorkloadSpec(kind="query_of_death", qod_families=2, family_size=4),
    )
    report = run_scenario(spec)
    assert report.silent_loss == 0
    assert report.recall == 1.0


def test_failed_gate_reported_not_raised():
    spec = tiny(slo=SloSpec(min_recall=1.0, max_p95_latency=0.001))
    report = run_scenario(spec)
    assert not report.passed
    failed = {c.name for c in report.slo_checks if not c.ok}
    assert "latency_p95" in failed


def test_metrics_published_per_scenario():
    runner = ScenarioRunner(tiny())
    report = runner.run()
    metrics = runner.metrics
    gauge = metrics.gauge("scenario.recall", labels={"scenario": "tiny"})
    assert gauge.value == report.recall
    passed = metrics.gauge("scenario.slo_passed", labels={"scenario": "tiny"})
    assert passed.value == (1.0 if report.passed else 0.0)


def test_runner_keeps_world_for_inspection():
    runner = ScenarioRunner(tiny())
    assert runner.world is None
    runner.run()
    assert runner.world.dht.size > 0
    assert runner.world.engine.completed == len(runner.records)
    assert len(runner.records) > 0
    assert runner.corpus


def test_races_run_under_the_sixty_second_requery_deadline():
    """Every scenario races with the engine's default knobs but one: a
    re-query phase ends degraded after ``REQUERY_DEADLINE`` virtual s."""
    runner = ScenarioRunner(tiny())
    runner.run()
    assert REQUERY_DEADLINE == 60.0
    assert runner.world.engine.config == RaceConfig(requery_deadline=60.0)
