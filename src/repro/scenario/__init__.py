"""repro.scenario — declarative adversarial fault injection.

Composes arrival process x churn pattern x workload shape into seeded,
reproducible hostile runs with SLO gates. Specs are declarative
(:mod:`repro.scenario.spec`), compiled into digested event schedules
and executed through the virtual-time kernel
(:mod:`repro.scenario.engine`); faults act only through existing
subsystem surfaces (:mod:`repro.scenario.injectors`). The shipped
hostile-run matrix lives in :mod:`repro.scenario.presets`.
"""

from repro.scenario.arrivals import Arrival, generate_arrivals
from repro.scenario.engine import (
    ScenarioEvent,
    ScenarioReport,
    ScenarioRunner,
    Schedule,
    SloCheck,
    compile_schedule,
    run_scenario,
)
from repro.scenario.injectors import PartitionInjector, RegionalFailureInjector
from repro.scenario.presets import HOSTILE_MATRIX, SCENARIOS, SMOKE
from repro.scenario.spec import (
    ArrivalSpec,
    ChurnSpec,
    ScenarioSpec,
    SloSpec,
    WorkloadSpec,
)
from repro.scenario.workloads import ScenarioItem, build_corpus

__all__ = [
    "Arrival",
    "ArrivalSpec",
    "ChurnSpec",
    "HOSTILE_MATRIX",
    "PartitionInjector",
    "RegionalFailureInjector",
    "SCENARIOS",
    "SMOKE",
    "Schedule",
    "ScenarioEvent",
    "ScenarioItem",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "SloCheck",
    "SloSpec",
    "WorkloadSpec",
    "build_corpus",
    "compile_schedule",
    "generate_arrivals",
    "run_scenario",
]
