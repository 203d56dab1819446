"""The hybrid search infrastructure (Sections 5 and 7).

:mod:`repro.hybrid.rare_items` implements the localized schemes that
Figures 13-15 compare for identifying rare items worth publishing into
the DHT (Perfect, Random, TF, TPF, SAM); :mod:`repro.hybrid.ultrapeer`
is the hybrid LimeWire/PIERSearch ultrapeer of Figure 17, which runs the
deployment's one scheme, QRS, on each flood's result set;
:mod:`repro.hybrid.engine` races Gnutella flooding against the DHT
re-query as scheduled events in virtual time; :mod:`repro.hybrid.world`
wires that stack onto a DHT in one place; and
:mod:`repro.hybrid.deployment` reproduces the 50-node PlanetLab
deployment experiment on such a world.
"""

from repro.hybrid.rare_items import (
    PerfectScheme,
    RandomScheme,
    RareItemScheme,
    SamplingScheme,
    TermFrequencyScheme,
    TermPairFrequencyScheme,
    published_for_budget,
)
from repro.hybrid.ultrapeer import HybridQueryOutcome, HybridUltrapeer
from repro.hybrid.engine import HybridQueryEngine, QueryRace, RaceConfig
from repro.hybrid.world import HybridWorld, build_world
from repro.hybrid.deployment import DeploymentConfig, DeploymentReport, run_deployment

__all__ = [
    "HybridQueryEngine",
    "QueryRace",
    "RaceConfig",
    "RareItemScheme",
    "PerfectScheme",
    "RandomScheme",
    "TermFrequencyScheme",
    "TermPairFrequencyScheme",
    "SamplingScheme",
    "published_for_budget",
    "HybridUltrapeer",
    "HybridQueryOutcome",
    "DeploymentConfig",
    "DeploymentReport",
    "HybridWorld",
    "build_world",
    "run_deployment",
]
