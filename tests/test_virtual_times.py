"""Simulated time is the same number on every supported interpreter.

A batch's transit time is the sum of one jittered draw per overlay hop.
CPython 3.12's float ``sum()`` compensates its rounding and 3.10/3.11's
does not, so a delay summed with ``sum()`` put the same seeded run at
different virtual times on different interpreters, and every digest built
on them drifted. The first-answer and completion virtual times of a small
jittered, batched hybrid-race matrix are pinned here to the last bit
(``float.hex``) in ``tests/golden/virtual_times.json``, recorded on
CPython 3.11; CI runs the fast suite on 3.10, 3.11 and 3.12. Regenerate
with ``PYTHONPATH=src python tests/test_virtual_times.py``.
"""

import json
import math
import random
from pathlib import Path

from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig
from repro.hybrid.world import build_world

GOLDEN = Path(__file__).resolve().parent / "golden" / "virtual_times.json"

VOCABULARY = ["nebula", "quasar", "aurora", "meteor", "eclipse", "klorena", "montia"]
SEEDS = (0, 1, 2, 3)
BATCH_SIZES = (1, 3)
QUERIES_PER_WORLD = 8
#: large enough that plan legs and re-query walks cross several overlay hops
NUM_NODES = 128
#: the flood gives up early, so the race times stay small and a last-bit
#: difference in one transit's sum survives into them
GNUTELLA_TIMEOUT = 0.5


def race_times() -> dict:
    """``{seed|batch size|race: [first answer, completion]}`` as ``float.hex``."""
    times: dict = {}
    for seed in SEEDS:
        for batch_size in BATCH_SIZES:
            rng = random.Random(seed)
            dht = DhtNetwork(rng=seed)
            dht.populate(NUM_NODES)
            # The recorded race runs from the hybrid on DHT node ``seed``.
            world = build_world(
                dht,
                range(seed + 1),
                gnutella_timeout=GNUTELLA_TIMEOUT,
                race_config=RaceConfig(batch_size=batch_size),
                rng=seed,
            )
            for index in range(40):
                words = rng.sample(VOCABULARY, rng.randint(2, 4))
                name = " ".join(words) + f" take{index:03d}.mp3"
                world.publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
            hybrid, engine = world.hybrids[seed], world.engine
            races = [
                hybrid.handle_leaf_query_simulated(
                    engine, rng.sample(VOCABULARY, rng.randint(2, 3)), [math.inf], stop_ttl=3
                )
                for _ in range(QUERIES_PER_WORLD)
            ]
            world.sim.run()
            for index, race in enumerate(races):
                outcome = race.outcome
                times[f"s{seed}|b{batch_size}|{index}|{'+'.join(outcome.terms)}"] = [
                    outcome.pier_latency.hex(),
                    outcome.pier_completion_latency.hex(),
                ]
    return times


def test_race_virtual_times_match_golden_to_the_bit():
    assert race_times() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(race_times(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
