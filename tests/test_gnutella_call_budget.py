"""Guard against sliding back to per-ultrapeer, per-replica re-derivation.

Which filenames a query matches, which ultrapeers index a replica, and
which tuples publish a file are facts about the network: the Section 7
deployment resolves the first once per query (one shared
``FilenameMatcher``), reads the second from one host table (``GnutellaNetwork.replica_depths``)
and compiles the third once per file (``Publisher.plan_file``, kept on
the shared publisher under the file's ``result_key``) however many
hybrid ultrapeers snoop and publish it. A snoop floods once, for its
horizon alone, and reads
the replicas inside it only up to the QRS threshold; a term's token scan
is kept across queries; a republished plan copies a row only for a
store that lacks it; and a put at ``replication=1`` never reads the
owner's successor list. None of
that shows in a report — the floods, matches, publishes and races are
the same — so a regression to a substring scan of a private token index
at every visited ultrapeer, to a ``result_key`` tuple and a host walk per
matching replica, to hashing, tokenising and validating a file at every
ultrapeer that publishes it, to matching at every ultrapeer a snoop
reaches, to a row copy per publish or to a token scan per query term,
would pass every other test. This one counts *function calls* —
deterministic, no timing — over one deployment and holds them under a
recorded ceiling, and pins what the hybrids were offered, compiled and
published so the saving cannot come from snooping less.
"""

import cProfile
import pstats

from repro.dht.node import DhtNode
from repro.gnutella import flooding
from repro.gnutella.index import FilenameMatcher
from repro.hybrid.deployment import DeploymentConfig, build_deployment

CONFIG = DeploymentConfig(
    num_ultrapeers=400,
    num_leaves=1600,
    num_hybrid=50,
    num_items=500,
    num_background_queries=200,
    num_test_queries=300,
    seed=1,
)
#: Primitive calls per test query over the whole run (world building and
#: the warm-up floods included; built-in calls included). Recorded on
#: CPython 3.11 when a file became one compiled plan and one batch put:
#: 3,549 per query, against 4,928 on the put-per-tuple path it replaced
#: (the same world, the commit before) and 9,617 before the shared
#: content plane; 3,120 (3,061 on 3.10, 3,096 on 3.12) once the warm-up
#: snoop flooded over an empty index map and a ``replication=1`` put
#: skipped the successor list, against 3,465 before; 2,983 (2,923 on
#: 3.10, 2,969 on 3.12) since the snoop stops at the QRS threshold, each
#: term's token scan is kept, a republish copies only the rows a store
#: takes and a race counts replica depths once per distinct depth,
#: against 3,112 (3,034 on 3.10, 3,071 on 3.12) on the commit before,
#: the same world; 2,763 on 3.11 once the network stopped filling a
#: per-ultrapeer index nothing read, against 2,931 before. The ceiling
#: leaves ~22 %
#: headroom for interpreter versions and unrelated bookkeeping, so the
#: per-tuple put path overshoots it; a return to matching at every
#: snooped ultrapeer, to a snoop through replica depths, to a row copy
#: per publish or to a token scan per query stays under it and is caught
#: by the pins below.
CALLS_PER_QUERY_CEILING = 3_650
#: ``SharedFile.result_key`` is now called only where a result's identity
#: is the point: once per snooped file a hybrid ultrapeer is offered under
#: the QRS rule. Identical offers and publishes before and after.
QRS_OFFERS = 2396
FILES_PUBLISHED = 2360
#: Distinct files among those publishes: each is compiled once, on the
#: first ultrapeer to publish it, and published from every one that
#: snoops it (4.5 publishes per plan here).
FILES_COMPILED = 529
#: Row copies: one per tuple of each compiled file (its Item row and one
#: posting per keyword), made by the first publish; the ~3.5 later
#: publishes of the same plan find every row stored and copy none
#: (12,753 copies, one per published tuple, when every publish copied).
ROW_COPIES = 2884


def test_deployment_resolves_filenames_once_per_network():
    profile = cProfile.Profile()
    profile.enable()
    deployment = build_deployment(CONFIG)
    report = deployment.run()
    profile.disable()

    assert len(report.outcomes) == CONFIG.num_test_queries
    assert report.files_published == FILES_PUBLISHED
    stats = pstats.Stats(profile)

    def calls(function: str) -> int:
        return sum(
            entry[1] for (_, _, name), entry in stats.stats.items() if name == function
        )

    def calls_to(function) -> int:
        """Calls of exactly ``function``: its file and first line, so a
        namesake elsewhere (``FilenameMatcher.match``) does not count."""
        code = function.__code__
        return sum(
            entry[1]
            for (filename, line, _), entry in stats.stats.items()
            if (filename, line) == (code.co_filename, code.co_firstlineno)
        )

    # Each warm-up query floods once, for the horizon its snoop reads
    # (the test phase answers by replica depth and floods nothing), and
    # the deployment's DHT runs at replication=1, so no put reads a
    # successor list (12,753 reads here when every put did).
    assert calls_to(flooding.flood) == CONFIG.num_background_queries
    assert calls_to(DhtNode.successors.fget) == 0
    assert calls("result_key") == QRS_OFFERS
    assert calls("publish_plan") == FILES_PUBLISHED
    assert calls("plan_file") == FILES_COMPILED < FILES_PUBLISHED
    # A row is copied once, by the first store to take it: with no churn
    # every copy is still stored, on one node (replication=1), so the
    # copies are the stored values, each its own object.
    stored = [row for _, _, rows in deployment.world.dht.stored_items() for row in rows]
    assert calls("<method 'copy' of 'dict' objects>") == ROW_COPIES
    assert len({id(row) for row in stored}) == len(stored) == ROW_COPIES
    # Only the test phase reads replica depths, one list per leaf query:
    # the warm-up snoop reads the host table up to the QRS threshold.
    assert calls("replica_depths") == CONFIG.num_test_queries
    # Each query term's token scan runs once for the whole run.
    queries = [*deployment.background, *deployment.test]
    terms = {term.lower() for query in queries for term in query.terms}
    assert 0 < calls_to(FilenameMatcher._scan_term) <= len(terms)
    calls_per_query = stats.prim_calls / CONFIG.num_test_queries
    assert calls_per_query < CALLS_PER_QUERY_CEILING, calls_per_query
