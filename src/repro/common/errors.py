"""Exception hierarchy for the reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DhtError(ReproError):
    """Base class for DHT failures.

    Lookup-path failures carry structured context so a scenario run's
    exception is diagnosable on its own: ``key`` is the ring key being
    routed, ``path`` the node ids visited before the failure (the partial
    route), and ``hops`` the overlay hops taken. All three default to
    ``None`` for failures that have no route (empty network, bad node id).
    """

    def __init__(
        self,
        message: object = "",
        *,
        key: int | None = None,
        path: list[int] | None = None,
    ):
        super().__init__(message)
        self.key = key
        self.path = list(path) if path is not None else None
        self.hops = max(0, len(self.path) - 1) if self.path is not None else None


class KeyNotFoundError(DhtError):
    """A DHT ``get`` found no value stored under the requested key."""


class NodeNotFoundError(DhtError):
    """An operation referenced a node id that is not part of the network."""


class ShardWorkerError(ReproError):
    """A sharded-simulation worker process failed or died mid-run.

    Raised by the process backend when a worker's pipe breaks (the fork
    was killed or crashed) or when the worker reports an exception; the
    parent terminates the remaining workers before raising, so no
    orphaned forks survive the failure.
    """


class SchemaError(ReproError):
    """A tuple did not conform to its table schema."""


class PlanError(ReproError):
    """A query plan was malformed or could not be executed."""


class WorkloadError(ReproError):
    """Workload or trace generation was asked for something impossible."""


class ScenarioError(ReproError):
    """An adversarial scenario specification is invalid or inconsistent."""
