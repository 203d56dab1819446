"""Tests for the ring-sharded kernel (repro.sim.shard).

The safety property under test: with every cross-shard message delayed
by at least the lookahead, windowed draining never delivers a message
into a shard's past, and the merged execution is deterministic — the
same program produces identical digests at any shard count and under
either backend.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.sim.shard import (
    ShardContext,
    ShardProgram,
    ShardWorkerError,
    run_sharded,
)

LOOKAHEAD = 0.05


# ----------------------------------------------------------------------
# Kernel invariants, held by both backends of run_sharded
# ----------------------------------------------------------------------

BACKENDS = ("round_robin", "process")


class Ticks(ShardProgram):
    """Local events only: each shard fires at ``times`` and records when."""

    def __init__(self, times):
        self.times = times
        self.fired: list[float] = []

    def start(self, ctx: ShardContext) -> None:
        for at in self.times:
            ctx.schedule(at, lambda c=ctx: self.fired.append(c.now))

    def on_message(self, ctx: ShardContext, payload) -> None:  # pragma: no cover
        raise AssertionError("no messages in this program")

    def digest(self):
        return self.fired


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_shard_is_plain_drain(backend):
    report = run_sharded(
        lambda shard_id, num_shards, rng: Ticks((1.0, 2.0)),
        num_shards=1,
        lookahead=0.0,
        backend=backend,
    )
    assert report.processed == 2
    assert report.digests() == [[1.0, 2.0]]


def test_positive_lookahead_required_for_multiple_shards():
    with pytest.raises(ValueError):
        run_sharded(_token_factory, num_shards=2, lookahead=0.0)


class Bouncer(ShardProgram):
    """Ping-pong chains across every shard, local and cross-shard hops
    mixed, each payload carrying the arrival time its sender computed.

    A message delivered into the receiver's past shows as a clock that
    runs backwards, or as a delivery time other than that arrival.
    """

    def __init__(self, shard_id: int, num_shards: int, hops: int = 40):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.hops = hops
        self.last = 0.0
        self.violations: list[tuple[float, float]] = []
        self.deliveries = 0

    def start(self, ctx: ShardContext) -> None:
        at = 0.01 * (self.shard_id + 1)
        ctx.schedule(at, lambda: self._bounce(ctx, at, self.hops))

    def _bounce(self, ctx: ShardContext, arrival: float, hops_left: int) -> None:
        now = ctx.now
        if now < self.last or abs(now - arrival) > 1e-9:
            self.violations.append((now, arrival))
        self.last = now
        self.deliveries += 1
        if hops_left <= 0:
            return
        rng = ctx.rng
        dst = rng.randrange(self.num_shards)
        if dst == self.shard_id:
            delay = rng.random() * 0.01
        else:
            delay = LOOKAHEAD + rng.random() * 0.02
        ctx.send(dst, delay, (now + delay, hops_left - 1))

    def on_message(self, ctx: ShardContext, payload) -> None:
        self._bounce(ctx, *payload)

    def digest(self):
        return self.violations, self.deliveries


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_shard_ever_receives_a_message_in_its_past(backend):
    report = run_sharded(
        lambda shard_id, num_shards, rng: Bouncer(shard_id, num_shards),
        num_shards=4,
        lookahead=LOOKAHEAD,
        seed=7,
        backend=backend,
    )
    assert all(violations == [] for violations, _ in report.digests())
    assert sum(deliveries for _, deliveries in report.digests()) == 4 * 41
    assert report.windows > 1  # the chains really did cross windows


class OneSend(ShardProgram):
    """Shard ``src`` sends one payload to ``dst`` at ``at`` after ``delay``;
    every shard records when what it receives lands."""

    def __init__(self, shard_id: int, src: int, dst: int, at: float, delay: float):
        self.shard_id = shard_id
        self.send = (src, dst, at, delay)
        self.received: list[tuple[float, str]] = []

    def start(self, ctx: ShardContext) -> None:
        src, dst, at, delay = self.send
        if self.shard_id == src:
            ctx.schedule(at, lambda: ctx.send(dst, delay, f"from{src}"))

    def on_message(self, ctx: ShardContext, payload) -> None:
        self.received.append((ctx.now, payload))

    def digest(self):
        return self.received


def _one_send(src, dst, at, delay):
    return lambda shard_id, num_shards, rng: OneSend(shard_id, src, dst, at, delay)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cross_shard_delivery_lands_at_send_time_plus_delay(backend):
    report = run_sharded(
        _one_send(0, 1, 0.1, LOOKAHEAD), num_shards=2, lookahead=LOOKAHEAD, backend=backend
    )
    assert report.digests() == [[], [(0.1 + LOOKAHEAD, "from0")]]
    assert report.cross_messages == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_cross_shard_message_below_lookahead_rejected(backend):
    expected = ValueError if backend == "round_robin" else ShardWorkerError
    with pytest.raises(expected, match="violates lookahead"):
        run_sharded(
            _one_send(0, 1, 0.1, LOOKAHEAD / 2),
            num_shards=2,
            lookahead=LOOKAHEAD,
            backend=backend,
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_shard_send_bypasses_lookahead(backend):
    report = run_sharded(
        _one_send(1, 1, 0.0, 0.001), num_shards=2, lookahead=LOOKAHEAD, backend=backend
    )
    assert report.digests() == [[], [(0.001, "from1")]]
    assert report.cross_messages == 0


class TiedSends(ShardProgram):
    """Shards 1 and 2 send to shard 0 so that everything arrives at once:
    shard 2 sends first in virtual time, shard 1 sends two in a row."""

    ARRIVAL = 0.01 + LOOKAHEAD

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.order: list[str] = []

    def start(self, ctx: ShardContext) -> None:
        if self.shard_id == 2:
            ctx.schedule(0.0, lambda: ctx.send(0, self.ARRIVAL, "from2"))
        elif self.shard_id == 1:
            ctx.schedule(0.01, lambda: self._pair(ctx))

    def _pair(self, ctx: ShardContext) -> None:
        ctx.send(0, LOOKAHEAD, "from1a")
        ctx.send(0, LOOKAHEAD, "from1b")

    def on_message(self, ctx: ShardContext, payload) -> None:
        self.order.append((ctx.now, payload))

    def digest(self):
        return self.order


@pytest.mark.parametrize("backend", BACKENDS)
def test_deterministic_merge_order(backend):
    """Tied cross-shard arrivals merge by (arrival, src, seq): the source
    shard breaks the tie, not the send time, and one source keeps its
    send order."""

    def run():
        return run_sharded(
            lambda shard_id, num_shards, rng: TiedSends(shard_id),
            num_shards=3,
            lookahead=LOOKAHEAD,
            backend=backend,
        ).digests()

    first = run()
    assert first == run()
    assert [payload for _, payload in first[0]] == ["from1a", "from1b", "from2"]
    assert {at for at, _ in first[0]} == {TiedSends.ARRIVAL}


# ----------------------------------------------------------------------
# ShardProgram / run_sharded
# ----------------------------------------------------------------------


class TokenRing(ShardProgram):
    """Each shard forwards numbered tokens around the shard ring.

    Deterministic workload with heavy cross-shard traffic; the digest
    captures every (time, token, hop) this shard processed.
    """

    def __init__(self, shard_id: int, num_shards: int, hops: int = 25, tokens: int = 3):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.hops = hops
        self.tokens = tokens
        self.seen: list[tuple[float, int, int]] = []

    def start(self, ctx: ShardContext) -> None:
        for token in range(self.tokens):
            ctx.schedule(
                0.01 * (token + 1),
                lambda t=token, c=ctx: self._emit(c, t, self.hops),
            )

    def _emit(self, ctx: ShardContext, token: int, hops_left: int) -> None:
        self.seen.append((round(ctx.now, 9), token, hops_left))
        if hops_left <= 0:
            return
        jitter = ctx.rng.random() * 0.01
        dst = (self.shard_id + 1) % self.num_shards
        ctx.send(dst, 0.05 + jitter, (token, hops_left - 1))

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        self._emit(ctx, token, hops_left)

    def digest(self):
        return sorted(self.seen)


def _token_factory(shard_id: int, num_shards: int, rng) -> TokenRing:
    return TokenRing(shard_id, num_shards)


def test_run_sharded_round_robin_completes_ring():
    report = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=3)
    # 3 tokens per shard, each visiting 26 stops
    assert report.processed == 4 * 3 * 26
    assert report.cross_messages == 4 * 3 * 25
    assert report.windows > 1
    assert len(report.shards) == 4
    assert all(s.processed > 0 for s in report.shards)


def test_run_sharded_is_deterministic_across_runs():
    a = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=11)
    b = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=11)
    assert a.digests() == b.digests()
    assert a.processed == b.processed


def test_run_sharded_seed_changes_execution():
    a = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=1)
    b = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=2)
    assert a.digests() != b.digests()


@pytest.mark.slow
def test_process_backend_matches_round_robin():
    """Fork-per-shard execution is bit-identical to the sequential drain."""
    sequential = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=9)
    forked = run_sharded(
        _token_factory, num_shards=2, lookahead=0.05, seed=9, backend="process"
    )
    assert forked.digests() == sequential.digests()
    assert forked.processed == sequential.processed
    assert forked.cross_messages == sequential.cross_messages


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_sharded(_token_factory, num_shards=2, lookahead=0.05, backend="threads")


@pytest.mark.parametrize("num_shards", [0, -1])
def test_shard_count_below_one_rejected(num_shards):
    with pytest.raises(ValueError, match="num_shards"):
        run_sharded(_token_factory, num_shards=num_shards, lookahead=0.05)


@pytest.mark.parametrize("backend", BACKENDS)
def test_report_accounts_for_every_shard(backend):
    """One ShardReport per shard, in shard order: the counts add up to the
    run's, and no shard was busy longer than the run took."""
    report = run_sharded(
        _token_factory, num_shards=3, lookahead=0.05, seed=5, backend=backend
    )
    assert len(report.shards) == 3
    assert report.processed == sum(s.processed for s in report.shards) == 3 * 3 * 26
    assert report.cross_messages == 3 * 3 * 25
    assert report.wall_seconds > 0
    for shard in report.shards:
        assert 0 <= shard.busy_seconds <= report.wall_seconds


@pytest.mark.parametrize("backend", BACKENDS)
def test_program_with_no_events_runs_no_window(backend):
    report = run_sharded(
        lambda shard_id, num_shards, rng: Ticks(()),
        num_shards=2,
        lookahead=LOOKAHEAD,
        backend=backend,
    )
    assert report.processed == 0
    assert report.windows == 0
    assert report.cross_messages == 0
    assert report.digests() == [[], []]


@pytest.mark.parametrize("backend", BACKENDS)
def test_idle_shards_process_nothing(backend):
    """Only shard 0 has work: the others report no events and an empty
    digest, and the busy shard still drains everything."""
    report = run_sharded(
        lambda shard_id, num_shards, rng: Ticks((1.0, 2.0) if shard_id == 0 else ()),
        num_shards=3,
        lookahead=LOOKAHEAD,
        backend=backend,
    )
    assert report.digests() == [[1.0, 2.0], [], []]
    assert [s.processed for s in report.shards] == [2, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_shard_loopback_needs_no_lookahead(backend):
    """With one shard every send loops back, so lookahead may be zero."""
    report = run_sharded(
        _one_send(0, 0, 0.1, 0.0), num_shards=1, lookahead=0.0, backend=backend
    )
    assert report.digests() == [[(0.1, "from0")]]
    assert report.cross_messages == 0


@pytest.mark.parametrize("num_shards", [2, 4])
def test_backends_agree_on_digests_and_windows(num_shards):
    """Both backends plan the same windows over the same messages, so the
    counters the benchmark reports match as well as the digests."""
    sequential = run_sharded(_token_factory, num_shards, lookahead=0.05, seed=9)
    forked = run_sharded(
        _token_factory, num_shards, lookahead=0.05, seed=9, backend="process"
    )
    assert forked.digests() == sequential.digests()
    assert forked.windows == sequential.windows > 1
    assert forked.cross_messages == sequential.cross_messages
    assert [s.processed for s in forked.shards] == [
        s.processed for s in sequential.shards
    ]


class StartSender(ShardProgram):
    """Sends cross-shard during ``start()`` — exercising the handshake
    path that ships setup-time messages before the first window."""

    def __init__(self, shard_id: int, num_shards: int):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.received: list[tuple[float, int]] = []

    def start(self, ctx: ShardContext) -> None:
        ctx.send((self.shard_id + 1) % self.num_shards, 0.05, self.shard_id)

    def on_message(self, ctx: ShardContext, payload) -> None:
        self.received.append((round(ctx.now, 9), payload))

    def digest(self):
        return sorted(self.received)


def _start_sender_factory(shard_id: int, num_shards: int, rng) -> StartSender:
    return StartSender(shard_id, num_shards)


@pytest.mark.parametrize("backend", ["round_robin", "process"])
def test_messages_sent_during_start_are_delivered(backend):
    report = run_sharded(
        _start_sender_factory, num_shards=3, lookahead=0.05, seed=1, backend=backend
    )
    assert report.processed == 3
    assert report.cross_messages == 3
    assert report.digests() == [[(0.05, 2)], [(0.05, 0)], [(0.05, 1)]]


# ----------------------------------------------------------------------
# Process-backend teardown hardening
# ----------------------------------------------------------------------


class SuicidalProgram(TokenRing):
    """Token ring whose shard 1 hard-kills its own worker mid-run,
    simulating an OOM-killed or segfaulted fork."""

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        if self.shard_id == 1 and hops_left < 20:
            os._exit(17)
        self._emit(ctx, token, hops_left)


class RaisingProgram(TokenRing):
    """Token ring whose shard 1 raises from a callback mid-run."""

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        if self.shard_id == 1 and hops_left < 20:
            raise RuntimeError("shard went sideways")
        self._emit(ctx, token, hops_left)


def _suicidal_factory(shard_id: int, num_shards: int, rng) -> SuicidalProgram:
    return SuicidalProgram(shard_id, num_shards)


def _raising_factory(shard_id: int, num_shards: int, rng) -> RaisingProgram:
    return RaisingProgram(shard_id, num_shards)


@pytest.mark.slow
def test_killed_worker_raises_shard_worker_error_and_leaves_no_orphans():
    """A worker that dies mid-run must surface as a clean ShardWorkerError
    (a DhtError-style library failure, not a hang or a raw EOFError),
    and every other worker must be torn down — no orphaned forks."""
    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(ShardWorkerError) as excinfo:
        run_sharded(
            _suicidal_factory, num_shards=3, lookahead=0.05, seed=9, backend="process"
        )
    assert "shard 1" in str(excinfo.value)
    assert "exitcode=17" in str(excinfo.value)
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in before and p.is_alive()
    ]
    assert not leaked, f"orphaned shard workers: {leaked}"


@pytest.mark.slow
def test_worker_exception_raises_shard_worker_error_with_detail():
    """A program exception inside a worker is reported over the pipe and
    re-raised as ShardWorkerError carrying the original message."""
    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(ShardWorkerError) as excinfo:
        run_sharded(
            _raising_factory, num_shards=3, lookahead=0.05, seed=9, backend="process"
        )
    assert "shard went sideways" in str(excinfo.value)
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in before and p.is_alive()
    ]
    assert not leaked, f"orphaned shard workers: {leaked}"


@pytest.mark.slow
def test_process_report_carries_ipc_timings():
    """Process-backend reports must label where wall time went: per-shard
    busy seconds plus IPC serialize/deserialize seconds."""
    report = run_sharded(
        _token_factory, num_shards=2, lookahead=0.05, seed=9, backend="process"
    )
    assert report.ipc_serialize_seconds > 0
    assert report.ipc_deserialize_seconds > 0
    for shard in report.shards:
        assert shard.ipc_serialize_seconds >= 0
        assert shard.ipc_deserialize_seconds >= 0
    sequential = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=9)
    assert sequential.ipc_serialize_seconds == 0.0
    assert sequential.ipc_deserialize_seconds == 0.0
