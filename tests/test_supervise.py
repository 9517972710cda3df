"""The supervision core under a fake clock: no real processes, no sleeps.

:class:`~repro.core.supervise.Pool` takes ``now`` on every decision and
its process context as an argument, so these tests drive it with fake
processes and ``SimpleNamespace`` heartbeats and step the clock by hand.
The real-process chaos paths stay covered by ``test_server.py`` and
``test_ingest.py``.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core import supervise
from repro.core.supervise import (
    DYING,
    FAILED,
    LIVE,
    RESTARTING,
    STARTING,
    STOPPED,
    Pool,
    RestartPolicy,
)
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.runner import RunnerOptions
from repro.streaming import WorkerPoolConfig
from repro.streaming.shards import ShardRunnerOptions


class FakeProcess:
    """Stands in for ``multiprocessing.Process``: alive until told not to be."""

    def __init__(self, target, args, name, daemon):
        self.target, self.args, self.name = target, args, name
        self.started = False
        self.exitcode = None
        self.killed = False

    def start(self):
        self.started = True

    def is_alive(self):
        return self.started and self.exitcode is None

    def kill(self):
        self.killed = True
        self.exitcode = -9

    def join(self, timeout_s=None):
        pass


FAKE_CTX = SimpleNamespace(
    Process=FakeProcess, Value=lambda typecode, value: SimpleNamespace(value=value)
)


def make_pool(n=1, **policy):
    """A started pool of ``n`` fake children at t = 0."""
    spawned = []

    def args(slot):
        spawned.append(slot.sid)
        return (slot.sid,)

    pool = Pool(n, RestartPolicy(**policy), lambda sid: None, args, ctx=FAKE_CTX)
    for slot in pool.slots:
        pool.spawn(slot, 0.0)
    pool.spawned = spawned
    return pool


def live(pool, sid=0):
    """Mark a slot live, as its ``ready`` message would."""
    slot = pool.slots[sid]
    slot.state = LIVE
    return slot


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: RestartPolicy(liveness_deadline_s=0.0), ConfigurationError),
        (lambda: RestartPolicy(max_restarts=-1), ConfigurationError),
        (lambda: RestartPolicy(backoff_s=0.0), ConfigurationError),
        (lambda: WorkerPoolConfig(liveness_deadline_s=0.0), ConfigurationError),
        (lambda: WorkerPoolConfig(max_restarts=-1), ConfigurationError),
        (lambda: WorkerPoolConfig(restart_backoff_s=0.0), ConfigurationError),
        (lambda: ShardRunnerOptions(liveness_deadline_s=0.0), ConfigurationError),
        (lambda: ShardRunnerOptions(max_restarts=-1), ConfigurationError),
        (lambda: ShardRunnerOptions(restart_backoff_s=0.0), ConfigurationError),
        # The runner names its own knobs (its backoff is fixed).
        (lambda: RunnerOptions(timeout_s=0.0), ExperimentError),
        (lambda: RunnerOptions(retries=-1), ExperimentError),
    ],
    ids=[
        "policy-liveness",
        "policy-restarts",
        "policy-backoff",
        "pool-liveness",
        "pool-restarts",
        "pool-backoff",
        "shards-liveness",
        "shards-restarts",
        "shards-backoff",
        "runner-timeout",
        "runner-retries",
    ],
)
def test_restart_policy_fields_are_validated_once(build, error):
    with pytest.raises(error):
        build()


def test_configs_hand_their_fields_to_one_policy():
    assert WorkerPoolConfig().policy() == RestartPolicy(3.0, 3, 0.1)
    assert ShardRunnerOptions().policy() == RestartPolicy(30.0, 3, 0.5)
    # A runner task's timeout is its deadline (none when unset), and its
    # retries are respawns.
    assert RunnerOptions().policy() == RestartPolicy(math.inf, 1, 0.25)
    assert RunnerOptions(timeout_s=600.0, retries=2).policy() == RestartPolicy(600.0, 2, 0.25)


def test_backoff_doubles_from_its_base():
    policy = RestartPolicy(backoff_s=0.1)
    assert [policy.delay(n) for n in (1, 2, 3)] == pytest.approx([0.1, 0.2, 0.4])


class TestCrashAndHang:
    def test_nonzero_exit_is_a_crash_at_once(self):
        pool = make_pool()
        slot = live(pool)
        slot.process.exitcode = 1
        assert pool.check(0.01) == [(slot, "crash")]
        assert slot.state == RESTARTING

    def test_stale_heartbeat_on_a_live_slot_is_a_hang_and_is_killed(self):
        pool = make_pool(liveness_deadline_s=3.0)
        slot = live(pool)
        assert pool.check(2.9) == []
        process = slot.process
        assert pool.check(3.1) == [(slot, "hang")]
        assert process.killed
        assert slot.state == RESTARTING

    def test_a_starting_slot_is_never_judged_hung(self):
        pool = make_pool(liveness_deadline_s=3.0)
        slot = pool.slots[0]
        assert slot.state == STARTING
        assert pool.check(100.0) == []
        assert not slot.process.killed

    def test_a_dying_slot_is_judged_for_hangs_and_respawned_on_death(self):
        pool = make_pool(n=2, liveness_deadline_s=3.0)
        exited, hung = pool.slots
        exited.state = hung.state = DYING
        exited.process.exitcode = -9
        assert pool.check(3.1) == [(exited, "crash"), (hung, "hang")]
        assert exited.state == hung.state == RESTARTING

    def test_fresh_heartbeats_keep_a_slot_alive(self):
        pool = make_pool(liveness_deadline_s=3.0)
        slot = live(pool)
        for now in (2.0, 4.0, 6.0):
            slot.heartbeat.value = now - 1.0
            assert pool.check(now) == []


class TestExitRule:
    def test_clean_exit_gets_a_grace_for_its_final_message(self):
        pool = make_pool()
        slot = live(pool)
        slot.process.exitcode = 0
        assert pool.check(5.0) == []
        assert pool.check(5.0 + supervise.EXIT_GRACE_S / 2) == []
        # The final message arrived within the grace: no crash at all.
        slot.state = STOPPED
        assert pool.check(5.0 + 2 * supervise.EXIT_GRACE_S) == []

    def test_clean_exit_without_a_final_message_is_a_crash_after_the_grace(self):
        pool = make_pool()
        slot = live(pool)
        slot.process.exitcode = 0
        assert pool.check(5.0) == []
        assert pool.check(5.0 + supervise.EXIT_GRACE_S) == [(slot, "crash")]


class TestRespawn:
    def test_backoff_schedule_and_restart_counter(self):
        pool = make_pool(backoff_s=0.1, max_restarts=3)
        slot = pool.slots[0]
        now = 0.0
        for n, delay in enumerate((0.1, 0.2, 0.4), start=1):
            live(pool).process.exitcode = 1
            assert pool.check(now) == [(slot, "crash")]
            # Scheduled is not performed: the counter waits for the respawn.
            assert slot.restarts == n - 1
            assert pool.check(now + delay - 1e-6) == []
            assert pool.check(now + delay) == [(slot, "respawned")]
            assert slot.restarts == n
            assert slot.state == STARTING
            now += delay
        assert pool.spawned == [0, 0, 0, 0]

    def test_budget_exhaustion_is_reported_exactly_once(self):
        pool = make_pool(max_restarts=1, backoff_s=0.1)
        slot = live(pool)
        slot.process.exitcode = 1
        assert pool.check(0.0) == [(slot, "crash")]
        assert pool.check(0.1) == [(slot, "respawned")]
        live(pool).process.exitcode = 1
        assert pool.check(0.2) == [(slot, "exhausted")]
        assert slot.state == FAILED
        assert pool.check(10.0) == []
        assert slot.restarts == 1

    def test_zero_budget_downgrades_on_the_first_death(self):
        pool = make_pool(n=2, max_restarts=0)
        dead, survivor = live(pool, 0), live(pool, 1)
        dead.process.exitcode = -9
        assert pool.check(0.0) == [(dead, "exhausted")]
        assert survivor.state == LIVE
        assert [slot.restarts for slot in pool.slots] == [0, 0]


class TestStop:
    def test_a_scheduled_respawn_never_happens_after_stop(self):
        pool = make_pool(backoff_s=0.1)
        slot = live(pool)
        slot.process.exitcode = 1
        assert pool.check(0.0) == [(slot, "crash")]
        pool.stop()
        assert pool.check(1.0) == []
        assert slot.state == STOPPED
        assert pool.spawned == [0]
        assert slot.restarts == 0

    def test_a_death_after_stop_is_reported_but_not_respawned(self):
        pool = make_pool(n=2)
        crashed, hung = live(pool, 0), live(pool, 1)
        pool.stop()
        crashed.process.exitcode = 1
        assert pool.check(10.0) == [(crashed, "crash"), (hung, "hang")]
        assert crashed.state == hung.state == STOPPED
        assert pool.check(20.0) == []
        assert pool.spawned == [0, 1]

    def test_close_kills_what_is_still_alive(self):
        pool = make_pool(n=2)
        pool.slots[0].process.exitcode = 0
        pool.close(0.0)
        assert [slot.process.killed for slot in pool.slots] == [False, True]
        assert not any(slot.alive() for slot in pool.slots)


def test_die_flushes_the_queue_before_the_sigkill(monkeypatch):
    calls = []
    queue = SimpleNamespace(
        close=lambda: calls.append("close"), join_thread=lambda: calls.append("join")
    )
    monkeypatch.setattr(supervise.os, "kill", lambda pid, sig: calls.append(sig))
    supervise.die(queue)
    assert calls == ["close", "join", supervise.signal.SIGKILL]
