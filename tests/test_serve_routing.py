"""Worker-pool routing under a fake clock: no worker processes, no sleeps.

:class:`~repro.streaming.supervisor.Supervisor` runs on one asyncio loop
and takes every routing decision with an explicit ``now``.  These tests
give its pool a fake process context: each worker is an in-process
reader on the test's own loop that answers over the incarnation's real
pipes in :func:`~repro.streaming.supervisor.worker_main`'s message
tuples.  The clock is a number the test steps by hand
(:meth:`Harness.advance` fires the supervisor's timer at the new time),
and :meth:`Harness.settle` only lets the loop run the pipe hops already
queued: zero-length yields, never a wall-clock wait.  The real-process
paths (byte parity with ``PredictionService``, a real SIGKILL and
respawn, the pipe-full guard) stay in ``test_server.py``.
"""

import asyncio
import multiprocessing
import os
from multiprocessing.connection import Connection
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceOverloadError, ServingError
from repro.streaming import WorkerPoolConfig
from repro.streaming import state as state_mod
from repro.streaming import supervisor as supervisor_mod
from repro.streaming.supervisor import Supervisor

#: Loop iterations that carry any chain of messages across the pipes.
HOPS = 32


def answer_of(request_id):
    """What every fake worker answers: a function of the request alone."""
    return {"id": request_id, "predictions": [len(request_id)]}


class FakeWorker:
    """One worker incarnation as an in-process reader on the test's loop.

    It holds its own copies of the child's pipe ends, as a spawned child
    does, so the parent closing its copies leaves EOF semantics intact.
    Like ``worker_main`` it answers a batch after reading it: ``die``
    exits before answering any of the batch, ``hang`` stops reading and
    beating until :meth:`resume`, ``stop`` answers, says ``bye`` and
    exits.  Its sentinel is a pipe that turns readable at exit.
    """

    def __init__(self, harness, args):
        _, self.heartbeat, (self.wid, _, requests, responses, _, _) = args
        self.requests = Connection(os.dup(requests.fileno()), writable=False)
        self.responses = Connection(os.dup(responses.fileno()), readable=False)
        self.harness = harness
        self.exitcode = None
        self.hung = False
        self.held = []
        self.sentinel, self._alive = os.pipe()
        harness.sentinels.append(self.sentinel)

    def start(self):
        self.loop = asyncio.get_running_loop()
        self.harness.workers.append(self)
        self.heartbeat.value = self.harness.now
        self.loop.add_reader(self.requests.fileno(), self._read)
        self.responses.send(("ready", self.wid))

    def is_alive(self):
        return self.exitcode is None

    def kill(self):
        self.exit(-9)

    def join(self, timeout_s=None):
        pass

    def exit(self, code):
        if self.exitcode is None:
            self.loop.remove_reader(self.requests.fileno())
            for conn in (self.requests, self.responses):
                conn.close()
            os.close(self._alive)
            self.exitcode = code

    def resume(self):
        self.hung = False
        self.heartbeat.value = self.harness.now
        self.loop.add_reader(self.requests.fileno(), self._read)
        self._answer()

    def _read(self):
        batch = []
        try:
            while self.requests.poll():
                batch.append(self.requests.recv())
        except EOFError:
            self.exit(0)
            return
        kinds = [message[0] for message in batch]
        if "die" in kinds:
            self.exit(-9)
            return
        self.held += [message for message in batch if message[0] == "req"]
        if "hang" in kinds:
            self.hung = True
            self.loop.remove_reader(self.requests.fileno())
            return
        self._answer()
        if "stop" in kinds:
            self.responses.send(("bye", self.wid, {"served": 0}))
            self.exit(0)

    def _answer(self):
        for _, seq, payload in self.held:
            self.responses.send(("ok", seq, self.wid, answer_of(payload["id"])))
        self.held = []


class Harness:
    """A :class:`Supervisor` on fake workers and a hand-stepped clock."""

    def __init__(self, monkeypatch, **overrides):
        config = dict(
            n_workers=2,
            max_queue=4,
            max_batch=4,
            liveness_deadline_s=3.0,
            request_timeout_s=5.0,
            max_restarts=2,
            restart_backoff_s=0.1,
        )
        config.update(overrides)
        self.now = 0.0
        self.workers, self.sentinels = [], []
        monkeypatch.setattr(supervisor_mod, "time", SimpleNamespace(monotonic=lambda: self.now))
        monkeypatch.setattr(state_mod, "load_snapshot", lambda name, required=False: None)
        self.sup = Supervisor(WorkerPoolConfig(**config))
        self.sup._pool.ctx = SimpleNamespace(
            Process=lambda target, args, name, daemon: FakeWorker(self, args),
            Value=lambda typecode, value: SimpleNamespace(value=value),
            Pipe=multiprocessing.Pipe,
        )

    def worker(self, wid):
        """The current incarnation of worker ``wid``."""
        return [worker for worker in self.workers if worker.wid == wid][-1]

    def spawns(self, wid):
        return sum(worker.wid == wid for worker in self.workers)

    async def start(self):
        await self.sup.start()
        await self.settle()

    async def settle(self):
        for _ in range(HOPS):
            await asyncio.sleep(0)

    async def advance(self, seconds):
        """Step the clock; every worker that is not hung has beaten meanwhile."""
        self.now += seconds
        for worker in self.workers:
            if worker.is_alive() and not worker.hung:
                worker.heartbeat.value = self.now
        self.sup._arm(self.now, self.now)
        await self.settle()

    def close(self):
        for fd in self.sentinels:
            os.close(fd)


@pytest.fixture
def harness(monkeypatch):
    made = []

    def _make(**overrides):
        made.append(Harness(monkeypatch, **overrides))
        return made[-1]

    yield _make
    for each in made:
        each.close()


def depths(sup):
    return {wid: stats["queue_depth"] for wid, stats in sup.per_worker_stats().items()}


def test_dispatch_round_robins_over_live_workers(harness):
    h = harness()

    async def _run():
        await h.start()
        futures = [h.sup.submit({"id": f"r{i}"}) for i in range(4)]
        assert depths(h.sup) == {0: 2, 1: 2}
        await h.settle()
        assert [f.result() for f in futures] == [answer_of(f"r{i}") for i in range(4)]
        assert depths(h.sup) == {0: 0, 1: 0}
        assert await h.sup.drain()

    asyncio.run(_run())
    assert (h.sup.stats.served, h.sup.stats.retried, h.sup.stats.shed) == (4, 0, 0)
    assert h.sup.worker_states() == {0: "stopped", 1: "stopped"}
    assert set(h.sup.worker_service_stats()) == {0, 1}


def test_a_request_parks_during_a_restart_and_runs_on_the_respawn(harness):
    h = harness(n_workers=1)

    async def _run():
        await h.start()
        assert h.sup.kill_worker() == 0
        future = h.sup.submit({"id": "parked"})
        assert h.sup.pending() == 1
        await h.settle()
        # The worker read "die" and exited; its respawn waits out the backoff.
        assert h.sup.worker_states() == {0: "restarting"}
        assert not future.done()
        await h.advance(0.1)
        assert future.result() == answer_of("parked")
        assert await h.sup.drain()

    asyncio.run(_run())
    # A parked first attempt is not a retry; the respawn is counted once.
    assert (h.sup.stats.shed, h.sup.stats.retried, h.sup.stats.restarts) == (0, 0, 1)
    assert h.spawns(0) == 2


def test_a_timeout_retries_once_on_another_worker_then_answers_deadline(harness):
    h = harness(liveness_deadline_s=60.0)

    async def _run():
        await h.start()
        h.sup.hang_worker(60.0, 0)
        h.sup.hang_worker(60.0, 1)
        future = h.sup.submit({"id": "slow"})
        (first,) = [wid for wid, depth in depths(h.sup).items() if depth]
        await h.settle()
        await h.advance(4.9)
        assert not future.done() and h.sup.stats.retried == 0
        await h.advance(0.1)
        assert depths(h.sup) == {first: 0, 1 - first: 1}
        assert h.sup.stats.retried == 1
        await h.advance(5.0)
        assert future.result() == {"id": "slow", "error": "deadline"}

    asyncio.run(_run())
    assert h.sup.stats.deadline_misses == 1
    assert h.sup.stats.served == 0


def test_the_first_answer_wins_and_a_late_duplicate_is_dropped(harness):
    h = harness(liveness_deadline_s=60.0)

    async def _run():
        await h.start()
        future = h.sup.submit({"id": "dup"})
        (first,) = [wid for wid, depth in depths(h.sup).items() if depth]
        h.sup.hang_worker(60.0, first)
        await h.settle()
        await h.advance(5.0)  # retried on the other worker, which answers
        assert future.result() == answer_of("dup")
        h.worker(first).resume()  # the first worker's answer comes late
        await h.settle()
        assert future.result() == answer_of("dup")
        assert h.sup.pending() == 0

    asyncio.run(_run())
    assert (h.sup.stats.served, h.sup.stats.retried) == (1, 1)


def test_a_crashed_workers_requests_are_redispatched_to_the_survivor(harness):
    h = harness(liveness_deadline_s=60.0)

    async def _run():
        await h.start()
        h.sup.hang_worker(60.0, 0)
        await h.settle()
        futures = [h.sup.submit({"id": f"o{i}"}) for i in range(4)]
        assert depths(h.sup) == {0: 2, 1: 2}
        await h.settle()
        h.worker(0).exit(1)  # a crash with two requests unanswered
        await h.settle()
        assert h.sup.worker_states()[0] == "restarting"
        assert [f.result() for f in futures] == [answer_of(f"o{i}") for i in range(4)]
        await h.advance(0.1)
        assert h.sup.worker_states()[0] == "live"

    asyncio.run(_run())
    assert (h.sup.stats.served, h.sup.stats.retried, h.sup.stats.restarts) == (4, 2, 1)


def test_a_hung_worker_is_killed_and_its_requests_move(harness):
    h = harness(liveness_deadline_s=3.0)

    async def _run():
        await h.start()
        h.sup.hang_worker(60.0, 0)
        await h.settle()
        futures = [h.sup.submit({"id": f"h{i}"}) for i in range(2)]
        await h.settle()
        assert sum(f.done() for f in futures) == 1
        await h.advance(3.1)
        assert h.worker(0).exitcode == -9
        assert [f.result() for f in futures] == [answer_of(f"h{i}") for i in range(2)]

    asyncio.run(_run())
    assert (h.sup.stats.retried, h.sup.stats.deadline_misses) == (1, 0)


def test_exhaustion_ends_failed_exactly_once_and_survivors_serve(harness):
    h = harness(max_restarts=0)

    async def _run():
        await h.start()
        h.sup.kill_worker(0)
        await h.settle()
        assert h.sup.worker_states() == {0: "failed", 1: "live"}
        await h.advance(10.0)
        assert h.sup.worker_states() == {0: "failed", 1: "live"}
        assert h.spawns(0) == 1
        future = h.sup.submit({"id": "after"})
        await h.settle()
        assert future.result() == answer_of("after")
        # The last worker goes too, while a request is parked on it.
        h.sup.kill_worker(1)
        parked = h.sup.submit({"id": "parked"})
        await h.settle()
        assert parked.result() == {"id": "parked", "error": "no worker available (exhausted)"}
        with pytest.raises(ServingError):
            h.sup.submit({"id": "refused"})
        await h.advance(10.0)
        assert await h.sup.drain()

    asyncio.run(_run())
    assert h.sup.worker_states() == {0: "failed", 1: "failed"}
    assert (h.sup.stats.restarts, h.sup.stats.failed, h.sup.stats.served) == (0, 1, 1)


def test_drain_returns_when_the_last_answer_arrives(harness):
    h = harness(liveness_deadline_s=60.0)

    async def _run():
        await h.start()
        h.sup.hang_worker(60.0, 0)
        await h.settle()
        futures = [h.sup.submit({"id": f"d{i}"}) for i in range(2)]
        drain = asyncio.ensure_future(h.sup.drain(timeout_s=60.0))
        await h.settle()
        assert not drain.done()
        with pytest.raises(ServingError):
            h.sup.submit({"id": "late"})
        h.worker(0).resume()
        await h.settle()
        assert drain.done() and drain.result() is True
        assert [f.result() for f in futures] == [answer_of(f"d{i}") for i in range(2)]

    asyncio.run(_run())
    assert h.sup.worker_states() == {0: "stopped", 1: "stopped"}
    assert not any(worker.is_alive() for worker in h.workers)


#: A drawn event: a chaos hook, an overload burst, a drain, or a clock
#: step (seconds); the chaos hooks are drawn twice as often.
EVENTS = st.sampled_from(["die", "die", "hang", "hang", "overload", "drain", 0.1, 1.0, 3.5, 5.5])


@st.composite
def schedules(draw):
    """``(n_requests, [(request index, event), ...])``."""
    n_requests = draw(st.integers(1, 16))
    index = st.integers(0, n_requests - 1)
    return n_requests, draw(st.lists(st.tuples(index, EVENTS), max_size=12))


@settings(max_examples=150, deadline=None)
@given(n_workers=st.integers(1, 3), max_restarts=st.integers(0, 2), drawn=schedules())
def test_no_accepted_request_is_lost_on_any_schedule(n_workers, max_restarts, drawn):
    n_requests, schedule = drawn
    with pytest.MonkeyPatch.context() as monkeypatch:
        h = Harness(monkeypatch, n_workers=n_workers, max_restarts=max_restarts, max_queue=2)
        try:
            accepted, clean = asyncio.run(_drive(h, n_requests, schedule))
        finally:
            h.close()
    for request_id, future in accepted.items():
        response = future.result()  # raises if the request was never resolved
        assert response["id"] == request_id
        if "error" in response:
            error = response["error"]
            assert error == "deadline" or error.startswith("no worker available ("), response
        else:
            assert response == answer_of(request_id)
    assert clean
    served = sum("error" not in future.result() for future in accepted.values())
    assert h.sup.stats.served == served
    respawns = len(h.workers) - n_workers
    for counter, value in h.sup.stats.as_dict().items():
        event(f"{counter} {'> 0' if value else '= 0'}")
    assert h.sup.stats.restarts == respawns
    assert sum(slot.restarts for slot in h.sup._slots) == respawns


async def _drive(h, n_requests, schedule):
    """Submit requests with the drawn events before them, then drain."""
    await h.start()
    accepted = {}

    def offer(request_id):
        try:
            accepted[request_id] = h.sup.submit({"id": request_id})
            return True
        except (ServiceOverloadError, ServingError):
            return False

    drain_at = min((i for i, event in schedule if event == "drain"), default=n_requests)
    for i in range(drain_at):
        for index, event in schedule:
            if index != i:
                continue
            if event == "die":
                h.sup.kill_worker()
            elif event == "hang":
                h.sup.hang_worker(60.0)
            elif event == "overload":
                while offer(f"b{len(accepted)}"):
                    pass
            else:
                await h.advance(event)
        offer(f"q{i}")
        await h.settle()
    drain = asyncio.ensure_future(h.sup.drain(timeout_s=600.0))
    for _ in range(100):
        if drain.done():
            break
        await h.advance(1.0)
    assert drain.done()
    return accepted, drain.result()
