"""Multi-worker serving: supervisor pool, TCP front end, fault injection.

The robustness contract under test: N worker processes answering from
one sealed snapshot must be indistinguishable (byte-for-byte, modulo
wall-clock ``latency_s``) from the single-process service — including
while workers are being killed, hung and respawned mid-stream, and a
mid-run worker kill must lose zero accepted requests.
"""

import asyncio
import faulthandler
import json
import pickle
import socket
import threading

import numpy as np
import pytest

from repro.errors import ServiceOverloadError, ServingError
from repro.streaming import (
    GateThresholds,
    OnlinePipeline,
    PredictionServer,
    PredictionService,
    ReplaySource,
    ServerConfig,
    ServiceConfig,
    Supervisor,
    WorkerPoolConfig,
    build_request,
    load_snapshot,
    save_snapshot,
)
from repro.streaming.loadtest import LoadTestConfig, run_loadtest

from tests.conftest import make_linear_dataset

SNAPSHOT = "test-server-pool"
MAX_HORIZON = 64

WIDE_GATE = GateThresholds(
    min_plausible_c=-1000.0, max_plausible_c=1000.0, max_step_c=1000.0
)


@pytest.fixture(scope="module")
def dataset():
    return make_linear_dataset(n_days=2.0, noise=0.01)


@pytest.fixture(scope="module", autouse=True)
def sealed_snapshot(dataset):
    """One trained pipeline, sealed under SNAPSHOT for every worker."""
    pipeline = OnlinePipeline(
        dataset.sensor_ids,
        dataset.channels.n_channels,
        order=2,
        gate_thresholds=WIDE_GATE,
    )
    pipeline.run(ReplaySource(dataset))
    key = save_snapshot(SNAPSHOT, pipeline)
    assert key is not None
    return key


def pool_config(**overrides):
    """Fast-timing pool config so failure paths resolve in test time."""
    base = dict(
        n_workers=2,
        snapshot_name=SNAPSHOT,
        max_queue=32,
        max_batch=4,
        max_horizon_ticks=MAX_HORIZON,
        liveness_deadline_s=1.5,
        request_timeout_s=5.0,
        max_restarts=3,
        restart_backoff_s=0.05,
        start_timeout_s=120.0,
    )
    base.update(overrides)
    return WorkerPoolConfig(**base)


def strip_latency(payload):
    return {k: v for k, v in payload.items() if k != "latency_s"}


def expected_payloads(payloads):
    """What the single-process PredictionService answers for `payloads`."""
    pipeline = load_snapshot(SNAPSHOT, required=True)
    service = PredictionService(
        pipeline, ServiceConfig(max_queue=64, max_batch=4, max_horizon_ticks=MAX_HORIZON)
    )
    held = pipeline.estimator.last_inputs()
    expected = {}
    for payload in payloads:
        request = build_request(payload, held, str(payload["id"]), MAX_HORIZON)
        service.submit(request)
        for response in service.drain():
            answered = strip_latency(response.to_payload())
            expected[answered["id"]] = answered
    return expected


class TestWorkerPoolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"max_queue": 0},
            {"max_batch": 0},
            {"request_timeout_s": 0.0},
        ],
    )
    def test_invalid_config_raises_typed_error(self, kwargs):
        with pytest.raises(ServingError):
            pool_config(**kwargs)


async def answer(future, timeout_s=30.0):
    """A pool future's response, bounded so a wedged pool fails the test."""
    return await asyncio.wait_for(future, timeout_s)


def planned_payloads(dataset, prefix, n, ticks=MAX_HORIZON):
    """``n`` planned ``ticks``-tick requests, as a controller sends them."""
    inputs = np.tile(dataset.inputs[-1], (ticks, 1)).tolist()
    return [{"id": f"{prefix}{i}", "inputs": inputs} for i in range(n)]


class TestSupervisor:
    def test_byte_identical_to_single_process_then_clean_drain(self):
        payloads = [{"id": f"r{i}", "horizon_ticks": 4 + i % 3} for i in range(12)]
        supervisor = Supervisor(pool_config())

        async def _run():
            try:
                await supervisor.start()
                assert supervisor.n_live == 2
                futures = [supervisor.submit(dict(p)) for p in payloads]
                answers = {
                    p["id"]: strip_latency(await answer(f)) for p, f in zip(payloads, futures)
                }
            finally:
                clean = await supervisor.drain(timeout_s=30.0)
            return answers, clean

        answers, clean = asyncio.run(_run())
        assert clean
        assert answers == expected_payloads(payloads)
        assert supervisor.stats.served == len(payloads)
        assert supervisor.stats.shed == 0
        assert supervisor.stats.failed == 0
        # A drained pool refuses new work with the typed error.
        with pytest.raises(ServingError):
            supervisor.submit({"id": "late", "horizon_ticks": 4})

    def test_worker_kill_mid_run_loses_no_accepted_requests(self):
        payloads = [{"id": f"k{i}", "horizon_ticks": 6} for i in range(30)]
        supervisor = Supervisor(pool_config())

        async def _run():
            try:
                await supervisor.start()
                futures = [supervisor.submit(dict(p)) for p in payloads]
                killed = supervisor.kill_worker()
                assert killed is not None
                answers = {
                    p["id"]: strip_latency(await answer(f)) for p, f in zip(payloads, futures)
                }
                # The restart counter moves only when the backoff timer
                # respawns the slot: wait for it to come back live.
                assert await supervisor._until(
                    lambda: supervisor.worker_states()[killed] == "live", 30.0
                )
                return answers
            finally:
                await supervisor.drain(timeout_s=30.0)

        answers = asyncio.run(_run())
        assert not any(slot.alive() for slot in supervisor._slots)
        # Every accepted request resolved with real predictions, and the
        # survivors' answers are byte-identical to the single process.
        assert answers == expected_payloads(payloads)
        assert supervisor.stats.served == len(payloads)
        assert supervisor.stats.restarts >= 1
        assert supervisor.stats.failed == 0
        assert supervisor.stats.deadline_misses == 0

    def test_full_queues_shed_with_typed_overload_error(self):
        supervisor = Supervisor(pool_config(n_workers=1, max_queue=1))

        async def _run():
            try:
                await supervisor.start()
                # Stall the only worker so the first request stays in flight.
                supervisor.hang_worker(0.5)
                first = supervisor.submit({"id": "held", "horizon_ticks": 4})
                with pytest.raises(ServiceOverloadError):
                    supervisor.submit({"id": "shed-me", "horizon_ticks": 4})
                assert supervisor.stats.shed == 1
                # The shed is attributed to the saturated worker too.
                assert supervisor.per_worker_stats()[0]["shed"] == 1
                assert "predictions" in await answer(first)
            finally:
                await supervisor.drain(timeout_s=30.0)

        asyncio.run(_run())

    def test_per_worker_stats_report_depth_restarts_and_sheds(self):
        supervisor = Supervisor(pool_config(n_workers=1))

        async def _run():
            try:
                await supervisor.start()
                # Stall the only worker so the in-flight count is observable.
                supervisor.hang_worker(0.5)
                future = supervisor.submit({"id": "pw", "horizon_ticks": 4})
                per_worker = supervisor.per_worker_stats()
                assert set(per_worker) == {0}
                stats = per_worker[0]
                assert set(stats) == {"state", "queue_depth", "restarts", "shed"}
                assert stats["queue_depth"] == 1
                assert stats["restarts"] == 0
                assert stats["shed"] == 0
                assert "predictions" in await answer(future)
                payload = supervisor.stats_dict()
                assert set(payload["per_worker"]) == {"0"}
                assert payload["per_worker"]["0"]["state"] in ("live", "starting")
            finally:
                await supervisor.drain(timeout_s=30.0)

        asyncio.run(_run())

    def test_no_thread_before_while_serving_or_after_a_respawn(self):
        supervisor = Supervisor(pool_config())

        async def _run():
            before = threading.active_count()
            try:
                await supervisor.start()
                assert threading.active_count() == before
                future = supervisor.submit({"id": "t0", "horizon_ticks": 4})
                assert "predictions" in await answer(future)
                assert threading.active_count() == before
                killed = supervisor.kill_worker()
                assert await supervisor._until(
                    lambda: supervisor._slots[killed].restarts == 1
                    and supervisor.worker_states()[killed] == "live",
                    30.0,
                )
                future = supervisor.submit({"id": "t1", "horizon_ticks": 4})
                assert "predictions" in await answer(future)
                assert threading.active_count() == before
            finally:
                await supervisor.drain(timeout_s=30.0)
            assert threading.active_count() == before

        asyncio.run(_run())
        assert supervisor.stats.restarts == 1

    def test_a_hung_worker_with_a_full_pipe_does_not_stall_the_loop(self, dataset):
        """About 100 planned 64-tick requests, half of them to a hung worker:
        far more than its pipe holds, so a blocking write would stall the
        loop until the worker woke.  The other worker's answers arrive
        within one request timeout, and the hung worker's requests come
        back through the timeout retry."""
        timeout_s = 1.0
        payloads = planned_payloads(dataset, "s", 100)
        supervisor = Supervisor(
            pool_config(max_queue=64, request_timeout_s=timeout_s, liveness_deadline_s=30.0)
        )

        async def _run():
            try:
                await supervisor.start()
                hung = supervisor.hang_worker(2.0)
                futures = {p["id"]: supervisor.submit(dict(p)) for p in payloads}
                on_hung = {
                    entry.payload["id"]
                    for entry in supervisor._inflight.values()
                    if entry.worker_id == hung
                }
                # More than a 64 KiB pipe buffer waits for the hung worker.
                held_bytes = sum(
                    len(pickle.dumps(("req", 0, p))) for p in payloads if p["id"] in on_hung
                )
                assert held_bytes > 65536
                others = [f for rid, f in futures.items() if rid not in on_hung]
                done, _ = await asyncio.wait(others, timeout=timeout_s)
                assert len(done) == len(others) == len(payloads) - len(on_hung)
                answers = {rid: strip_latency(await answer(f)) for rid, f in futures.items()}
            finally:
                clean = await supervisor.drain(timeout_s=30.0)
            return answers, on_hung, clean

        # A loop blocked on the full pipe would deadlock with the worker
        # once it wakes and writes answers: exit 1 then, rather than hang.
        faulthandler.dump_traceback_later(120.0, exit=True)
        try:
            answers, on_hung, clean = asyncio.run(_run())
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert clean
        assert len(on_hung) == len(payloads) // 2
        assert answers == expected_payloads(payloads)
        assert supervisor.stats.retried >= len(on_hung)
        assert supervisor.stats.deadline_misses == 0
        assert supervisor.stats.restarts == 0


class TestUnbufferedSnapshot:
    """A snapshot whose pipeline holds no temperature buffer to seed from."""

    NAME = "test-server-unbuffered"

    @pytest.fixture(scope="class", autouse=True)
    def unbuffered_snapshot(self, sealed_snapshot):
        pipeline = load_snapshot(SNAPSHOT, required=True)
        pipeline.estimator.reset_history()
        assert pipeline.estimator.history() is None
        assert save_snapshot(self.NAME, pipeline) is not None

    def test_request_without_history_is_rejected_and_the_pool_stays_healthy(
        self, dataset
    ):
        pipeline = load_snapshot(self.NAME, required=True)
        planned = np.tile(dataset.inputs[-1], (5, 1)).tolist()
        history = dataset.temperatures[-2:].tolist()
        good = [{"id": f"g{i}", "inputs": planned, "history": history} for i in range(4)]
        bad = {"id": "no-history", "inputs": planned}
        service = PredictionService(
            pipeline, ServiceConfig(max_queue=64, max_batch=4, max_horizon_ticks=MAX_HORIZON)
        )
        expected = {
            p["id"]: strip_latency(
                service.handle(build_request(p, None, p["id"], MAX_HORIZON)).to_payload()
            )
            for p in good
        }
        supervisor = Supervisor(pool_config(snapshot_name=self.NAME))

        async def _run():
            try:
                await supervisor.start()
                futures = [supervisor.submit(dict(p)) for p in good[:2] + [bad] + good[2:]]
                answers = [await answer(f) for f in futures]
                # The pool survives: a later request on it is still answered.
                after = await answer(supervisor.submit(dict(good[0], id="after")))
                assert supervisor.n_live == 2
            finally:
                clean = await supervisor.drain(timeout_s=30.0)
            return answers, after, clean

        answers, after, clean = asyncio.run(_run())
        assert clean
        rejected = answers.pop(2)
        assert rejected["id"] == "no-history"
        assert "no buffered state" in rejected["error"]
        assert {a["id"]: strip_latency(a) for a in answers} == expected
        assert "predictions" in after
        assert supervisor.stats.rejected == 1
        assert supervisor.stats.served == len(good) + 1
        assert supervisor.stats.restarts == 0
        assert supervisor.stats.failed == 0


async def _client_lines(port, lines):
    """Send JSON lines to the server; returns responses in read order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for line in lines:
        writer.write(line.encode() + b"\n")
    await writer.drain()
    writer.write_eof()
    responses = [json.loads(raw) async for raw in reader if raw.strip()]
    writer.close()
    return responses


class TestPredictionServer:
    def test_tcp_round_trip_parity_controls_and_final_snapshot(self):
        payloads = [{"id": f"t{i}", "horizon_ticks": 5} for i in range(6)]
        final_name = "test-server-final"
        config = ServerConfig(
            port=0, pool=pool_config(), final_snapshot=final_name, allow_chaos=False
        )

        async def _run():
            server = PredictionServer(config)
            port = await server.start()
            lines = (
                ['{"control": "ping"}', "not json"]
                + [json.dumps(p) for p in payloads]
                + ['{"control": "kill-worker"}', '{"control": "stats"}']
            )
            responses = await _client_lines(port, lines)
            summary = await server.shutdown()
            return server, responses, summary

        server, responses, summary = asyncio.run(_run())
        # Responses come back in request order on one connection.
        ping, bad, *rest = responses
        answers, chaos, stats = rest[: len(payloads)], rest[-2], rest[-1]
        assert ping == {"control": "ping", "workers_live": 2}
        assert "invalid JSON" in bad["error"]
        assert {
            a["id"]: strip_latency(a) for a in answers
        } == expected_payloads(payloads)
        # Chaos commands are refused unless explicitly enabled.
        assert chaos["error"] == "chaos commands are disabled"
        # The stats snapshot is taken when its line is *accepted*, so
        # late predictions may still be in flight — line counters are
        # the deterministic part (all 10 lines were read by then).
        assert stats["stats"]["lines"] == len(payloads) + 4
        assert stats["stats"]["bad_lines"] == 1
        assert summary["drain_clean"] is True
        assert summary["served"] == len(payloads)
        # Graceful shutdown sealed the final named snapshot.
        assert server.final_snapshot_key is not None
        assert load_snapshot(final_name) is not None

    def test_a_port_in_use_stops_the_workers_it_started(self):
        # Workers ignore SIGINT/SIGTERM, so any left running would also
        # hang this process's exit.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = ServerConfig(port=taken.getsockname()[1], pool=pool_config())
            server = PredictionServer(config)
            with pytest.raises(OSError):
                asyncio.run(server.start())
        assert not any(slot.alive() for slot in server.supervisor._slots)

    def test_loadtest_with_injected_worker_kill_loses_nothing(self):
        config = ServerConfig(
            port=0, pool=pool_config(), final_snapshot=None, allow_chaos=True
        )
        started = threading.Event()
        holder = {}

        def _serve():
            async def _main():
                server = PredictionServer(config)
                holder["port"] = await server.start()
                started.set()
                holder["summary"] = await server.serve_until_shutdown()

            try:
                asyncio.run(_main())
            except Exception as exc:  # surfaced to the main thread
                holder["error"] = exc
                started.set()

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert started.wait(timeout=120.0)
        if "error" in holder:
            raise holder["error"]
        result = run_loadtest(
            LoadTestConfig(
                port=holder["port"],
                n_requests=40,
                rate_rps=200.0,
                n_connections=3,
                horizon_ticks=6,
                kill_worker_after_s=0.05,
                shutdown_after=True,
            )
        )
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        summary = holder["summary"]
        # The acceptance claim: a SIGKILLed worker mid-run loses zero
        # accepted requests — every one of them is served.
        assert result.lost == 0
        assert result.served == 40
        assert result.killed_worker is not None
        assert summary["restarts"] >= 1
        assert summary["drain_clean"] is True
        assert summary["reason"] == "control command"


class TestLoadTestConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"n_requests": 0}, {"n_connections": 0}, {"horizon_ticks": 0}]
    )
    def test_invalid_config_raises_typed_error(self, kwargs):
        with pytest.raises(ServingError):
            LoadTestConfig(**kwargs)
