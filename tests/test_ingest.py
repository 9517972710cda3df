"""Partitioned ingestion: bus, partition planning, sharded runner.

The load-bearing claims:

* the bus is lossless under ``block`` (backpressure, not drops) and
  every overflow outcome is accounted;
* :func:`interleave` is seeded-deterministic across runs and never
  reorders any single topic's stream;
* an :class:`IngestPlan` routes every building to a stable shard and
  derives a content-addressed snapshot namespace;
* the sharded runner's per-building record logs are byte-identical to
  the plain serial reference — including across a crash/respawn and a
  snapshot resume — which is the subsystem's determinism contract.
"""

import pytest

from repro.errors import StreamingError
from repro.streaming import (
    BusConfig,
    EventBus,
    IngestPlan,
    Partition,
    PartitionSpec,
    ShardRunnerOptions,
    StreamTick,
    TickRecord,
    interleave,
    record_line,
    run_ingest,
    run_partition_serial,
    run_serial,
    shard_of,
    verify_parity,
)
from repro.streaming.shards import _PartitionRun, _truncate_records

#: A tiny plan: two buildings, a quarter day, two shards.
SMALL = IngestPlan(n_buildings=2, days=0.25, n_shards=2)


def tick(i: int) -> StreamTick:
    return StreamTick(
        index=i, seconds=i * 900.0, temperatures=[20.0 + i], inputs=[0.0]
    )


class TestBusConfig:
    def test_bad_bounds_rejected(self):
        with pytest.raises(StreamingError):
            BusConfig(max_queue_ticks=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(StreamingError):
            BusConfig(policy="explode")


class TestPartition:
    def test_fifo_order_and_accounting(self):
        part = Partition("green-00", BusConfig(max_queue_ticks=8))
        for i in range(3):
            assert part.offer(tick(i))
        assert [part.poll().index for _ in range(3)] == [0, 1, 2]
        assert part.poll() is None
        assert part.stats.published == 3
        assert part.stats.consumed == 3
        assert part.stats.high_water == 3
        assert part.stats.dropped == 0

    def test_block_policy_refuses_and_counts(self):
        part = Partition("green-00", BusConfig(max_queue_ticks=2, policy="block"))
        assert part.offer(tick(0)) and part.offer(tick(1))
        assert not part.offer(tick(2))
        assert part.stats.blocked == 1
        assert len(part) == 2
        # Draining one makes room; nothing was lost.
        assert part.poll().index == 0
        assert part.offer(tick(2))
        assert [part.poll().index, part.poll().index] == [1, 2]
        assert part.stats.dropped == 0

    def test_drop_newest_discards_the_offer(self):
        part = Partition("b", BusConfig(max_queue_ticks=1, policy="drop_newest"))
        assert part.offer(tick(0))
        assert part.offer(tick(1))  # "succeeds" but is dropped
        assert part.stats.dropped == 1
        assert part.poll().index == 0

    def test_drop_oldest_evicts_the_head(self):
        part = Partition("b", BusConfig(max_queue_ticks=1, policy="drop_oldest"))
        assert part.offer(tick(0))
        assert part.offer(tick(1))
        assert part.stats.dropped == 1
        assert part.poll().index == 1

    def test_empty_topic_rejected(self):
        with pytest.raises(StreamingError):
            Partition("", BusConfig())


class TestEventBus:
    def test_partitions_on_demand_and_stats(self):
        bus = EventBus(BusConfig(max_queue_ticks=4))
        bus.publish("b", tick(0))
        bus.publish("a", tick(0))
        bus.publish("a", tick(1))
        assert bus.topics == ("a", "b")
        assert bus.backlog() == 3
        stats = bus.stats_dict()
        assert stats["a"]["published"] == 2
        assert stats["b"]["published"] == 1


class TestInterleave:
    def streams(self):
        return {
            "green-00": [tick(i) for i in range(5)],
            "cupples-01": [tick(i) for i in range(3)],
            "bryan-02": [tick(i) for i in range(4)],
        }

    def test_same_seed_same_order(self):
        first = [(t, s.index) for t, s in interleave(self.streams(), seed=7)]
        second = [(t, s.index) for t, s in interleave(self.streams(), seed=7)]
        assert first == second
        assert len(first) == 12

    def test_different_seeds_differ(self):
        orders = {
            tuple(t for t, _ in interleave(self.streams(), seed=seed))
            for seed in range(8)
        }
        assert len(orders) > 1

    def test_per_topic_order_preserved(self):
        for topic in self.streams():
            indices = [
                s.index
                for t, s in interleave(self.streams(), seed=3)
                if t == topic
            ]
            assert indices == sorted(indices)


class TestShardOf:
    def test_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for topic in ("green-00", "cupples-01", "bryan-02"):
                shard = shard_of(topic, n)
                assert 0 <= shard < n
                assert shard == shard_of(topic, n)

    def test_single_shard_takes_everything(self):
        assert shard_of("anything", 1) == 0

    def test_zero_shards_rejected(self):
        with pytest.raises(StreamingError):
            shard_of("green-00", 0)


class TestRecordLine:
    def test_canonical_bytes(self):
        record = TickRecord(
            index=3,
            updated=True,
            quarantined={8: "stale", 1: "range"},
            innovation_rms=0.25,
            drift_fired=False,
        )
        line = record_line(record)
        assert line == (
            b'{"drift_fired":false,"index":3,"innovation_rms":0.25,'
            b'"quarantined":{"1":"range","8":"stale"},"updated":true}\n'
        )
        assert record_line(record) == line


class TestIngestPlan:
    def test_validation(self):
        with pytest.raises(StreamingError):
            IngestPlan(n_buildings=0)
        with pytest.raises(StreamingError):
            IngestPlan(n_shards=0)
        with pytest.raises(StreamingError):
            IngestPlan(snapshot_every_ticks=0)

    def test_one_partition_per_building_in_fleet_order(self):
        partitions = SMALL.partitions()
        assert [p.topic for p in partitions] == [
            spec.name for spec in SMALL.buildings()
        ]
        assert all(isinstance(p, PartitionSpec) for p in partitions)

    def test_assignment_covers_every_shard(self):
        plan = IngestPlan(n_buildings=2, days=0.25, n_shards=5)
        assignment = plan.assignment()
        assert set(assignment) == set(range(5))
        routed = [spec.topic for specs in assignment.values() for spec in specs]
        assert sorted(routed) == sorted(p.topic for p in plan.partitions())
        for shard, specs in assignment.items():
            for spec in specs:
                assert shard_of(spec.topic, 5) == shard

    def test_namespace_tracks_content_not_shards(self):
        base = IngestPlan(n_buildings=2, days=0.25, n_shards=2)
        assert base.namespace() == IngestPlan(
            n_buildings=2, days=0.25, n_shards=4
        ).namespace()
        assert base.namespace() != IngestPlan(
            n_buildings=3, days=0.25, n_shards=2
        ).namespace()
        assert base.namespace() != IngestPlan(
            n_buildings=2, days=0.25, n_shards=2, seed=1
        ).namespace()


class TestTruncateRecords:
    def test_missing_log_with_empty_snapshot_is_created(self, tmp_path):
        path = tmp_path / "a.records.jsonl"
        _truncate_records(path, 0)
        assert path.read_bytes() == b""

    def test_missing_log_with_ticks_refused(self, tmp_path):
        with pytest.raises(StreamingError):
            _truncate_records(tmp_path / "a.records.jsonl", 3)

    def test_extra_and_partial_lines_cut(self, tmp_path):
        path = tmp_path / "a.records.jsonl"
        path.write_bytes(b"one\ntwo\nthree\nhalf-a-rec")
        _truncate_records(path, 2)
        assert path.read_bytes() == b"one\ntwo\n"

    def test_fewer_complete_lines_than_snapshot_refused(self, tmp_path):
        path = tmp_path / "a.records.jsonl"
        path.write_bytes(b"one\ntwo-but-cut")
        with pytest.raises(StreamingError):
            _truncate_records(path, 2)


class TestPartitionRunResume:
    """The snapshot-resume machinery, exercised in-process."""

    def test_interrupted_partition_resumes_byte_identical(self, tmp_path):
        spec = SMALL.partitions()[0]
        namespace = SMALL.namespace() + "-test-resume"
        reference = tmp_path / "serial" / spec.records_name
        run_partition_serial(spec, reference)

        # First incarnation: process part of the stream, seal, "crash"
        # (close the handle without draining the rest).
        first = _PartitionRun(spec, namespace, tmp_path / "sharded", resume=False)
        ticks = list(spec.source())
        cut = len(ticks) // 2
        assert cut > 0
        for t in ticks[:cut]:
            first.process(t, seal_every=4)
        first.seal()
        first.handle.close()

        # Second incarnation resumes from the snapshot: it replays the
        # deterministic source and skips what was already processed.
        second = _PartitionRun(spec, namespace, tmp_path / "sharded", resume=True)
        assert second.skip == cut
        for t in spec.source():
            if t.index < second.skip:
                continue
            second.process(t, seal_every=4)
        second.close()

        sharded = (tmp_path / "sharded" / spec.records_name).read_bytes()
        assert sharded == reference.read_bytes()

    def test_unsealed_tail_is_truncated_on_resume(self, tmp_path):
        spec = SMALL.partitions()[0]
        namespace = SMALL.namespace() + "-test-tail"
        first = _PartitionRun(spec, namespace, tmp_path, resume=False)
        ticks = list(spec.source())
        for t in ticks[:4]:
            first.process(t, seal_every=3)  # last seal at tick 3
        first.handle.flush()
        first.handle.close()
        # The log holds 4 records but the snapshot only covers 3: the
        # resumed run drops the unsealed tail and reprocesses it.
        second = _PartitionRun(spec, namespace, tmp_path, resume=True)
        assert second.skip == 3
        assert len((tmp_path / spec.records_name).read_bytes().splitlines()) == 3

    def test_foreign_snapshot_layout_streams_afresh(self, tmp_path):
        from repro.streaming.state import save_snapshot

        spec = SMALL.partitions()[0]
        namespace = SMALL.namespace() + "-test-foreign"
        from repro.streaming import OnlinePipeline

        foreign = OnlinePipeline((1, 2), n_inputs=3)
        save_snapshot(spec.snapshot_name(namespace), foreign)
        run = _PartitionRun(spec, namespace, tmp_path, resume=True)
        assert run.skip == 0
        assert tuple(run.pipeline.sensor_ids) == tuple(spec.source().sensor_ids)


class TestSerialReference:
    def test_serial_runner_counts_and_logs_every_tick(self, tmp_path):
        counts = run_serial(SMALL, tmp_path)
        for spec in SMALL.partitions():
            log = tmp_path / spec.records_name
            assert counts[spec.topic] == len(log.read_bytes().splitlines())
            assert counts[spec.topic] == len(spec.source())


class TestShardedParity:
    """The headline contract: sharded records == serial records, bytewise."""

    def test_sharded_run_matches_serial_bytes(self, tmp_path):
        report = run_ingest(SMALL, tmp_path / "sharded")
        assert report.completed and report.drain_clean
        assert report.restarts == 0
        run_serial(SMALL, tmp_path / "serial")
        assert (
            verify_parity(tmp_path / "sharded", tmp_path / "serial", report.topics)
            == ()
        )
        # Lossless under block: every published tick was consumed.
        for stats in report.shards.values():
            for partition in stats["partitions"].values():
                assert partition["dropped"] == 0
                assert partition["published"] == partition["consumed"]

    def test_solo_producers_match_serial_bytes(self, tmp_path):
        plan = IngestPlan(n_buildings=2, days=0.25, n_shards=2, batched=False)
        report = run_ingest(plan, tmp_path / "sharded")
        assert report.completed
        run_serial(plan, tmp_path / "serial")
        assert (
            verify_parity(tmp_path / "sharded", tmp_path / "serial", report.topics)
            == ()
        )

    def test_idle_shard_boots_and_completes(self, tmp_path):
        plan = IngestPlan(n_buildings=1, days=0.25, n_shards=2)
        report = run_ingest(plan, tmp_path / "sharded")
        assert report.completed
        assert sum(len(s["partitions"]) for s in report.shards.values()) == 1

    def test_chaos_kill_respawns_and_keeps_parity(self, tmp_path):
        plan = IngestPlan(
            n_buildings=2, days=1.0, n_shards=2, snapshot_every_ticks=12
        )
        # Each building seals 8 snapshots a day: kill mid-stream.
        options = ShardRunnerOptions(
            kill_shard_after_seals=3, restart_backoff_s=0.1
        )
        report = run_ingest(plan, tmp_path / "sharded", options)
        assert report.killed_shard == min(
            sid for sid, specs in plan.assignment().items() if specs
        )
        assert report.restarts >= 1
        assert report.completed
        run_serial(plan, tmp_path / "serial")
        assert (
            verify_parity(tmp_path / "sharded", tmp_path / "serial", report.topics)
            == ()
        )

    def test_cache_disabled_raises_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(StreamingError):
            run_ingest(SMALL, tmp_path / "sharded")


class TestShardRunnerOptions:
    def test_validation(self):
        with pytest.raises(StreamingError):
            ShardRunnerOptions(liveness_deadline_s=0.0)
        with pytest.raises(StreamingError):
            ShardRunnerOptions(max_restarts=-1)
        with pytest.raises(StreamingError):
            ShardRunnerOptions(restart_backoff_s=0.0)
        with pytest.raises(StreamingError):
            ShardRunnerOptions(kill_shard_after_seals=0)
