"""Tests for the persistent artifact cache (:mod:`repro.core.artifacts`)."""

from __future__ import annotations

import concurrent.futures
import os
import pickle

import numpy as np
import pytest

from repro.core.artifacts import (
    ArtifactCache,
    array_digest,
    artifact_key,
    cache_enabled,
    cache_root,
    default_cache,
    fingerprint,
)
from repro.data.synth import (
    SIM_CHUNK_KIND,
    SynthConfig,
    SynthOutput,
    clear_cache,
    generate,
    generate_fleet,
)
from repro.simulation.fleet import BuildingSpec
from repro.simulation.simulator import AuditoriumSimulator, SimulationConfig

TINY_DAYS = 2.0


def tiny_config(days: float = TINY_DAYS, seed: int = 1234) -> SynthConfig:
    return SynthConfig(simulation=SimulationConfig(days=days, seed=seed), seed=seed)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint(tiny_config()) == fingerprint(tiny_config())

    def test_sensitive_to_every_simulation_field(self):
        base = fingerprint(tiny_config())
        assert fingerprint(tiny_config(seed=99)) != base
        assert fingerprint(tiny_config(days=3.0)) != base
        # Fields the old hand-written tuple key silently dropped.
        drafty = SynthConfig(
            simulation=SimulationConfig(days=TINY_DAYS, seed=1234, thermostat_draft=0.5),
            seed=1234,
        )
        assert fingerprint(drafty) != base

    def test_integer_and_float_days_share_one_key(self):
        as_int = SynthConfig(simulation=SimulationConfig(days=98))
        as_float = SynthConfig(simulation=SimulationConfig(days=98.0))
        assert as_int == as_float
        assert as_int.artifact_key() == as_float.artifact_key()
        assert isinstance(as_int.simulation.days, float)

    def test_canonicalizes_containers(self):
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})
        assert fingerprint([1, 2.5, "x"]) == fingerprint((1, 2.5, "x"))
        assert fingerprint(np.float64(1.5)) == fingerprint(1.5)

    def test_key_includes_version(self):
        config = tiny_config()
        assert artifact_key("synth-output", config) != artifact_key(
            "synth-output", config, version="0.0.0-test"
        )
        assert artifact_key("synth-output", config) != artifact_key("other", config)


class TestArrayDigest:
    def test_stable_across_calls(self):
        arr = np.arange(12.0).reshape(3, 4)
        assert array_digest(arr) == array_digest(arr.copy())

    def test_sensitive_to_values_shape_and_dtype(self):
        arr = np.arange(12.0).reshape(3, 4)
        base = array_digest(arr)
        bumped = arr.copy()
        bumped[0, 0] += 1e-12
        assert array_digest(bumped) != base
        assert array_digest(arr.reshape(4, 3)) != base
        assert array_digest(arr.astype(np.float32)) != base

    def test_multiple_arrays_and_order(self):
        a, b = np.zeros(3), np.ones(3)
        assert array_digest(a, b) != array_digest(b, a)
        assert array_digest(a, b) != array_digest(a)

    def test_non_contiguous_views_hash_like_their_copy(self):
        arr = np.arange(20.0).reshape(4, 5)
        view = arr[:, ::2]
        assert array_digest(view) == array_digest(view.copy())


class TestCachedFits:
    """Satellite: identified models and clusterings read through the cache."""

    def test_identify_cached_matches_identify(self, monkeypatch, tmp_path):
        from tests.conftest import make_linear_dataset
        from repro.sysid.identify import (
            IdentificationOptions,
            identify,
            identify_cached,
        )

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        dataset = make_linear_dataset(n_days=3.0, noise=0.01)
        options = IdentificationOptions(order=2)
        plain = identify(dataset, options)
        first = identify_cached(dataset, options)  # populates the cache
        second = identify_cached(dataset, options)  # reads it back
        for model in (first, second):
            np.testing.assert_array_equal(model.A1, plain.A1)
            np.testing.assert_array_equal(model.A2, plain.A2)
            np.testing.assert_array_equal(model.B, plain.B)
        assert any(tmp_path.rglob("*.pkl"))

    def test_identify_cached_keys_on_the_data(self, monkeypatch, tmp_path):
        from tests.conftest import make_linear_dataset
        from repro.sysid.identify import identify_cached

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = identify_cached(make_linear_dataset(n_days=3.0, noise=0.01, seed=1))
        b = identify_cached(make_linear_dataset(n_days=3.0, noise=0.01, seed=2))
        assert not np.array_equal(a.A1, b.A1)

    def test_cluster_sensors_cached_matches_direct(self, monkeypatch, tmp_path, week_dataset):
        from repro.cluster import cluster_sensors, cluster_sensors_cached

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        direct = cluster_sensors(week_dataset, method="correlation", k=2)
        first = cluster_sensors_cached(week_dataset, method="correlation", k=2)
        second = cluster_sensors_cached(week_dataset, method="correlation", k=2)
        np.testing.assert_array_equal(first.labels, direct.labels)
        np.testing.assert_array_equal(second.labels, direct.labels)


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        assert cache.load("ab" * 32) is None
        path = cache.store("ab" * 32, {"x": np.arange(3)})
        assert path is not None and path.exists()
        loaded = cache.load("ab" * 32)
        assert np.array_equal(loaded["x"], np.arange(3))

    def test_corrupt_file_is_a_miss_and_self_heals(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "cd" * 32
        cache.store(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"this is not a pickle")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        # A fresh store after the corruption works again.
        cache.store(key, [4, 5])
        assert cache.load(key) == [4, 5]

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "ef" * 32
        cache.store(key, list(range(100)))
        payload = cache.path_for(key).read_bytes()
        cache.path_for(key).write_bytes(payload[: len(payload) // 2])
        assert cache.load(key) is None

    def test_disabled_cache_stores_and_loads_nothing(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        assert cache.store("aa" * 32, {"v": 1}) is None
        assert not any(tmp_path.iterdir())
        assert cache.load("aa" * 32) is None

    def test_env_switch_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        assert not default_cache().enabled
        monkeypatch.setenv("REPRO_CACHE", "")
        assert cache_enabled()

    def test_env_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert cache_root() == tmp_path / "elsewhere"
        assert default_cache().root == tmp_path / "elsewhere"

    def test_concurrent_readers(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "ff" * 32
        value = {"trace": np.random.default_rng(0).random((500, 30))}
        cache.store(key, value)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: cache.load(key), range(32)))
        assert all(np.array_equal(r["trace"], value["trace"]) for r in results)

    def test_concurrent_writers_race_benignly(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "bb" * 32
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: cache.store(key, {"payload": i}), range(16)))
        loaded = cache.load(key)
        assert loaded is not None and 0 <= loaded["payload"] < 16
        # No temp files left behind.
        leftovers = [p for p in cache.path_for(key).parent.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


def backup_of(cache: ArtifactCache, key: str):
    path = cache.path_for(key)
    return path.with_name(path.name + ".prev")


class TestSwapIn:
    """A store over an existing key swaps the value in without renaming
    onto the live file, and one complete value stays readable throughout."""

    def test_overwrite_never_renames_onto_an_existing_path(self, tmp_path, monkeypatch):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "a1" * 32
        targets = []

        def guarded(real):
            def move(src, dst):
                targets.append((os.fspath(dst), os.path.exists(dst)))
                return real(src, dst)

            return move

        monkeypatch.setattr(os, "replace", guarded(os.replace))
        monkeypatch.setattr(os, "rename", guarded(os.rename))
        for value in ("first", "second", "third"):
            assert cache.store(key, value) is not None
            assert cache.load(key) == value
        assert len(targets) == 3
        assert not any(existed for _, existed in targets)
        assert not backup_of(cache, key).exists()

    def test_every_step_of_a_swap_leaves_old_or_new_readable(self, tmp_path, monkeypatch):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "b2" * 32
        cache.store(key, {"v": "old"})
        seen = []

        def observed(real):
            def call(*args):
                seen.append(cache.load(key))
                return real(*args)

            return call

        for name in ("link", "unlink", "rename"):
            monkeypatch.setattr(os, name, observed(getattr(os, name)))
        cache.store(key, {"v": "new"})
        monkeypatch.undo()
        # link, unlink(live), rename(temp), unlink(backup): four steps.
        assert len(seen) == 4
        assert all(value in ({"v": "old"}, {"v": "new"}) for value in seen)
        assert seen[0] == {"v": "old"} and seen[-1] == {"v": "new"}
        assert cache.load(key) == {"v": "new"}

    def test_link_failure_falls_back_to_replace(self, tmp_path, monkeypatch):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "c3" * 32
        cache.store(key, "old")

        def no_links(src, dst):
            raise PermissionError("hard links not supported")

        monkeypatch.setattr(os, "link", no_links)
        assert cache.store(key, "new") == cache.path_for(key)
        assert cache.load(key) == "new"
        assert not backup_of(cache, key).exists()

    def test_backup_left_by_a_killed_writer(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "d4" * 32
        backup = backup_of(cache, key)
        cache.store(key, "live")
        # Killed after the link: a stale backup beside the live value.
        backup.write_bytes(pickle.dumps("stale"))
        assert cache.load(key) == "live"
        cache.store(key, "next")
        assert cache.load(key) == "next"
        assert not backup.exists()
        # Killed after the unlink: the backup is the last complete value.
        os.link(cache.path_for(key), backup)
        os.unlink(cache.path_for(key))
        assert cache.contains(key)
        assert cache.load(key) == "next"
        cache.store(key, "after")
        assert cache.load(key) == "after"
        assert not backup.exists()

    def test_corrupt_live_file_never_revives_its_backup(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        key = "e5" * 32
        backup = backup_of(cache, key)
        cache.store(key, "live")
        backup.write_bytes(pickle.dumps("older"))
        cache.path_for(key).write_bytes(b"this is not a pickle")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists() and not backup.exists()
        assert cache.load(key) is None
        assert not cache.contains(key)


class TestSynthReadThrough:
    def test_generate_round_trip_is_byte_identical(self, monkeypatch, tmp_path):
        """A disk-cached trace equals a fresh generation with the same seed."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = tiny_config()
        fresh = generate(config, use_cache=False)
        cached_path = default_cache().path_for(config.artifact_key())
        assert not cached_path.exists()  # use_cache=False must not write

        generate(config)  # populates disk
        assert cached_path.exists()
        clear_cache()  # drop the in-process layer to force the disk read
        reloaded = generate(config)

        for name in ("full_dataset", "analysis_dataset"):
            fresh_ds = getattr(fresh, name)
            reloaded_ds = getattr(reloaded, name)
            assert fresh_ds.sensor_ids == reloaded_ds.sensor_ids
            assert np.array_equal(
                fresh_ds.temperatures, reloaded_ds.temperatures, equal_nan=True
            )
            assert np.array_equal(fresh_ds.inputs, reloaded_ds.inputs, equal_nan=True)
        assert np.array_equal(
            fresh.simulation.zone_temps, reloaded.simulation.zone_temps
        )
        assert pickle.dumps(fresh.simulation.zone_temps) == pickle.dumps(
            reloaded.simulation.zone_temps
        )

    def test_cache_off_bypasses_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        clear_cache()
        config = tiny_config(seed=4321)
        output = generate(config)
        assert isinstance(output, SynthOutput)
        assert not any(tmp_path.rglob("*.pkl"))

    def test_version_bump_invalidates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config()
        generate(config)
        old_path = default_cache().path_for(config.artifact_key())
        assert old_path.exists()
        monkeypatch.setattr("repro.version.__version__", "999.0.0")
        assert default_cache().path_for(config.artifact_key()) != old_path

    def test_corrupt_synth_artifact_regenerates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config()
        first = generate(config)
        path = default_cache().path_for(config.artifact_key())
        path.write_bytes(b"\x80corrupt")
        clear_cache()
        regenerated = generate(config)
        assert np.array_equal(
            first.analysis_dataset.temperatures,
            regenerated.analysis_dataset.temperatures,
            equal_nan=True,
        )
        assert path.exists()  # regenerated artifact was re-stored


class TestChunkResume:
    """Resume semantics of the streamed chunk series."""

    def test_mismatched_chunk_steps_resume_is_byte_identical(self, monkeypatch, tmp_path):
        """The manifest's slab size wins: a 7-day-slab series satisfies a
        caller asking for 1-day slabs, byte for byte."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config()
        day_steps = int(round(86400.0 / config.simulation.dt))
        first = generate(config, chunk_steps=7 * day_steps)
        clear_cache()
        # Drop the assembled output so generate() must resume from chunks.
        default_cache().path_for(config.artifact_key()).unlink()
        resumed = generate(config, chunk_steps=day_steps)
        assert pickle.dumps(first.simulation.zone_temps) == pickle.dumps(
            resumed.simulation.zone_temps
        )
        for field in ("mass_temps", "co2", "humidity_ratio", "thermostat_readings"):
            assert np.array_equal(
                getattr(first.simulation, field), getattr(resumed.simulation, field)
            )

    def test_poisoned_sealed_series_raises(self, monkeypatch, tmp_path):
        """A sealed series with non-finite data is a defect, not a miss."""
        from repro.core.artifacts import chunk_key, load_chunk_series
        from repro.errors import ContractError

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config()
        generate(config)
        default_cache().path_for(config.artifact_key()).unlink()
        sim_cfg = config.simulation
        size = int(round(7 * 86400.0 / sim_cfg.dt))
        chunk = load_chunk_series(default_cache(), SIM_CHUNK_KIND, sim_cfg)[0]
        chunk.zone_temps[0, 0] = np.nan
        default_cache().store(chunk_key(SIM_CHUNK_KIND, sim_cfg, size, 0), chunk)
        clear_cache()
        with pytest.raises(ContractError):
            generate(config)

    def test_foreign_typed_chunks_regenerate(self, monkeypatch, tmp_path):
        """Structurally wrong cached chunks are a miss — regenerate."""
        from repro.core.artifacts import chunk_key

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config()
        first = generate(config)
        default_cache().path_for(config.artifact_key()).unlink()
        sim_cfg = config.simulation
        size = int(round(7 * 86400.0 / sim_cfg.dt))
        default_cache().store(
            chunk_key(SIM_CHUNK_KIND, sim_cfg, size, 0), {"not": "a chunk"}
        )
        clear_cache()
        regenerated = generate(config)
        assert np.array_equal(
            first.simulation.zone_temps, regenerated.simulation.zone_temps
        )


class TestFleetCache:
    """Fleet chunk series interoperate with the solo cache."""

    def test_solo_generate_resumes_from_fleet_trace(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config(seed=555)
        spec = BuildingSpec.paper_default(simulation=config.simulation, name="paper")
        fleet = generate_fleet(specs=(spec,))

        integrated = {"count": 0}
        original = AuditoriumSimulator.iter_chunks

        def counting_iter_chunks(self, chunk_steps=None):
            integrated["count"] += 1
            return original(self, chunk_steps)

        monkeypatch.setattr(AuditoriumSimulator, "iter_chunks", counting_iter_chunks)
        solo = generate(config)
        assert integrated["count"] == 0, "solo generate re-integrated a fleet-cached trace"
        assert pickle.dumps(solo.simulation.zone_temps) == pickle.dumps(
            fleet.results[0].zone_temps
        )

    def test_fleet_resumes_its_own_series(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        config = tiny_config(seed=556)
        spec = BuildingSpec.paper_default(simulation=config.simulation, name="paper")
        first = generate_fleet(specs=(spec,))
        again = generate_fleet(specs=(spec,))
        assert pickle.dumps(first.results[0].zone_temps) == pickle.dumps(
            again.results[0].zone_temps
        )


@pytest.mark.parametrize("payload", [None, 42, "text"])
def test_non_synth_payloads_round_trip(tmp_path, payload):
    cache = ArtifactCache(root=tmp_path, enabled=True)
    key = artifact_key("misc", {"payload": payload})
    cache.store(key, payload)
    assert cache.load(key) == payload
