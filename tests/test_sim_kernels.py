"""Golden-trace parity of the staged step-kernel simulator.

The refactor's contract is absolute: the kernel pipeline, the chunked
driver and the monolithic reference loop (the frozen oracle in
:mod:`tests.reference_loop`) must produce *bit-identical*
traces — same seeded RNG draw order, same per-step float operation
order.  These tests enforce it with ``np.array_equal`` (no tolerance)
across chunk sizes, RC model orders and with a supervisory controller
attached, plus the chunk-cache round trip and the per-chunk contract
seams.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.artifacts import (
    ArtifactCache,
    ChunkManifest,
    chunk_key,
    chunk_manifest_key,
    load_chunk_series,
)
from repro.errors import ConfigurationError, SimulationError
from repro.geometry import Point
from repro.simulation import AuditoriumSimulator, SimulationConfig
from repro.simulation.rc_network import RCNetworkConfig
from tests.reference_loop import run_loop

#: Every array a SimulationResult carries; parity is over all of them.
RESULT_FIELDS = (
    "zone_temps",
    "mass_temps",
    "vav_flows",
    "vav_temps",
    "co2",
    "humidity_ratio",
    "thermostat_readings",
    "thermostat_true",
    "occupancy",
    "zone_occupancy",
    "lighting",
    "ambient",
)


def assert_results_identical(a, b):
    for name in RESULT_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert np.array_equal(left, right), f"{name} differs (bit-exactness broken)"


class StubController:
    """Deterministic supervisory controller exercising both decide paths."""

    def positions(self):
        return [Point(5.0, 4.0, 1.1), Point(15.0, 8.0, 1.1)]

    def decide(self, step, hour_of_day, readings, dt):
        if step % 7 == 0:
            return None  # fall through to the built-in PI logic
        demand = float(np.clip(np.mean(readings) - 21.0, 0.0, 1.0))
        return np.full(4, 0.03 + demand * 0.5)


class TestChunkedParity:
    """iter_chunks concatenation is bit-identical to the single shot."""

    @pytest.fixture(scope="class")
    def single_shot(self):
        return AuditoriumSimulator(SimulationConfig(days=0.7)).run()

    # 1 step, 1 day, an odd non-divisor of 1008 steps, the whole trace.
    @pytest.mark.parametrize("chunk_steps", [1, 1440, 37, 1008])
    def test_chunk_sizes(self, single_shot, chunk_steps):
        chunked = AuditoriumSimulator(SimulationConfig(days=0.7)).run(
            chunk_steps=chunk_steps
        )
        assert_results_identical(chunked, single_shot)

    def test_matches_reference_loop(self, single_shot):
        loop = run_loop(AuditoriumSimulator(SimulationConfig(days=0.7)))
        assert_results_identical(loop, single_shot)

    def test_other_seed(self):
        config = SimulationConfig(days=0.7, seed=99)
        whole = AuditoriumSimulator(config).run()
        chunked = AuditoriumSimulator(config).run(chunk_steps=113)
        loop = run_loop(AuditoriumSimulator(config))
        assert_results_identical(chunked, whole)
        assert_results_identical(loop, whole)


class TestParityAcrossModels:
    """Parity holds for both RC model orders and other grids."""

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(days=0.5, rc=RCNetworkConfig(zone_capacitance=1.5e5)),
            SimulationConfig(days=0.5, grid_nx=4, grid_ny=3),
        ],
        ids=["rc-variant", "grid-4x3"],
    )
    def test_config_variants(self, config):
        whole = AuditoriumSimulator(config).run()
        chunked = AuditoriumSimulator(config).run(chunk_steps=97)
        loop = run_loop(AuditoriumSimulator(config))
        assert_results_identical(chunked, whole)
        assert_results_identical(loop, whole)

    def test_with_supervisory_controller(self):
        config = SimulationConfig(days=0.5)
        whole = AuditoriumSimulator(config, supervisory_controller=StubController()).run()
        chunked = AuditoriumSimulator(
            config, supervisory_controller=StubController()
        ).run(chunk_steps=101)
        loop = run_loop(
            AuditoriumSimulator(config, supervisory_controller=StubController())
        )
        assert_results_identical(chunked, whole)
        assert_results_identical(loop, whole)


class TestChunkDriver:
    """Shape and error behaviour of iter_chunks / assemble."""

    def test_chunks_tile_the_trace(self):
        config = SimulationConfig(days=0.5)
        chunks = list(AuditoriumSimulator(config).iter_chunks(100))
        assert chunks[0].start == 0
        assert chunks[-1].stop == config.n_steps
        for before, after in zip(chunks, chunks[1:]):
            assert before.stop == after.start
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert sum(c.n_steps for c in chunks) == config.n_steps

    def test_bad_chunk_size_rejected(self):
        simulator = AuditoriumSimulator(SimulationConfig(days=0.5))
        with pytest.raises(ConfigurationError):
            list(simulator.iter_chunks(0))

    def test_assemble_rejects_gapped_series(self):
        simulator = AuditoriumSimulator(SimulationConfig(days=0.5))
        chunks = list(simulator.iter_chunks(100))
        with pytest.raises(SimulationError):
            AuditoriumSimulator(SimulationConfig(days=0.5)).assemble(
                chunks[:2] + chunks[3:]
            )

    def test_assemble_rejects_empty(self):
        simulator = AuditoriumSimulator(SimulationConfig(days=0.5))
        with pytest.raises(SimulationError):
            simulator.assemble([])

    def test_contract_violation_names_the_chunk(self):
        """A physically implausible state reports the chunk it surfaced in."""
        from repro.errors import ContractError

        config = SimulationConfig(days=0.2, initial_temp=150.0)
        simulator = AuditoriumSimulator(config)
        with pytest.raises(ContractError) as excinfo:
            list(simulator.iter_chunks(60))
        assert "chunk 0" in str(excinfo.value)


class TestChunkCache:
    """The streamed chunk series round-trips through the artifact cache."""

    def test_round_trip_and_resume(self, tmp_path, monkeypatch):
        from repro.data import synth

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        synth.clear_cache()
        config = synth.SynthConfig(simulation=SimulationConfig(days=0.5))
        first = synth.generate(config, chunk_steps=200)

        cache = ArtifactCache(root=tmp_path, enabled=True)
        sim_cfg = config.simulation
        chunks = load_chunk_series(cache, synth.SIM_CHUNK_KIND, sim_cfg)
        assert chunks is not None
        assert sum(c.n_steps for c in chunks) == sim_cfg.n_steps

        # Drop the assembled output so generate() must resume from chunks.
        synth.clear_cache()
        cache._discard(cache.path_for(config.artifact_key()))
        second = synth.generate(config, chunk_steps=200)
        assert_results_identical(second.simulation, first.simulation)

    def test_unsealed_series_is_a_miss(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        sim_cfg = SimulationConfig(days=0.5)
        from repro.data.synth import SIM_CHUNK_KIND

        cache.store(chunk_key(SIM_CHUNK_KIND, sim_cfg, 100, 0), "partial")
        assert load_chunk_series(cache, SIM_CHUNK_KIND, sim_cfg) is None

    def test_missing_chunk_misses_whole_series(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        sim_cfg = SimulationConfig(days=0.5)
        from repro.data.synth import SIM_CHUNK_KIND

        cache.store(
            chunk_manifest_key(SIM_CHUNK_KIND, sim_cfg),
            ChunkManifest(n_chunks=2, chunk_steps=100, n_steps=200),
        )
        cache.store(chunk_key(SIM_CHUNK_KIND, sim_cfg, 100, 0), "only-first")
        assert load_chunk_series(cache, SIM_CHUNK_KIND, sim_cfg) is None


class TestEngineSelection:
    """generate()'s kernel engine reproduces the reference loop end to end."""

    def test_loop_engine_matches_kernel(self, monkeypatch, tmp_path):
        """The whole synth pipeline over the oracle trace is byte-identical:
        observe → assemble → screen, down to the saved CSV and metadata."""
        from repro.data import synth
        from repro.data.io import save_dataset_csv

        monkeypatch.setenv("REPRO_CACHE", "off")
        synth.clear_cache()
        config = synth.SynthConfig(simulation=SimulationConfig(days=0.5))
        kernel = synth.generate(config, use_cache=False)
        loop = synth.observe_output(
            run_loop(
                AuditoriumSimulator(dataclasses.replace(config.simulation, seed=config.seed))
            ),
            config,
        )
        assert_results_identical(kernel.simulation, loop.simulation)
        for name, output in (("kernel", kernel), ("loop", loop)):
            save_dataset_csv(output.full_dataset, tmp_path / f"{name}-full")
            save_dataset_csv(output.analysis_dataset, tmp_path / f"{name}-analysis")
        for stem in ("full", "analysis"):
            for suffix in (".csv", ".meta.json"):
                kernel_bytes = (tmp_path / f"kernel-{stem}{suffix}").read_bytes()
                loop_bytes = (tmp_path / f"loop-{stem}{suffix}").read_bytes()
                assert kernel_bytes == loop_bytes, f"{stem}{suffix} differs"

    def test_seed_override_keeps_every_field(self):
        """Regression: the seed rebuild used to drop thermostat_draft."""
        from repro.data.synth import SynthConfig

        sim = SimulationConfig(days=0.5, thermostat_draft=0.9)
        config = SynthConfig(simulation=sim, seed=123)
        rebuilt = dataclasses.replace(sim, seed=config.seed)
        assert rebuilt.thermostat_draft == 0.9
        assert rebuilt.seed == 123
