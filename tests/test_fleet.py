"""Fleet batching: per-building bit-parity, cohorts, zero-flow guards.

The fleet contract mirrors the kernel-refactor contract one level up:
running building *i* through the batched ``(B, ...)`` pass must be
``np.array_equal`` — no tolerance — to running its spec alone through
the solo simulator.  These tests pin that for a generated 8-building
fleet, across RC stiffness regimes (different sub-step counts), across
chunk sizes, for the seed-fleet sweep helper and for the plants' final
state; plus the structural validation, the one-cohort batching of mixed
VAV counts, and the zero-flow guards (a no-feeding-VAV diffuser that
used to poison state with a NaN mean, and zero flow on a padded lane).
"""

import dataclasses
import functools
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.auditorium import Auditorium, Diffuser, _default_seats
from repro.rng import DEFAULT_SEED
from repro.simulation import AuditoriumSimulator, SimulationConfig
from repro.simulation.fleet import (
    BuildingSpec,
    FleetConfig,
    FleetSimulator,
    build_fleet,
    seed_fleet,
)
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


def assert_results_identical(a, b, label=""):
    for name in RESULT_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert np.array_equal(left, right), f"{label}{name} differs (bit-exactness broken)"


class TestFleetParity:
    """Batched building i == solo run, bit for bit."""

    def test_eight_building_fleet_bit_identical(self):
        specs = build_fleet(FleetConfig(n_buildings=8, days=2.0))
        fleet = FleetSimulator(specs).run()
        assert fleet.n_buildings == 8
        for spec, batched in zip(fleet.specs, fleet.results):
            solo = spec.simulator().run()
            assert_results_identical(batched, solo, label=f"{spec.name}: ")

    def test_parity_across_rc_orders(self):
        # Two RC stiffness regimes: the default plant integrates in one
        # sub-step, the low-capacitance variant needs two — they land in
        # separate cohorts and both must match their solo runs.
        stiff = BuildingSpec.paper_default(
            simulation=SimulationConfig(
                days=0.5, rc=RCNetworkConfig(zone_capacitance=1.5e5), seed=7
            ),
            name="stiff",
        )
        soft = BuildingSpec.paper_default(
            simulation=SimulationConfig(days=0.5, seed=8), name="soft"
        )
        fleet_sim = FleetSimulator((stiff, soft))
        assert len(fleet_sim.cohorts) == 2
        substeps = sorted(cohort.plan.substeps for cohort in fleet_sim.cohorts)
        assert substeps[0] < substeps[1]
        fleet = fleet_sim.run()
        for spec, batched in zip(fleet.specs, fleet.results):
            assert_results_identical(batched, spec.simulator().run(), label=f"{spec.name}: ")

    def test_mixed_vav_fleet_is_one_cohort(self):
        # VAV count and diffuser wiring are padded, not keyed: a fleet
        # drawing 2, 4 and 6 VAVs integrates as a single batch.
        specs = build_fleet(FleetConfig(n_buildings=8, days=0.5))
        assert {spec.n_vavs for spec in specs} == {2, 4, 6}
        fleet_sim = FleetSimulator(specs)
        assert len(fleet_sim.cohorts) == 1
        assert fleet_sim.cohorts[0].plan.n_vavs == 6
        assert fleet_sim.cohorts[0].plan.vav_counts == tuple(s.n_vavs for s in specs)

    def test_plants_end_in_the_solo_final_state(self):
        # The trace ends at 14:24 on its second day, in occupied hours,
        # so most plants end with live PI integrators.
        specs = build_fleet(FleetConfig(n_buildings=6, days=1.6))
        fleet_sim = FleetSimulator(specs)
        fleet_sim.run(chunk_steps=173)
        live = 0
        for spec, batched in zip(specs, fleet_sim.simulators):
            solo = spec.simulator()
            solo.run()
            live += int(np.any(solo.plant._integrators != 0.0))
            assert np.array_equal(batched.plant.flows(), solo.plant.flows()), spec.name
            assert np.array_equal(
                batched.plant.discharge_temps(), solo.plant.discharge_temps()
            ), spec.name
            assert np.array_equal(batched.plant._integrators, solo.plant._integrators), spec.name
        assert live >= 4

    def test_chunked_fleet_matches_single_shot(self):
        specs = build_fleet(FleetConfig(n_buildings=3, days=1.0))
        whole = FleetSimulator(specs).run()
        chunked = FleetSimulator(specs).run(chunk_steps=173)
        for spec, a, b in zip(specs, whole.results, chunked.results):
            assert_results_identical(a, b, label=f"{spec.name}: ")

    def test_seed_fleet_matches_solo_seeds(self):
        # The sweep hook: same building, different seeds, one cohort.
        base = SimulationConfig(days=0.5)
        seeds = (11, 22, 33)
        specs = seed_fleet(base, seeds=seeds)
        fleet_sim = FleetSimulator(specs)
        assert len(fleet_sim.cohorts) == 1
        fleet = fleet_sim.run()
        for seed, result in zip(seeds, fleet.results):
            solo = AuditoriumSimulator(dataclasses.replace(base, seed=seed)).run()
            assert_results_identical(result, solo, label=f"seed {seed}: ")


#: 20:00 to 08:00 covers both schedule edges (off at 21/22 h, on at 6/7 h),
#: so drawn sub-fleets see all-occupied, all-standby and mixed steps.
_POOL_START = datetime(2013, 1, 31, 20, 0)
#: Fleet seeds whose first six buildings mix VAV counts.
_POOL_SEEDS = (DEFAULT_SEED, 2, 3)


@functools.lru_cache(maxsize=None)
def _fleet_pool(seed):
    """Six generated buildings and their solo traces (the parity oracle)."""
    specs = build_fleet(FleetConfig(n_buildings=6, days=0.5, start=_POOL_START, seed=seed))
    return specs, tuple(spec.simulator().run() for spec in specs)


class TestFleetParityProperties:
    """Per-building parity holds under any building order and cohort split."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_order_and_split_matches_solo(self, data):
        specs, solos = _fleet_pool(data.draw(st.sampled_from(_POOL_SEEDS), label="seed"))
        order = data.draw(st.permutations(range(len(specs))), label="order")
        order = order[: data.draw(st.integers(2, len(order)), label="size")]
        assume(len({specs[i].n_vavs for i in order}) > 1)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(order) - 1), max_size=2), label="cuts"))
        chunk_steps = data.draw(st.sampled_from([None, 97, 360]), label="chunk_steps")
        bounds = [0, *cuts, len(order)]
        for lo, hi in zip(bounds, bounds[1:]):
            part = order[lo:hi]
            fleet = FleetSimulator([specs[i] for i in part]).run(chunk_steps=chunk_steps)
            for i, batched in zip(part, fleet.results):
                assert_results_identical(batched, solos[i], label=f"{specs[i].name}: ")


class TestFleetStructure:
    def test_spec_distribution_is_deterministic(self):
        a = build_fleet(FleetConfig(n_buildings=4, seed=5))
        b = build_fleet(FleetConfig(n_buildings=4, seed=5))
        assert a == b

    def test_fleet_prefix_is_stable_under_growth(self):
        small = build_fleet(FleetConfig(n_buildings=3, seed=5))
        large = build_fleet(FleetConfig(n_buildings=6, seed=5))
        assert large[:3] == small

    def test_uniform_horizon_required(self):
        a = BuildingSpec.paper_default(SimulationConfig(days=1.0), name="a")
        b = BuildingSpec.paper_default(SimulationConfig(days=2.0), name="b")
        with pytest.raises(ConfigurationError):
            FleetSimulator((a, b))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator(())

    def test_wiring_must_reference_real_vavs(self):
        with pytest.raises(ConfigurationError):
            BuildingSpec(
                name="bad",
                n_vavs=2,
                diffuser_wiring=((1, 2), (3,)),
                diffuser_ys=(1.0, 5.5),
                simulation=SimulationConfig(
                    hvac=dataclasses.replace(
                        SimulationConfig().hvac, thermostat_blend=((1.0, 0.0), (0.0, 1.0))
                    )
                ),
            )

    def test_vav_counts_must_match_plant(self):
        with pytest.raises(ConfigurationError):
            BuildingSpec(name="mismatch", n_vavs=2)  # default plant drives 4

    def test_result_lookup_by_name(self):
        specs = build_fleet(FleetConfig(n_buildings=2, days=0.5))
        fleet = FleetSimulator(specs).run()
        assert fleet.building(specs[1].name) is fleet.results[1]
        with pytest.raises(KeyError):
            fleet.building("no-such-hall")

    def test_paper_default_spec_is_the_solo_simulator(self):
        config = SimulationConfig(days=0.5, seed=3)
        spec = BuildingSpec.paper_default(simulation=config)
        solo = AuditoriumSimulator(config).run()
        via_spec = spec.simulator().run()
        assert_results_identical(via_spec, solo)


class TestZeroFlow:
    """A diffuser with no feeding VAVs must not NaN-poison the state."""

    @staticmethod
    def _orphan_spec(seed=41):
        return BuildingSpec(
            name="orphan",
            width=20.0,
            depth=16.0,
            height=6.0,
            n_vavs=4,
            diffuser_wiring=((1, 2), (), (3, 4)),
            diffuser_ys=(1.0, 8.0, 5.5),
            simulation=SimulationConfig(days=0.5, seed=seed),
        )

    def test_unfed_diffuser_stays_finite_and_warning_free(self):
        spec = self._orphan_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = spec.simulator().run()
        for name in RESULT_FIELDS:
            assert np.all(np.isfinite(getattr(result, name))), name

    def test_unfed_diffuser_engines_agree(self):
        spec = self._orphan_spec()
        kernel = spec.simulator().run()
        loop = run_loop(spec.simulator())
        fleet = FleetSimulator((spec,)).run()
        assert_results_identical(loop, kernel, label="loop vs kernel: ")
        assert_results_identical(fleet.results[0], kernel, label="fleet vs kernel: ")

    def test_zero_flow_on_a_padded_lane(self):
        # A 2-VAV building with no standby flow, batched beside a 6-VAV
        # one: overnight its diffusers carry exactly zero flow, so every
        # zero-flow fallback (diffuser mean, zone supply, moisture) runs
        # on a lane whose feeder rows are padded.  The fallbacks must
        # stay finite and warning-free, and the zero lane must add
        # nothing to the lane's flow sums.
        specs = build_fleet(
            FleetConfig(n_buildings=3, days=0.5, start=datetime(2013, 1, 31, 23, 0))
        )
        small = next(spec for spec in specs if spec.n_vavs == 2)
        wide = next(spec for spec in specs if spec.n_vavs == 6)
        hvac = small.simulation.hvac
        hvac = dataclasses.replace(
            hvac,
            standby_flow_fraction=0.0,
            vav=dataclasses.replace(hvac.vav, min_flow=0.0),
        )
        small = dataclasses.replace(
            small, simulation=dataclasses.replace(small.simulation, hvac=hvac)
        )
        fleet_sim = FleetSimulator((small, wide))
        assert len(fleet_sim.cohorts) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fleet = fleet_sim.run(chunk_steps=173)
        solo = small.simulator().run()
        assert np.any(solo.vav_flows.sum(axis=1) == 0.0)
        assert_results_identical(fleet.results[0], solo, label="2-VAV beside 6-VAV: ")
        assert_results_identical(fleet.results[1], wide.simulator().run(), label="6-VAV: ")

    def test_raw_auditorium_with_unfed_diffuser(self):
        # Same guard through the plain simulator API (no BuildingSpec).
        auditorium = Auditorium(
            width=20.0,
            depth=16.0,
            height=6.0,
            capacity=90,
            seats=_default_seats(20.0, 16.0),
            diffusers=(
                Diffuser("front", y=1.0, vav_ids=(1, 2), reach=3.0),
                Diffuser("orphan", y=8.0, vav_ids=(), reach=3.0),
                Diffuser("mid", y=5.5, vav_ids=(3, 4), reach=3.0),
            ),
            n_vavs=4,
        )
        config = SimulationConfig(days=0.25, seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = AuditoriumSimulator(config, auditorium=auditorium).run()
        assert np.all(np.isfinite(result.zone_temps))
