"""Property-based tests (hypothesis) on core data structures and invariants."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.eigengap import choose_k_by_eigengap
from repro.cluster.kmeans import kmeans
from repro.cluster.laplacian import graph_laplacian, laplacian_eigensystem
from repro.comfort.pmv import pmv_at_temperature, ppd_from_pmv
from repro.data.gaps import find_segments
from repro.data.modes import OCCUPIED, UNOCCUPIED, Mode
from repro.data.resample import resample_last_value
from repro.data.timeseries import EventSeries, TimeAxis
from repro.streaming.rls import RecursiveLeastSquares
from repro.sysid.identify import (
    IdentificationOptions,
    build_regression,
    solve_least_squares,
)
from repro.sysid.metrics import empirical_cdf, rms
from repro.sysid.models import FirstOrderModel

EPOCH = datetime(2013, 1, 31)

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestTimeAxisProperties:
    @given(
        period_s=st.floats(min_value=1.0, max_value=7200.0),
        count=st.integers(min_value=1, max_value=500),
    )
    def test_seconds_strictly_increasing_and_spaced(self, period_s, count):
        axis = TimeAxis(epoch=EPOCH, period=period_s, count=count)
        seconds = axis.seconds()
        assert seconds.size == count
        if count > 1:
            np.testing.assert_allclose(np.diff(seconds), period_s)

    @given(
        period_s=st.floats(min_value=60.0, max_value=3600.0),
        count=st.integers(min_value=2, max_value=300),
        index=st.integers(min_value=0, max_value=299),
    )
    def test_index_datetime_roundtrip(self, period_s, count, index):
        assume(index < count)
        axis = TimeAxis(epoch=EPOCH, period=period_s, count=count)
        assert axis.index_of(axis.datetime_at(index)) == index

    @given(count=st.integers(min_value=1, max_value=400))
    def test_hours_of_day_in_range(self, count):
        axis = TimeAxis(epoch=EPOCH, period=937.0, count=count)
        hours = axis.hours_of_day()
        assert (hours >= 0.0).all() and (hours < 24.0).all()


class TestModeProperties:
    @given(hour=st.floats(min_value=0.0, max_value=23.999))
    def test_occupied_unoccupied_partition(self, hour):
        assert OCCUPIED.contains_hour(hour) != UNOCCUPIED.contains_hour(hour)

    @given(
        start=st.floats(min_value=0.0, max_value=23.0),
        duration_h=st.floats(min_value=0.5, max_value=23.0),
    )
    def test_duration_matches_window(self, start, duration_h):
        end = (start + duration_h) % 24.0
        mode = Mode(name="m", start_hour=start, end_hour=end)
        assert mode.duration_hours == pytest.approx(duration_h, abs=1e-6) or (
            # wrap-around degenerate case when end == start
            abs(duration_h - 24.0) < 1e-6
        )


class TestResampleProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e5),
                finite_floats,
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_resampled_values_come_from_events(self, data):
        data = sorted(data)
        times = np.array([t for t, _ in data])
        values = np.array([v for _, v in data])
        series = EventSeries(epoch=EPOCH, times=times, values=values)
        axis = TimeAxis(epoch=EPOCH, period=500.0, count=50)
        out = resample_last_value(series, axis)
        finite = out[np.isfinite(out)]
        assert set(np.round(finite, 9)) <= set(np.round(values, 9))

    @given(
        data=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e4), finite_floats),
            min_size=1,
            max_size=30,
            unique_by=lambda pair: pair[0],
        ),
        staleness_s=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_staleness_only_removes(self, data, staleness_s):
        data = sorted(data)
        series = EventSeries(
            epoch=EPOCH,
            times=np.array([t for t, _ in data]),
            values=np.array([v for _, v in data]),
        )
        axis = TimeAxis(epoch=EPOCH, period=300.0, count=40)
        unbounded = resample_last_value(series, axis)
        bounded = resample_last_value(series, axis, max_staleness_s=staleness_s)
        finite = np.isfinite(bounded)
        np.testing.assert_array_equal(bounded[finite], unbounded[finite])
        assert finite.sum() <= np.isfinite(unbounded).sum()


class TestSegmentProperties:
    @given(
        mask=hnp.arrays(dtype=bool, shape=st.integers(min_value=0, max_value=200)),
        min_length=st.integers(min_value=1, max_value=5),
    )
    def test_segments_cover_exactly_long_valid_runs(self, mask, min_length):
        values = np.where(mask, 1.0, np.nan)
        segments = find_segments(values, min_length=min_length)
        covered = np.zeros(mask.size, dtype=bool)
        for segment in segments:
            assert len(segment) >= min_length
            assert mask[segment.start : segment.stop].all()
            # Maximality: the run cannot extend either way.
            if segment.start > 0:
                assert not mask[segment.start - 1]
            if segment.stop < mask.size:
                assert not mask[segment.stop]
            covered[segment.start : segment.stop] = True
        # Any uncovered valid tick belongs to a run shorter than min_length.
        uncovered = mask & ~covered
        remaining = find_segments(np.where(uncovered, 1.0, np.nan), min_length=min_length)
        assert remaining == []


class TestMetricsProperties:
    @given(
        values=hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=1, max_value=60),
            elements=finite_floats,
        )
    )
    def test_cdf_properties(self, values):
        xs, f = empirical_cdf(values)
        assert (np.diff(xs) >= 0).all()
        assert f[-1] == pytest.approx(1.0)
        assert (f > 0).all()

    @given(
        values=hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=1, max_value=60),
            elements=finite_floats,
        ),
        scale=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_rms_scales_linearly(self, values, scale):
        assert rms(values * scale) == pytest.approx(scale * rms(values), rel=1e-9, abs=1e-9)


class TestLaplacianProperties:
    @given(
        weights=hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=3, max_value=12).map(lambda n: (n, n)),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=40)
    def test_laplacian_psd_with_zero_row_sums(self, weights):
        weights = (weights + weights.T) / 2.0
        np.fill_diagonal(weights, 0.0)
        lap = graph_laplacian(weights)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9)
        eigenvalues, _ = laplacian_eigensystem(weights)
        assert eigenvalues.min() >= -1e-9
        # Eigengap selection always returns a k in range.
        k, _ = choose_k_by_eigengap(eigenvalues)
        assert 2 <= k <= weights.shape[0] - 1


class TestKMeansProperties:
    @given(
        points=hnp.arrays(
            dtype=float,
            shape=st.tuples(
                st.integers(min_value=4, max_value=25), st.integers(min_value=1, max_value=3)
            ),
            elements=finite_floats,
        ),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_kmeans_partitions(self, points, k):
        assume(k <= points.shape[0])
        result = kmeans(points, k, seed=0, n_init=2)
        assert result.labels.shape == (points.shape[0],)
        assert set(result.labels) == set(range(k))
        assert result.inertia >= 0.0


class TestModelProperties:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        steps=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=30)
    def test_simulation_is_linear_in_inputs(self, seed, steps):
        """Superposition: simulate(u1 + u2) - simulate(0) equals
        (simulate(u1) - simulate(0)) + (simulate(u2) - simulate(0))."""
        gen = np.random.default_rng(seed)
        a = 0.8 * np.eye(2) + 0.05 * gen.random((2, 2))
        b = gen.standard_normal((2, 3)) * 0.1
        model = FirstOrderModel(A=a, B=b)
        t0 = np.zeros((1, 2))
        u1 = gen.random((steps, 3))
        u2 = gen.random((steps, 3))
        zero = np.zeros((steps, 3))
        base = model.simulate(t0, zero)
        r1 = model.simulate(t0, u1) - base
        r2 = model.simulate(t0, u2) - base
        r12 = model.simulate(t0, u1 + u2) - base
        np.testing.assert_allclose(r12, r1 + r2, atol=1e-9)


@st.composite
def gapped_trace(draw):
    """A ``(temperatures, inputs, segments)`` triple whose segments are the
    finite runs of ``temperatures``, separated by all-NaN gap ticks."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(lengths)))
    n_sensors = draw(st.integers(min_value=1, max_value=3))
    n_inputs = draw(st.integers(min_value=1, max_value=2))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = sum(lengths) + sum(gaps[: len(lengths) - 1])
    temperatures = np.full((n, n_sensors), np.nan)
    inputs = gen.standard_normal((n, n_inputs))
    layout = []
    start = 0
    for length, gap in zip(lengths, gaps):
        temperatures[start : start + length] = 20.0 + gen.standard_normal((length, n_sensors))
        layout.append((start, start + length))
        start += length + gap
    segments = find_segments(temperatures, min_length=1)
    assert [(seg.start, seg.stop) for seg in segments] == layout
    return temperatures, inputs, segments


class TestPiecewiseRegressionProperties:
    """Eq. 4: the piecewise objective is a sum over segments, so the
    stacked regression is the per-segment regressions stacked, and the
    least-squares optimum does not depend on the segment order."""

    @given(
        trace=gapped_trace(),
        order=st.sampled_from([1, 2]),
        fit_intercept=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_regression_is_per_segment_vstack(self, trace, order, fit_intercept):
        temperatures, inputs, segments = trace
        options = IdentificationOptions(order=order, fit_intercept=fit_intercept)
        usable = [seg for seg in segments if len(seg) >= order + 1]
        assume(usable)
        phi, y = build_regression(temperatures, inputs, segments, options)
        parts = [build_regression(temperatures, inputs, [seg], options) for seg in usable]
        np.testing.assert_array_equal(phi, np.vstack([p for p, _ in parts]))
        np.testing.assert_array_equal(y, np.vstack([t for _, t in parts]))

    @given(
        trace=gapped_trace(),
        order=st.sampled_from([1, 2]),
        fit_intercept=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_invariant_to_segment_order(self, trace, order, fit_intercept, data):
        temperatures, inputs, segments = trace
        options = IdentificationOptions(order=order, fit_intercept=fit_intercept)
        assume(any(len(seg) >= order + 1 for seg in segments))
        phi, y = build_regression(temperatures, inputs, segments, options)
        assume(phi.shape[0] >= phi.shape[1] + 2)
        assume(np.linalg.matrix_rank(phi) == phi.shape[1])
        permuted = data.draw(st.permutations(segments))
        phi_p, y_p = build_regression(temperatures, inputs, permuted, options)
        np.testing.assert_allclose(
            solve_least_squares(phi_p, y_p),
            solve_least_squares(phi, y),
            rtol=1e-7,
            atol=1e-7,
        )


class TestRecursiveLeastSquaresProperties:
    """At λ = 1 the RLS recursion is the ridge solution of the rows it
    has seen, so fed the stacked per-segment regression row by row it
    lands on the batch ridge fit of that stack."""

    @given(
        trace=gapped_trace(),
        order=st.sampled_from([1, 2]),
        fit_intercept=st.booleans(),
        ridge=st.sampled_from([1e-3, 1e-1, 1.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rls_at_unit_forgetting_equals_batch_ridge_fit(
        self, trace, order, fit_intercept, ridge
    ):
        temperatures, inputs, segments = trace
        options = IdentificationOptions(order=order, fit_intercept=fit_intercept)
        usable = [seg for seg in segments if len(seg) >= order + 1]
        assume(usable)
        parts = [build_regression(temperatures, inputs, [seg], options) for seg in usable]
        phi = np.vstack([p for p, _ in parts])
        y = np.vstack([t for _, t in parts])
        assume(phi.shape[0] >= phi.shape[1])
        rls = RecursiveLeastSquares(
            phi.shape[1], y.shape[1], forgetting=1.0, regularization=ridge
        )
        for row, target in zip(phi, y):
            rls.update(row, target)
        np.testing.assert_allclose(
            rls.weights, solve_least_squares(phi, y, ridge=ridge), rtol=1e-6, atol=1e-8
        )


class TestComfortProperties:
    @given(temp_c=st.floats(min_value=10.0, max_value=32.0))
    def test_ppd_bounded(self, temp_c):
        vote = pmv_at_temperature(temp_c)
        dissatisfied = ppd_from_pmv(vote)
        assert 5.0 <= dissatisfied <= 100.0

    @given(
        t1=st.floats(min_value=12.0, max_value=30.0),
        t2=st.floats(min_value=12.0, max_value=30.0),
    )
    def test_pmv_monotone(self, t1, t2):
        assume(t1 < t2)
        assert pmv_at_temperature(t1) < pmv_at_temperature(t2)
