"""Error and variance summaries over target sets."""

import numpy as np
import pytest

from senseplan import (
    InvalidInputError,
    MetricSeries,
    aggregate_series,
    intersection_indices,
)


class TestIntersection:
    def test_exact_equality_matching(self):
        a = np.array([[0.0, 0.0], [1.5, 2.5], [3.0, 4.0]])
        b = np.array([[3.0, 4.0], [9.0, 9.0], [1.5, 2.5]])
        ia, ib = intersection_indices(a, b)
        np.testing.assert_array_equal(ia, [1, 2])
        np.testing.assert_array_equal(ib, [2, 0])

    def test_nearly_equal_does_not_match(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[1.0 + 1e-12, 1.0]])
        with pytest.raises(InvalidInputError):
            intersection_indices(a, b)

    def test_empty_intersection_is_an_error(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[5.0, 5.0]])
        with pytest.raises(InvalidInputError):
            intersection_indices(a, b)


class TestAggregation:
    def test_mean_and_sample_sd(self):
        per_trial = np.array([[1.0, 2.0], [3.0, 6.0]])
        series = aggregate_series("error-V", per_trial)
        np.testing.assert_array_equal(series.mean, [2.0, 4.0])
        np.testing.assert_allclose(series.sd, np.std(per_trial, axis=0, ddof=1))

    def test_single_trial_sd_is_zero(self):
        series = aggregate_series("variance-V", np.array([[5.0, 4.0, 3.0]]))
        np.testing.assert_array_equal(series.sd, [0.0, 0.0, 0.0])
        assert not np.any(np.isnan(series.sd))

    def test_series_arrays_read_only(self):
        series = MetricSeries("error-V", np.array([1.0]), np.array([0.0]))
        assert not series.mean.flags.writeable
        assert not series.sd.flags.writeable
