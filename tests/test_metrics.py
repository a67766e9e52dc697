"""Error and variance summaries over target sets."""

import math

import numpy as np
import pytest

from senseplan import (
    InvalidInputError,
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

    @pytest.mark.parametrize(
        "a, b",
        [(np.empty((0, 2)), [[0.0, 0.0]]), ([[0.0, 0.0]], np.empty((0, 2)))],
        ids=["empty-a", "empty-b"],
    )
    def test_empty_point_set_is_an_error(self, a, b):
        with pytest.raises(InvalidInputError, match="share no exact coordinates"):
            intersection_indices(a, b)

    def test_each_point_of_a_gets_its_first_match_in_b(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        b = np.array([[-0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        ia, ib = intersection_indices(a, b)
        np.testing.assert_array_equal(ia, [0, 1, 2])
        np.testing.assert_array_equal(ib, [1, 0, 1])


class TestAggregation:
    def test_mean_and_sample_sd(self):
        per_trial = np.array([[1.0, 2.0], [3.0, 6.0]])
        series = aggregate_series(per_trial)
        assert series["mean"] == [2.0, 4.0]
        np.testing.assert_allclose(series["sd"], np.std(per_trial, axis=0, ddof=1))

    def test_single_trial_sd_is_zero(self):
        series = aggregate_series(np.array([[5.0, 4.0, 3.0]]))
        assert series["sd"] == [0.0, 0.0, 0.0]

    def test_nan_prints_as_none(self):
        """A step with no value in some trial (NaN, as run.json's null reads)
        has no mean and no sd; a single trial's sd stays 0.0 beside it."""
        assert aggregate_series([[1.0, None], [3.0, 5.0]]) == {"mean": [2.0, None], "sd": [math.sqrt(2.0), None]}
        assert aggregate_series([[1.0, None]]) == {"mean": [1.0, None], "sd": [0.0, 0.0]}
