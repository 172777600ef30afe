"""Tests for batch means."""

import pytest

from repro.stats import batch_means


class TestBatchMeans:
    def test_matches_plain_mean(self):
        values = [float(i % 7) for i in range(200)]
        center, half = batch_means(values, num_batches=10)
        assert center == pytest.approx(sum(values) / len(values))
        assert half >= 0

    def test_wider_than_iid_for_correlated_series(self):
        # A strongly autocorrelated series (slow sine drift): the
        # batch-means CI must be wider than the naive i.i.d. CI.
        import math

        from repro.stats import confidence_interval

        values = [math.sin(i / 40) for i in range(400)]
        _, naive = confidence_interval(values)
        _, batched = batch_means(values, num_batches=10)
        assert batched > naive

    def test_requires_enough_data(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0, 3.0], num_batches=10)
        with pytest.raises(ValueError):
            batch_means(list(range(100)), num_batches=1)
