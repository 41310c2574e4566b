import pytest

from stats import InsufficientSamples, min_samples, percentile


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples(95) == 200
    values = list(range(1, 201))
    assert percentile(values, 95) == 190  # 10 samples (191..200) beyond
    with pytest.raises(InsufficientSamples):
        percentile(values[:199], 95)


def test_p50_rule_and_nearest_rank():
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(InsufficientSamples):
        percentile(range(1, 20), 50)  # rank 10 leaves only 9 beyond
