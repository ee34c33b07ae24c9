import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(list(range(101)), 90) == 90.0


def test_samples_beyond_the_p90():
    # The p90 of 92 samples sits at rank 81.9, between the 82nd and 83rd
    # smallest; the 10 samples from the 83rd up lie above it.
    assert stats.samples_beyond(92, 90) == 10
    assert stats.samples_beyond(91, 90) == 9
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(1, 50) == 0
    assert stats.samples_beyond(0, 90) == 0


def test_min_samples_for_ten_beyond():
    assert stats.min_samples(90) == 92
    assert stats.min_samples(50) == 20
    n = stats.min_samples(99)
    assert stats.samples_beyond(n, 99) == 10
    assert stats.samples_beyond(n - 1, 99) == 9


def test_summary_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="needs 10"):
        stats.summarise_ms([0.001] * 91)
    summary = stats.summarise_ms([i / 1000 for i in range(1, 101)])
    assert summary["n"] == 100 and summary["beyond"] == 10
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)


def test_fail_ratio_arithmetic():
    assert stats.fail_ratio(0, 10) == 0.0
    assert stats.fail_ratio(3, 12) == 0.25
    assert stats.fail_ratio(7, 7) == 1.0
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(5, 4)
