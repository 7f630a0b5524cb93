import numpy as np
import pytest

from castlab import (
    ChannelStats,
    SplitSpec,
    chronological_split,
    standardize,
    validate_series,
)
from castlab.errors import (
    EmptyInputError,
    LabelCountMismatchError,
    NonFiniteValueError,
    SegmentTooShortError,
    ZeroStdError,
)


def test_validate_identity_case():
    ts = validate_series(np.arange(6.0).reshape(3, 2), names=["a", "b"])
    assert ts.length == 3 and ts.channels == 2
    assert ts.channel_names == ("a", "b")


def test_validate_rejects_nan():
    arr = np.ones((3, 2))
    arr[1, 1] = np.nan
    with pytest.raises(NonFiniteValueError) as err:
        validate_series(arr)
    assert err.value.row == 1 and err.value.channel == 1


def test_validate_minimal_case():
    ts = validate_series([[5.0]])
    assert ts.length == 1 and ts.channels == 1
    assert ts.values[0, 0] == 5.0


def test_validate_rejects_empty_and_bad_labels():
    with pytest.raises(EmptyInputError):
        validate_series(np.empty((0, 2)))
    with pytest.raises(LabelCountMismatchError):
        validate_series(np.ones((2, 2)), names=["only-one"])


def test_validate_never_mutates():
    arr = np.random.default_rng(0).normal(size=(10, 3))
    before = arr.copy()
    ts = validate_series(arr)
    assert np.array_equal(arr, before)
    assert np.array_equal(ts.values, arr)
    with pytest.raises(ValueError):
        ts.values[0, 0] = 1.0  # read-only


def test_split_fractions():
    ts = validate_series(np.arange(100.0).reshape(-1, 1))
    train, val, test = chronological_split(ts, SplitSpec(test_fraction=0.2, val_fraction=0.1))
    assert train.length == 70 and val.length == 10 and test.length == 20
    assert train.values[0, 0] == 0 and train.values[-1, 0] == 69
    assert val.values[0, 0] == 70 and val.values[-1, 0] == 79
    assert test.values[0, 0] == 80 and test.values[-1, 0] == 99


def test_split_no_val():
    ts = validate_series(np.arange(10.0).reshape(-1, 1))
    train, val, test = chronological_split(ts, SplitSpec(test_fraction=0.2, val_fraction=0.0))
    assert val.length == 0
    assert test.length == 2
    assert list(test.values[:, 0]) == [8.0, 9.0]


def test_split_degenerate():
    ts = validate_series(np.arange(3.0).reshape(-1, 1))
    with pytest.raises(SegmentTooShortError):
        chronological_split(ts, SplitSpec(test_fraction=0.9, val_fraction=0.0))


def test_split_partitions_exactly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 400))
        test_f = float(rng.uniform(0.05, 0.5))
        val_f = float(rng.uniform(0.0, 0.3))
        ts = validate_series(rng.normal(size=(n, 2)))
        try:
            train, val, test = chronological_split(ts, SplitSpec(test_f, val_f))
        except SegmentTooShortError:
            continue
        assert train.length + val.length + test.length == n
        recon = np.vstack([train.values, val.values, test.values])
        assert np.array_equal(recon, ts.values)


def test_split_float_fuzz():
    # 35 * 0.2 is 7.000000000000001 in binary floats; the split must not round up.
    ts = validate_series(np.arange(35.0).reshape(-1, 1))
    _, _, test = chronological_split(ts, SplitSpec(test_fraction=0.2))
    assert test.length == 7


def test_standardize_examples():
    ts = validate_series(np.full((4, 1), 5.0))
    stats = ChannelStats(mean=[5.0], std=[1.0])
    assert np.allclose(standardize(ts, stats).values, 0.0)

    ts2 = validate_series(np.array([[1.0], [3.0]]))
    stats2 = ChannelStats(mean=[2.0], std=[1.0])
    assert np.allclose(standardize(ts2, stats2).values[:, 0], [-1.0, 1.0])


def test_standardize_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ts = validate_series(rng.normal(scale=50.0, size=(30, 4)))
        stats = ChannelStats.from_series(ts)
        out = standardize(ts, stats).values
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, rtol=1e-12)
        assert np.allclose(out * stats.std + stats.mean, ts.values, rtol=1e-9, atol=1e-9)


def test_standardize_zero_std():
    ts = validate_series(np.ones((5, 2)))
    for std, channel in (([0.0, 0.0], 0), ([1.0, 0.0], 1), ([1.0, np.nan], 1)):
        with pytest.raises(ZeroStdError) as err:
            standardize(ts, ChannelStats(mean=[1.0, 1.0], std=std))
        assert err.value.channel == channel
    with pytest.raises(LabelCountMismatchError, match="stats cover 1 channels"):
        standardize(ts, ChannelStats(mean=[1.0], std=[1.0]))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.6, val_fraction=0.5)
