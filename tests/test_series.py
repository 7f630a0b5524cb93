import numpy as np
import pytest

from castlab import (
    ChannelStats,
    FilterSpec,
    NoiseSpec,
    SplitSpec,
    TimeSeries,
    apply_filter,
    chronological_split,
    inject_noise,
    load_csv,
    standardize,
    validate_series,
)
from castlab import series as series_module
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


def _read_only_array(rows, channels):
    """An array that owns its memory and is read-only, so no writeable array can change it."""
    arr = np.arange(float(rows * channels)).reshape(rows, channels).copy()
    arr.setflags(write=False)
    return arr


def test_a_segment_shares_its_parents_memory_and_is_read_only():
    arr = _read_only_array(10, 2)
    series = TimeSeries(arr)
    assert series.values is arr
    parts = [series.segment(2, 5), *chronological_split(series, SplitSpec(0.3, 0.2))]
    for part in parts:
        assert np.shares_memory(part.values, arr) and not part.values.flags.writeable
        with pytest.raises(ValueError):
            part.values[0, 0] = -1.0
    np.testing.assert_array_equal(parts[0].values, arr[2:5])


def test_a_series_copies_what_a_writeable_array_can_change():
    source = np.arange(12.0).reshape(6, 2)
    view = source[1:]
    view.setflags(write=False)  # read-only, but source can still change it
    for given in (source, view, source[:, 0]):
        expected = np.array(given).reshape(len(given), -1)
        series = TimeSeries(given)
        source += 1.0
        assert not np.shares_memory(series.values, source)
        np.testing.assert_array_equal(series.values, expected)
        assert not series.values.flags.writeable


def test_a_series_copies_a_read_only_array_that_is_not_c_contiguous():
    owned = _read_only_array(6, 2)
    series = TimeSeries(owned[:, ::-1])
    assert series.values.flags.c_contiguous and not np.shares_memory(series.values, owned)
    np.testing.assert_array_equal(series.values, owned[:, ::-1])


def test_the_series_wrappers_copy_nothing_they_have_just_built(tmp_path, monkeypatch):
    copies = []
    real = series_module._read_only

    def recording(arr, contiguous=False):
        kept = real(arr, contiguous)
        copies.append(kept is not arr)
        return kept

    monkeypatch.setattr(series_module, "_read_only", recording)
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n" + "".join(f"{i / 7:.6f},{(i % 9) / 3:.6f}\n" for i in range(40)))
    loaded = load_csv(path)
    standardized = standardize(loaded, ChannelStats.from_series(loaded))
    windows = [loaded, standardized, *chronological_split(standardized, SplitSpec(0.25, 0.25))]
    for kind, extra in (("gaussian", {"sigma": 0.1}), ("constant", {"contamination": 0.2}),
                        ("missing", {"contamination": 0.2}), ("freq_add", {"frequency": 3.0}),
                        ("freq_replace", {"frequency": 3.0})):
        windows.append(inject_noise(windows[-1], NoiseSpec(kind=kind, seed=1, **extra)))
    for spec in (FilterSpec(kind="gaussian_kernel", kernel_sigma=1.0), FilterSpec(kind="ema", alpha=0.5)):
        windows.append(apply_filter(windows[-1], spec))
    assert len(copies) == len(windows) == 12 and not any(copies)
