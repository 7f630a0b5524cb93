import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from castlab import (
    ForecastTask,
    WindowPlan,
    WindowSet,
    make_windows,
    plan_windows,
    train_val_partition,
    validate_series,
    window_count,
)
from castlab.errors import ShapeMismatchError, TooFewWindowsError

TABLE_CASES = [
    (7, 384, 192, 96, 96, 1351),     # ETTm2
    (8, 384, 192, 96, 96, 1544),     # ExchangeRate
    (21, 384, 192, 96, 96, 4053),    # Weather
    (321, 96, 48, 24, 24, 15729),    # Electricity
    (862, 96, 48, 24, 24, 42238),    # Traffic
]


@pytest.mark.parametrize("d,i,o,ii,oo,k", TABLE_CASES)
def test_plan_published_counts(d, i, o, ii, oo, k):
    plan = plan_windows(ForecastTask(i, o), d)
    assert plan.inner_input == ii
    assert plan.inner_output == oo
    assert plan.window_count == k


def test_plan_too_few_windows():
    # I'=O'=5 leaves a single window for I=10.
    with pytest.raises(TooFewWindowsError):
        plan_windows(ForecastTask(10, 10), 1)


def _enumerate_count(d, i, ii, oo):
    # Independent oracle: count window start positions by brute force.
    count = 0
    for _ in range(d):
        s = 0
        while s + ii + oo <= i:
            count += 1
            s += 1
    return count


def test_formula_matches_enumeration_oracle():
    rng = np.random.default_rng(123)
    for _ in range(200):
        d = int(rng.integers(1, 20))
        ii = int(rng.integers(1, 30))
        oo = int(rng.integers(1, 30))
        i = ii + oo + int(rng.integers(0, 50))
        assert window_count(d, i, ii, oo) == _enumerate_count(d, i, ii, oo)


def _plan(i, ii, oo, d):
    return WindowPlan(outer_input=i, inner_input=ii, inner_output=oo, channels=d)


def test_make_windows_hand_case():
    # d=2, I=4, I'=1, O'=1: three offsets per channel, enumerable by hand.
    values = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0], [3.0, 13.0]])
    ws = make_windows(validate_series(values), _plan(4, 1, 1, 2))
    assert ws.size == 6
    assert ws.inputs.shape == ws.targets.shape == (2, 3, 1)
    for c in range(2):
        for s in range(3):
            assert ws.inputs[c, s].tolist() == [values[s, c]]
            assert ws.targets[c, s].tolist() == [values[s + 1, c]]


def test_make_windows_single_row():
    ws = make_windows(validate_series(np.arange(6.0)), _plan(6, 4, 2, 1))
    assert ws.size == 1
    assert ws.inputs[0, 0].tolist() == [0, 1, 2, 3]
    assert ws.targets[0, 0].tolist() == [4, 5]


def test_make_windows_shape_mismatch():
    series = validate_series(np.zeros((8, 3)))
    with pytest.raises(ShapeMismatchError):
        make_windows(series, _plan(8, 2, 2, 2))


def test_make_windows_matches_plan_count_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        ii = int(rng.integers(1, 12))
        oo = int(rng.integers(1, 12))
        i = ii + oo + int(rng.integers(0, 20))
        series = validate_series(rng.normal(size=(i, d)))
        plan = _plan(i, ii, oo, d)
        assert plan.window_count == window_count(d, i, ii, oo) == _enumerate_count(d, i, ii, oo)
        ws = make_windows(series, plan)
        assert ws.size == plan.window_count
        assert ws.inputs.shape[:2] == (d, plan.offsets_per_channel)
        # every pair reconstructs a contiguous slice of its source channel
        for c in range(d):
            for s in range(plan.offsets_per_channel):
                joined = np.concatenate([ws.inputs[c, s], ws.targets[c, s]])
                assert np.array_equal(joined, series.values[s : s + ii + oo, c])


def test_partition_examples():
    series = validate_series(np.arange(12.0))
    ws = make_windows(series, _plan(12, 2, 1, 1))
    train, val = train_val_partition(ws, 0.2)
    assert val.inputs[0, :, 0].tolist() == [8, 9]  # windows starting at offsets 8 and 9
    assert train.size == 8

    t2, v2 = train_val_partition(make_windows(series.segment(0, 4), _plan(4, 2, 1, 1)), 0.5)
    assert t2.size == 1 and v2.size == 1

    with pytest.raises(TooFewWindowsError):
        train_val_partition(make_windows(series.segment(0, 3), _plan(3, 2, 1, 1)), 0.5)


def test_partition_is_disjoint_exhaustive_and_later():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        ii, oo = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        i = ii + oo + int(rng.integers(2, 25))
        # a channel's values are its time index, so a window's first input is its offset
        series = validate_series(np.tile(np.arange(float(i))[:, None], (1, d)) + 1000.0 * np.arange(d))
        ws = make_windows(series, _plan(i, ii, oo, d))
        train, val = train_val_partition(ws, float(rng.uniform(0.1, 0.6)))
        assert train.size + val.size == ws.size
        for c in range(d):
            tr_offs = train.inputs[c, :, 0] - 1000.0 * c
            va_offs = val.inputs[c, :, 0] - 1000.0 * c
            assert len(tr_offs) and len(va_offs)
            assert sorted([*tr_offs, *va_offs]) == list(range(ws.inputs.shape[1]))
            assert tr_offs.max() < va_offs.min()


def test_window_sets_are_read_only_and_partitions_match_the_mask_split():
    inputs = np.arange(6.0).reshape(1, 3, 2)
    handed = WindowSet(inputs=inputs, targets=np.zeros((1, 3, 1)))
    view = inputs[..., :1]
    view.setflags(write=False)  # read-only, but its base is not
    through_view = WindowSet(inputs=view, targets=np.zeros((1, 3, 1)))
    inputs[:] = -1.0
    assert handed.inputs[0].tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert through_view.inputs[0, :, 0].tolist() == [0.0, 2.0, 4.0]
    with pytest.raises(ShapeMismatchError):
        WindowSet(inputs=np.zeros((2, 3, 1)), targets=np.zeros((2, 4, 1)))

    rng = np.random.default_rng(9)
    series = validate_series(rng.normal(size=(30, 3)))
    plan = _plan(30, 5, 4, 3)
    ws = make_windows(series, plan)
    train, val = train_val_partition(ws, 0.3)
    for part in (handed, ws, train, val):
        for arr in (part.inputs, part.targets):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    for part in (train, val):
        # the split copies nothing: its parts are views of the parent's blocks
        assert np.shares_memory(part.inputs, ws.inputs)
        assert np.shares_memory(part.targets, ws.targets)
    # the boolean-mask gather over flattened rows that slicing the blocks replaced
    offsets = plan.offsets_per_channel
    is_val = np.tile(np.arange(offsets), plan.channels) >= offsets - int(np.ceil(offsets * 0.3))
    for name in ("inputs", "targets"):
        rows = getattr(ws, name).reshape(ws.size, -1)
        assert np.array_equal(getattr(train, name).reshape(train.size, -1), rows[~is_val])
        assert np.array_equal(getattr(val, name).reshape(val.size, -1), rows[is_val])


def test_make_windows_are_read_only_views_of_one_channel_major_copy():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(30, 3))
    ws = make_windows(validate_series(values), _plan(30, 5, 4, 3))
    owner = ws.inputs
    while owner.base is not None:
        owner = owner.base
    # one (d, I) array holds every window: no window is copied
    assert owner.shape == (3, 30) and owner.flags.c_contiguous and not owner.flags.writeable
    assert np.array_equal(owner, values.T)
    for block in (ws.inputs, ws.targets):
        assert not block.flags.writeable
        assert np.shares_memory(block, owner)
        with pytest.raises(ValueError):
            block[0, 0, 0] = 1.0


def test_window_set_keeps_strided_views_of_read_only_memory_only():
    owned = np.arange(20.0).reshape(2, 10).copy()  # owns its memory
    owned.setflags(write=False)
    spans = sliding_window_view(owned, 4, axis=1)
    kept = WindowSet(inputs=spans[..., :3], targets=spans[..., 3:])
    assert np.shares_memory(kept.inputs, owned) and np.shares_memory(kept.targets, owned)

    writeable = np.arange(20.0).reshape(2, 10)
    spans = sliding_window_view(writeable, 4, axis=1)  # a read-only view of writeable memory
    copied = WindowSet(inputs=spans[..., :3], targets=spans[..., 3:])
    assert not np.shares_memory(copied.inputs, writeable)
    assert not np.shares_memory(copied.targets, writeable)
    writeable[:] = -1.0
    assert copied.inputs[1, 0].tolist() == [10.0, 11.0, 12.0]
    assert copied.targets[0, 6].tolist() == [9.0]
