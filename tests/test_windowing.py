import numpy as np
import pytest

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


def test_make_windows_hand_case():
    # d=2, I=4, I'=1, O'=1: six rows, enumerable by hand.
    values = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0], [3.0, 13.0]])
    series = validate_series(values)
    plan = WindowPlan(outer_input=4, outer_output=2, inner_input=1, inner_output=1,
                      channels=2, window_count=6)
    ws = make_windows(series, plan)
    assert ws.size == 6
    assert ws.inputs[:, 0].tolist() == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    assert ws.targets[:, 0].tolist() == [1.0, 2.0, 3.0, 11.0, 12.0, 13.0]
    assert ws.channel_index.tolist() == [0, 0, 0, 1, 1, 1]
    assert ws.start_offset.tolist() == [0, 1, 2, 0, 1, 2]


def test_make_windows_single_row():
    series = validate_series(np.arange(6.0))
    plan = WindowPlan(outer_input=6, outer_output=4, inner_input=4, inner_output=2,
                      channels=1, window_count=1)
    ws = make_windows(series, plan)
    assert ws.size == 1
    assert ws.inputs[0].tolist() == [0, 1, 2, 3]
    assert ws.targets[0].tolist() == [4, 5]


def test_make_windows_shape_mismatch():
    series = validate_series(np.zeros((8, 3)))
    plan = WindowPlan(outer_input=8, outer_output=4, inner_input=2, inner_output=2,
                      channels=2, window_count=10)
    with pytest.raises(ShapeMismatchError):
        make_windows(series, plan)


def test_make_windows_matches_plan_count_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        ii = int(rng.integers(1, 12))
        oo = int(rng.integers(1, 12))
        i = ii + oo + int(rng.integers(0, 20))
        series = validate_series(rng.normal(size=(i, d)))
        k = window_count(d, i, ii, oo)
        plan = WindowPlan(outer_input=i, outer_output=2 * oo, inner_input=ii,
                          inner_output=oo, channels=d, window_count=k)
        ws = make_windows(series, plan)
        assert ws.size == k
        # every row reconstructs a contiguous slice of its source channel
        for r in range(ws.size):
            c = ws.channel_index[r]
            s = ws.start_offset[r]
            joined = np.concatenate([ws.inputs[r], ws.targets[r]])
            assert np.array_equal(joined, series.values[s : s + ii + oo, c])


def test_partition_examples():
    series = validate_series(np.arange(12.0))
    plan = WindowPlan(outer_input=12, outer_output=2, inner_input=2, inner_output=1,
                      channels=1, window_count=10)
    ws = make_windows(series, plan)
    train, val = train_val_partition(ws, 0.2)
    assert sorted(val.start_offset.tolist()) == [8, 9]
    assert train.size == 8

    plan2 = WindowPlan(outer_input=4, outer_output=2, inner_input=2, inner_output=1,
                       channels=1, window_count=2)
    ws2 = make_windows(series.segment(0, 4), plan2)
    t2, v2 = train_val_partition(ws2, 0.5)
    assert t2.size == 1 and v2.size == 1

    plan3 = WindowPlan(outer_input=3, outer_output=2, inner_input=2, inner_output=1,
                       channels=1, window_count=1)
    ws3 = make_windows(series.segment(0, 3), plan3)
    with pytest.raises(TooFewWindowsError):
        train_val_partition(ws3, 0.5)


def test_partition_is_disjoint_exhaustive_and_later():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        ii, oo = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        i = ii + oo + int(rng.integers(2, 25))
        series = validate_series(rng.normal(size=(i, d)))
        k = window_count(d, i, ii, oo)
        plan = WindowPlan(outer_input=i, outer_output=2 * oo, inner_input=ii,
                          inner_output=oo, channels=d, window_count=k)
        ws = make_windows(series, plan)
        frac = float(rng.uniform(0.1, 0.6))
        train, val = train_val_partition(ws, frac)
        assert train.size + val.size == ws.size
        for c in range(d):
            tr_offs = train.start_offset[train.channel_index == c]
            va_offs = val.start_offset[val.channel_index == c]
            assert len(tr_offs) and len(va_offs)
            assert tr_offs.max() < va_offs.min()


def test_window_sets_are_read_only_and_partitions_match_the_mask_split():
    inputs = np.arange(6.0).reshape(3, 2)
    handed = WindowSet(inputs=inputs, targets=np.zeros((3, 1)),
                       channel_index=np.zeros(3, dtype=int), start_offset=np.arange(3))
    view = inputs[:, :1]
    view.setflags(write=False)  # read-only, but its base is not
    through_view = WindowSet(inputs=view, targets=np.zeros((3, 1)),
                             channel_index=np.zeros(3, dtype=int), start_offset=np.arange(3))
    inputs[:] = -1.0
    assert handed.inputs.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert through_view.inputs[:, 0].tolist() == [0.0, 2.0, 4.0]

    rng = np.random.default_rng(9)
    series = validate_series(rng.normal(size=(30, 3)))
    plan = WindowPlan(outer_input=30, outer_output=8, inner_input=5, inner_output=4,
                      channels=3, window_count=window_count(3, 30, 5, 4))
    ws = make_windows(series, plan)
    train, val = train_val_partition(ws, 0.3)
    fields = ("inputs", "targets", "channel_index", "start_offset")
    for part in (handed, ws, train, val):
        for name in fields:
            arr = getattr(part, name)
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    # the boolean-mask gather that slicing the channel blocks replaced
    offsets = plan.offsets_per_channel
    is_val = ws.start_offset >= offsets - int(np.ceil(offsets * 0.3))
    for name in fields:
        assert np.array_equal(getattr(train, name), getattr(ws, name)[~is_val])
        assert np.array_equal(getattr(val, name), getattr(ws, name)[is_val])


def test_partition_rejects_a_layout_other_than_make_windows():
    ws = make_windows(validate_series(np.arange(24.0).reshape(12, 2)),
                      WindowPlan(outer_input=12, outer_output=4, inner_input=2, inner_output=2,
                                 channels=2, window_count=18))
    order = np.argsort(ws.start_offset, kind="stable")  # offset-major
    shuffled = WindowSet(*(getattr(ws, name)[order] for name in
                           ("inputs", "targets", "channel_index", "start_offset")))
    with pytest.raises(ShapeMismatchError):
        train_val_partition(shuffled, 0.25)
