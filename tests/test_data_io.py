import numpy as np
import pytest

from castlab import (
    FunctionSpec,
    generate_function_series,
    load_csv,
    validate_series,
    write_csv,
)
from castlab.data_io import FUNCTION_KINDS
from castlab.errors import (
    NonFiniteValueError,
    ParseError,
    RaggedRowsError,
    UnknownKindError,
)


def test_load_informer(tmp_path):
    p = tmp_path / "informer.csv"
    p.write_text("date,HUFL\n2016-07-01 00:00:00,5.827\n2016-07-01 00:15:00,5.693\n")
    ts = load_csv(p, layout="informer")
    assert ts.length == 2 and ts.channels == 1
    assert ts.channel_names == ("HUFL",)
    assert np.allclose(ts.values[:, 0], [5.827, 5.693])


def test_load_plain_headerless(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ts = load_csv(p, layout="plain")
    assert ts.values.shape == (2, 2)
    assert ts.channel_names is None
    assert np.allclose(ts.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,x\n2020-01-01,1.0\n2020-01-02,abc\n")
    with pytest.raises(ParseError) as err:
        load_csv(p, layout="informer")
    assert err.value.line == 3 and err.value.token == "abc"


def test_load_ragged(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(RaggedRowsError):
        load_csv(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_nan_cell_rejected(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("1.0\nnan\n")
    with pytest.raises(NonFiniteValueError):
        load_csv(p)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    ts = validate_series(rng.normal(scale=123.4, size=(17, 3)), names=["a", "b", "c"])
    path = write_csv(ts, tmp_path / "rt.csv")
    back = load_csv(path, layout="plain")
    assert back.channel_names == ("a", "b", "c")
    assert np.allclose(back.values, ts.values, rtol=1e-9)


def test_function_clean_sine_in_unit_range():
    ts = generate_function_series(FunctionSpec(kind="sine", length=200, noise_std=0.0))
    assert ts.values.shape == (200, 1)
    assert abs(ts.values.min()) <= 1e-12
    assert abs(ts.values.max() - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", FUNCTION_KINDS)
def test_function_minmax_scaling_every_kind(kind):
    ts = generate_function_series(FunctionSpec(kind=kind, length=128, noise_std=0.0))
    assert abs(ts.values.min()) <= 1e-12
    assert abs(ts.values.max() - 1.0) <= 1e-12


def test_function_tiny_noise_std():
    spec = FunctionSpec(kind="sine", length=200, noise_std=0.001, seed=42)
    noisy = generate_function_series(spec).values[:, 0]
    clean = generate_function_series(FunctionSpec(kind="sine", length=200)).values[:, 0]
    resid = noisy - clean
    assert 0.0005 <= resid.std() <= 0.002


def test_function_determinism():
    spec = FunctionSpec(kind="beat_interference", length=150, noise_std=0.01, seed=9)
    a = generate_function_series(spec).values
    b = generate_function_series(spec).values
    assert np.array_equal(a, b)


def test_function_unknown_kind():
    with pytest.raises(UnknownKindError):
        FunctionSpec(kind="chirp")


def test_write_csv_missing_dir_raises(tmp_path):
    ts = validate_series(np.ones((2, 1)))
    with pytest.raises(OSError):
        write_csv(ts, tmp_path / "not" / "there" / "out.csv")


def test_write_csv_single_channel(tmp_path):
    ts = validate_series(np.arange(3.0))
    path = write_csv(ts, tmp_path / "one.csv")
    back = load_csv(path)
    assert back.channels == 1
    assert np.array_equal(back.values, ts.values)
