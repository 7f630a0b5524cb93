import re
import time

import numpy as np
import pytest

from castlab import ScalingConfig, aggregate_median, decode_response
from castlab.errors import (
    EmptyListError,
    LengthMismatchError,
    NoNumbersFoundError,
    TooFewValuesError,
)
from castlab.llm.decode import _numeric_runs
from castlab.llm.prompts import PROMPT_STYLES, render_sequence

IDENTITY = ScalingConfig(scale=1.0, decimals=0)


def test_decode_plain_response():
    out = decode_response("-9, -10, -12, -8, -9", 5, IDENTITY)
    assert out.tolist() == [-9.0, -10.0, -12.0, -8.0, -9.0]


def test_decode_skips_leading_prose():
    out = decode_response("the next terms are: 1, 2, 3", 3, IDENTITY)
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_decode_too_few():
    with pytest.raises(TooFewValuesError) as err:
        decode_response("1, 2", 5, IDENTITY)
    assert err.value.found == 2 and err.value.expected == 5


def test_decode_without_a_long_enough_run_keeps_the_last_parsed_numbers():
    # runs [1], [5], [1, 2], [3, 4]: none reaches 3 values, so the flat tail counts
    out = decode_response("Step 1: 5 cycles. Answer: 1, 2 then 3, 4", 3, ScalingConfig())
    assert out.tolist() == [2.0, 3.0, 4.0]


_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_RUN_GAP_RE = re.compile(r"[^\s,]")


def _reference_numeric_runs(text):
    """The two-pass split the one-regex tokenizer replaced: find the numbers,
    then start a new run wherever the gap before one holds a character other
    than whitespace or a comma."""
    runs, prev_end = [], None
    for m in _NUMBER_RE.finditer(text):
        if prev_end is None or _RUN_GAP_RE.search(text[prev_end : m.start()]):
            runs.append([])
        runs[-1].append(float(m.group()))
        prev_end = m.end()
    return runs


def test_numeric_runs_match_the_two_pass_split():
    rng = np.random.default_rng(20)
    alphabet = list("0123456789") * 3 + list("+-.eE,, \n\tab:)[]−") + ["\u00a0", "\x1c", "\u0663"]
    texts = ["", "1", "-.5e+3, 2", "1.e5 .e5 e5 1e 1e+ +.", "1,2,,3 ;4", "3.14.15", "1-2+3"]
    texts += ["".join(rng.choice(alphabet, size=rng.integers(1, 40))) for _ in range(5000)]
    # mostly plain answers, which take the one-match path, with a few stray characters
    words = ["12", "-3", "+4.5", ".5", "6.", "7e2", "-8.1E-3", "1-2", "3.4.5", "9e", "x", "−1", ":"]
    separators = [", ", ",", " ", "\n", " ,\t", ""]
    for _ in range(5000):
        picks = rng.choice(len(words), size=rng.integers(0, 12), p=[0.12] * 7 + [0.16 / 6] * 6)
        texts.append("".join(words[i] + separators[rng.integers(len(separators))] for i in picks))
    # many numbers, then text: the shape of an answer with a closing remark
    for count in (1, 24, 200):
        numbers = ", ".join(str(rng.integers(-99, 999)) for _ in range(count))
        texts += [numbers + end for end in ("...", " x", " <sep>", "\n\nThese values follow.", " 1-2")]
    for text in texts:
        assert _numeric_runs(text) == _reference_numeric_runs(text), text
    assert _numeric_runs(" 1, -2.5,\n3e1 ,") == [[1.0, -2.5, 30.0]]  # plain: one run


def test_numbers_followed_by_text_decode_in_linear_time():
    # 200 two-digit words, each of which a number pattern with two ways to
    # match a word would try both ways of, before a tail that breaks the run
    numbers = " ".join(["12"] * 200)
    start = time.perf_counter()
    for end in ("...", " x", " −"):
        text = numbers + end
        assert _numeric_runs(text) == _reference_numeric_runs(text)
    assert time.perf_counter() - start < 1.0


def test_decode_no_numbers():
    with pytest.raises(NoNumbersFoundError):
        decode_response("I cannot determine the sequence.", 3, IDENTITY)


def test_decode_cot_answer_framing():
    text = (
        "Answer 1) The sequence shows 3 regimes with a spike of height 98 "
        "around position 7 and stability near -10 elsewhere.\n"
        "Answer 2) -9, -10, -12, -8, -9"
    )
    out = decode_response(text, 5, IDENTITY)
    assert out.tolist() == [-9.0, -10.0, -12.0, -8.0, -9.0]


def test_decode_takes_final_qualifying_run():
    text = "Input was 1, 2, 3, 4, 5. Continuation: 6, 7, 8, 9, 10"
    assert decode_response(text, 5, IDENTITY).tolist() == [6.0, 7.0, 8.0, 9.0, 10.0]


def test_decode_truncates_overlong_run():
    assert decode_response("1, 2, 3, 4", 2, IDENTITY).tolist() == [1.0, 2.0]


def test_decode_unicode_minus():
    assert decode_response("−9, −10", 2, IDENTITY).tolist() == [-9.0, -10.0]


def test_decode_applies_inverse_scaling():
    scaling = ScalingConfig(scale=2.0, decimals=1)
    out = decode_response("1.5, -2.5", 2, scaling)
    assert out.tolist() == [3.0, -5.0]


def test_decode_decimals_and_scientific():
    out = decode_response("1.25e1, -0.5, .75", 3, IDENTITY)
    assert np.allclose(out, [12.5, -0.5, 0.75])


def _response_for_style(style: str, payload: str) -> str:
    if style == "ts_cot":
        return f"Answer 1) The data look periodic overall.\nAnswer 2) {payload}"
    return payload


@pytest.mark.parametrize("style", PROMPT_STYLES)
@pytest.mark.parametrize("decimals", [0, 2, 4])
def test_codec_round_trip_per_style(style, decimals):
    rng = np.random.default_rng(hash((style, decimals)) % 2**32)
    scaling = ScalingConfig(scale=1.0, decimals=decimals)
    tol = 0.5 * 10.0 ** (-decimals) * (1 + 1e-9)
    for _ in range(50):
        values = rng.uniform(-500.0, 500.0, size=8)
        payload = render_sequence(values, scaling)
        decoded = decode_response(_response_for_style(style, payload), 8, scaling)
        assert np.max(np.abs(decoded - values)) <= tol


def test_round_trip_with_scaling_tolerance_scales():
    rng = np.random.default_rng(77)
    scaling = ScalingConfig(scale=7.0, decimals=2)
    tol = 0.5 * 10.0 ** (-2) * scaling.scale * (1 + 1e-9)
    for _ in range(100):
        values = rng.uniform(-100.0, 100.0, size=6)
        decoded = decode_response(render_sequence(values, scaling), 6, scaling)
        assert np.max(np.abs(decoded - values)) <= tol


# -- median aggregation ----------------------------------------------------


def test_median_identical_forecasts():
    f = [1.0, 2.0, 3.0]
    assert aggregate_median([f, f, f, f, f]).tolist() == f


def test_median_outlier_robust():
    samples = [[1.0], [2.0], [3.0], [4.0], [100.0]]
    assert aggregate_median(samples).tolist() == [3.0]


def test_median_even_count_mean_of_middles():
    samples = [[1.0], [2.0], [3.0], [10.0]]
    assert aggregate_median(samples).tolist() == [2.5]


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        samples = rng.normal(size=(k, 4))
        got = aggregate_median(list(samples))
        for pos in range(4):
            column = np.sort(samples[:, pos])
            if k % 2:
                expected = column[k // 2]
            else:
                expected = 0.5 * (column[k // 2 - 1] + column[k // 2])
            assert got[pos] == expected


def test_median_permutation_invariant_and_bounded():
    rng = np.random.default_rng(14)
    samples = rng.normal(size=(5, 6))
    base = aggregate_median(list(samples))
    for _ in range(5):
        perm = rng.permutation(5)
        assert np.array_equal(aggregate_median(list(samples[perm])), base)
    assert np.all(base >= samples.min(axis=0)) and np.all(base <= samples.max(axis=0))


def test_median_errors():
    with pytest.raises(EmptyListError):
        aggregate_median([])
    with pytest.raises(LengthMismatchError):
        aggregate_median([[1.0, 2.0], [1.0]])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _partition_median(samples):
    """The reference: the partition code aggregate_median ran before it called np.median."""
    half, odd = divmod(len(samples), 2)
    part = np.partition(np.vstack(samples), [half, -1] if odd else [half - 1, half, -1], axis=0)
    median = 0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2
    top = part[-1]  # NaN sorts last
    nan = np.isnan(top)
    return np.where(nan, top, median) if nan.any() else median


def test_median_equals_numpys_bit_for_bit():
    """aggregate_median is np.median, bit for bit equal to the partition reference."""
    rng = np.random.default_rng(15)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5])
    cases = []
    for k in range(1, 10):
        cases.append(rng.normal(size=(k, 24)))
        cases.append(rng.integers(-2, 3, size=(k, 24)).astype(float))  # many ties
        cases.append(rng.choice(specials, size=(k, 24)))  # ±0.0, ±inf and ties among them
        cases.append(rng.choice([0.0, -0.0], size=(k, 24)))
        cases.append(rng.choice([*specials, np.nan], size=(k, 24)))  # NaN among the specials
    cases.append(np.array([[np.inf, -np.inf, 1e308], [-np.inf, np.inf, 1e308]]))  # inf - inf, overflow
    nan_case = rng.normal(size=(5, 6))
    nan_case[[0, 3], [1, 4]] = np.nan
    cases.append(nan_case)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 1e308 + 1e308, in both
        for samples in cases:
            assert _same_bits(aggregate_median(list(samples)), _partition_median(samples)), samples
            flipped = samples[::-1]
            assert _same_bits(aggregate_median(flipped.tolist()), _partition_median(flipped))
