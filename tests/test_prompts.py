from pathlib import Path

import numpy as np
import pytest

from castlab import ScalingConfig, build_prompt
from castlab.errors import EmptyInputError, IndivisibleShotsError
from castlab.llm.prompts import PROMPT_STYLES, render_sequence

GOLDEN = Path(__file__).parent / "golden"

FIXTURE = np.array(
    [-12, -13, -15, -7, -11, -6, 43, 98, 43, -10,
     -11, -9, -11, -12, -9, -10, -12, -8, -9, -13],
    dtype=float,
)
IDENTITY = ScalingConfig(scale=1.0, decimals=0)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("style,attr,filename", [
    ("llmtime_base", "user_text", "llmtime_base_user.txt"),
    ("llmtime_chat", "system_text", "llmtime_chat_system.txt"),
    ("llmtime_chat", "user_text", "llmtime_chat_user.txt"),
    ("llmp_single", "system_text", "llmp_single_system.txt"),
    ("llmp_single", "user_text", "llmp_single_user.txt"),
    ("ts_cot", "user_text", "ts_cot_user.txt"),
    ("ts_incontext", "user_text", "ts_incontext_user.txt"),
])
def test_prompt_templates_byte_exact(style, attr, filename):
    bundle = build_prompt(FIXTURE, 5, style, IDENTITY, shots=3)
    assert getattr(bundle, attr) == _golden(filename)


def test_llmtime_base_has_empty_system():
    bundle = build_prompt(FIXTURE, 5, "llmtime_base", IDENTITY)
    assert bundle.system_text == ""


def test_ts_cot_and_incontext_share_standard_system():
    cot = build_prompt(FIXTURE, 5, "ts_cot", IDENTITY)
    chat = build_prompt(FIXTURE, 5, "llmtime_chat", IDENTITY)
    ctx = build_prompt(FIXTURE, 5, "ts_incontext", IDENTITY)
    assert cot.system_text == chat.system_text == ctx.system_text


def test_bundle_carries_expected_count_and_scaling():
    scaling = ScalingConfig(scale=2.0, decimals=3)
    bundle = build_prompt(FIXTURE, 7, "llmtime_chat", scaling)
    assert bundle.expected_count == 7
    assert bundle.scaling == scaling


def test_render_divides_by_the_scale():
    scaling = ScalingConfig(scale=2.0, decimals=1)
    assert render_sequence([2.0, -4.0], scaling) == "1.0, -2.0,"
    assert scaling.invert(scaling.transform(np.array([2.0, -4.0]))).tolist() == [2.0, -4.0]


def test_scaling_percentile_rule():
    values = np.arange(1.0, 101.0)  # |v| 90th percentile = 90.1
    [scaling] = ScalingConfig.per_channel(values[:, None], decimals=2)
    assert abs(scaling.scale - np.percentile(values, 90) / 10.0) < 1e-12
    assert scaling.decimals == 2


def test_scaling_from_constant_zero_falls_back():
    [scaling] = ScalingConfig.per_channel(np.zeros((5, 1)))
    assert scaling.scale == 1.0


def test_incontext_requires_divisible_input():
    with pytest.raises(IndivisibleShotsError):
        build_prompt(FIXTURE, 5, "ts_incontext", IDENTITY, shots=2)  # 20 % 3 != 0


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        build_prompt(np.array([]), 5, "llmtime_chat", IDENTITY)


@pytest.mark.parametrize("style", PROMPT_STYLES)
def test_all_styles_build(style):
    shots = 3 if style == "ts_incontext" else 1
    bundle = build_prompt(FIXTURE, 5, style, IDENTITY, shots=shots)
    assert bundle.user_text
    assert bundle.style == style


def _reference_from_values(values, decimals):
    """The per-channel rule before ScalingConfig.per_channel: one percentile call per channel."""
    q = float(np.percentile(np.abs(np.asarray(values, dtype=np.float64).ravel()), 90.0))
    return ScalingConfig(scale=q / 10.0 if q > 0.0 else 1.0, decimals=decimals)


def test_per_channel_scaling_equals_each_channels_own_bit_for_bit():
    rng = np.random.default_rng(21)
    windows = [rng.normal(scale=s, size=(n, d)) for s in (1e-3, 1.0, 4e5)
               for n, d in ((1, 1), (7, 3), (96, 7), (13, 2))]
    constant = np.column_stack([np.zeros(20), np.full(20, -2.5), rng.normal(size=20)])
    windows += [constant, np.zeros((12, 3)), -0.0 * np.ones((5, 2)), np.full((9, 1), 3.0)]
    for window in windows:
        for decimals in (0, 2):
            got = ScalingConfig.per_channel(window, decimals)
            want = [_reference_from_values(values, decimals) for values in window.T]
            assert got == want
    assert [s.scale for s in ScalingConfig.per_channel(constant)][:2] == [1.0, 0.25]


def _reference_render(values, scaling, trailing_comma=True):
    """render_sequence as it was: one f-string per value."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    tokens = [f"{v:.{scaling.decimals}f}" for v in scaling.transform(arr).tolist()]
    joined = ", ".join(tokens)
    return joined + "," if trailing_comma else joined


def _reference_incontext_user(arr, scaling, shots):
    """The ts_incontext user text as it was: every segment rendered on its own."""
    segments = shots + 1
    seg_len = arr.size // segments
    parts = [arr[i * seg_len : (i + 1) * seg_len] for i in range(segments)]
    demo_lines = []
    for k in range(shots):
        demo_in = _reference_render(parts[k], scaling)
        demo_out = _reference_render(parts[k + 1], scaling, trailing_comma=False)
        demo_lines.append(f"{k + 1}. Sequence: {demo_in} <sep> {demo_out}")
    return ("We give you input and output sequence samples:\n" + "\n".join(demo_lines)
            + "\n\nPlease predict next sequence following input sequence without producing any "
            "additional text. Do not say anything like 'the next terms in the sequence are', "
            f"just return the numbers. Input Sequence: {_reference_render(parts[-1], scaling)} <sep>")


@pytest.mark.parametrize("decimals", [0, 1, 2, 3])
def test_prompts_match_the_per_value_renderer_on_a_seeded_corpus(decimals):
    rng = np.random.default_rng(40 + decimals)
    corpus = [rng.normal(scale=s, size=n) for s in (0.01, 3.0, 250.0) for n in (4, 24, 96)]
    corpus += [np.array([0.5, 1.5, 2.5, -0.5, -0.0, 0.0, 1e-9, -2.675]),
               np.array([1e12, -1e12, 12345.6789, -0.004999])]
    for values in corpus:
        for scaling in (ScalingConfig.per_channel(values[:, None], decimals)[0],
                        ScalingConfig(scale=0.7, decimals=decimals)):
            reference = _reference_render(values, scaling)
            assert render_sequence(values, scaling) == reference
            for style in ("llmtime_base", "llmtime_chat", "ts_cot"):
                assert reference in build_prompt(values, 2, style, scaling).user_text
            incontext = build_prompt(values, 2, "ts_incontext", scaling, shots=3).user_text
            assert incontext == _reference_incontext_user(values, scaling, 3)
            pairs = build_prompt(values, 2, "llmp_single", scaling).user_text
            tokens = reference[:-1].split(", ")
            assert pairs.endswith("\n ".join([f"{i},{t}" for i, t in enumerate(tokens)]
                                             + [f"{len(tokens)}, ", f"{len(tokens) + 1}, "]) + "\n")
