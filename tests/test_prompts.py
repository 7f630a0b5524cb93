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
IDENTITY = ScalingConfig(offset=0.0, scale=1.0, decimals=0)


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
    scaling = ScalingConfig(offset=1.0, scale=2.0, decimals=3)
    bundle = build_prompt(FIXTURE, 7, "llmtime_chat", scaling)
    assert bundle.expected_count == 7
    assert bundle.scaling == scaling


def test_render_applies_affine_scaling():
    scaling = ScalingConfig(offset=10.0, scale=2.0, decimals=1)
    assert render_sequence([12.0, 14.0], scaling) == "1.0, 2.0,"
    assert render_sequence([12.0, 14.0], scaling, trailing_comma=False) == "1.0, 2.0"


def test_scaling_from_values_percentile_rule():
    values = np.arange(1.0, 101.0)  # |v| 90th percentile = 90.1
    scaling = ScalingConfig.from_values(values, decimals=2)
    assert scaling.offset == 0.0
    assert abs(scaling.scale - np.percentile(values, 90) / 10.0) < 1e-12
    assert scaling.decimals == 2


def test_scaling_from_constant_zero_falls_back():
    scaling = ScalingConfig.from_values(np.zeros(5))
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
