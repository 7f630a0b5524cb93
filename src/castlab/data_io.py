"""Benchmark CSV ingestion and synthetic function-family generation.

Two CSV layouts are supported: ``informer`` (header row, first column is a
timestamp string, remaining columns numeric) and ``plain`` (numeric columns
only, optional header). The function generator samples six fixed function
families on [0, 1], min-max scales them into [0, 1], and optionally adds
seeded Gaussian noise (PCG64 via ``numpy.random.default_rng``).
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInputError,
    ParseError,
    RaggedRowsError,
    UnknownKindError,
)
from .series import TimeSeries, _frozen, validate_series

FUNCTION_KINDS = (
    "sine",
    "linear",
    "quadratic",
    "exponential",
    "sigmoid",
    "beat_interference",
)

CSV_LAYOUTS = ("informer", "plain")


@dataclass(frozen=True)
class FunctionSpec:
    """One synthetic series: a base function plus optional Gaussian noise."""

    kind: str
    length: int = 200
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise UnknownKindError(f"unknown function kind {self.kind!r}")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def _base_function(kind: str, t: np.ndarray) -> np.ndarray:
    if kind == "sine":
        return np.sin(2.0 * np.pi * 4.0 * t)
    if kind == "linear":
        return t.copy()
    if kind == "quadratic":
        return t**2
    if kind == "exponential":
        return np.exp(3.0 * t)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-12.0 * (t - 0.5)))
    if kind == "beat_interference":
        return np.sin(2.0 * np.pi * 5.0 * t) + np.sin(2.0 * np.pi * 5.5 * t)
    raise UnknownKindError(f"unknown function kind {kind!r}")


def generate_function_series(spec: FunctionSpec) -> TimeSeries:
    """Deterministic base function on an equispaced [0, 1] grid, min-max scaled
    to [0, 1], then perturbed by zero-mean Gaussian noise of std ``noise_std``.

    With ``noise_std == 0`` the clean scaled function is returned exactly.
    """
    t = np.linspace(0.0, 1.0, spec.length)
    base = _base_function(spec.kind, t)
    lo, hi = base.min(), base.max()
    scaled = (base - lo) / (hi - lo)
    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        scaled = scaled + rng.normal(0.0, spec.noise_std, size=spec.length)
    return validate_series(scaled, names=(spec.kind,))


def _channel_names(first: list[str], layout: str) -> list[str] | None:
    """The channel names a CSV's first row gives: an informer header without its
    timestamp; for plain, the row itself, or None when every token parses as a float."""
    if layout == "informer":
        if len(first) < 2:
            raise RaggedRowsError("informer layout needs a timestamp column plus channels")
        return [c.strip() for c in first[1:]]
    try:
        for token in first:
            float(token)
    except ValueError:
        return [c.strip() for c in first]
    return None


def _parse_rows(rows: list[tuple[int, list[str]]]) -> np.ndarray:
    if not rows:
        raise EmptyInputError("no data rows")
    width = len(rows[0][1])
    data = np.empty((len(rows), width), dtype=np.float64)
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(
                f"line {line_no} has {len(row)} columns, expected {width}"
            )
        for j, token in enumerate(row):
            try:
                data[i, j] = float(token)
            except ValueError:
                raise ParseError(line_no, j + 1, token) from None
    return data


def _read_rows(p: Path, layout: str) -> tuple[np.ndarray, list[str] | None]:
    """Values and channel names, token by token; raises on the first bad row."""
    with open(p, newline="", encoding="utf-8-sig") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not raw:
        raise EmptyInputError(f"{p} has no rows")

    names = _channel_names(raw[0][1], layout)
    if layout == "informer":
        return _parse_rows([(line_no, row[1:]) for line_no, row in raw[1:]]), names
    return _parse_rows(raw if names is None else raw[1:]), names


def _read_numeric(p: Path, layout: str) -> tuple[np.ndarray, list[str] | None] | None:
    """Values and channel names by numpy's C reader, or None if it rejects the file.

    The first row is read by ``csv`` and named by :func:`_channel_names` (so an
    informer header of one column raises); the data lines go to ``np.loadtxt``
    without being split in Python. An informer row is read as a record of its
    timestamp (kept to one character) and its channels, so numpy refuses a row
    of any other width. Lines are split on ``\\n``, ``\\r\\n`` and ``\\r``
    only, like ``csv``.
    """
    with open(p, newline="", encoding="utf-8-sig") as fh:
        head: list[str] = []  # the lines csv reads up to the first row
        reader = csv.reader(head.append(line) or line for line in fh)
        try:
            first = next((row for row in reader if row), None)
            if first is None:
                return None
            names = _channel_names(first, layout)
            lines, dtype, ndmin = (fh if names is not None else itertools.chain(head, fh)), float, 2
            if layout == "informer":
                dtype, ndmin = [("", "U1"), ("", "f8", (len(names),))], 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as "input contained no data"
                values = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                    quotechar='"', ndmin=ndmin)
        except (ValueError, Warning, csv.Error):
            return None
    return (values["f1"] if layout == "informer" else values), names


def load_csv(path: str | Path, layout: str = "plain") -> TimeSeries:
    """Load a CSV file into a TimeSeries, preserving row order.

    ``informer``: first row is a header, first column a timestamp string that
    is dropped; remaining columns become channels named by the header.
    ``plain``: every column is numeric; a first row with any non-numeric
    token is treated as a header of channel names.

    Data rows are parsed by ``np.loadtxt``. A file it rejects is read again
    token by token with ``float``, which accepts a few more spellings (such
    as ``1_0``) and raises ``RaggedRowsError`` or ``ParseError``; errors keep
    the line (counted over the CSV rows, blank ones included) and the 1-based
    column of the data cell, after the dropped timestamp.
    A UTF-8 byte-order mark at the start of the file is skipped.
    """
    if layout not in CSV_LAYOUTS:
        raise ValueError(f"layout must be one of {CSV_LAYOUTS}")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    values, names = _read_numeric(p, layout) or _read_rows(p, layout)
    return validate_series(_frozen(values), names=names)


def write_csv(series: TimeSeries, path: str | Path) -> Path:
    """Write a plain-layout CSV (header of channel names, full-precision values).

    ``load_csv(write_csv(s), layout="plain")`` round-trips values exactly:
    floats are written with shortest round-trip repr.
    """
    p = Path(path)
    names = series.channel_names or tuple(f"c{i}" for i in range(series.channels))
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in series.values:
            writer.writerow([float(v) for v in row])
    return p
