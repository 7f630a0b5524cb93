"""Exception types shared across the package."""

from __future__ import annotations


class CastlabError(Exception):
    """Base class for every package-specific error."""


# -- series ------------------------------------------------------------------


class EmptyInputError(CastlabError):
    """Raised when an operation receives no data."""


class NonFiniteValueError(CastlabError):
    """A NaN or infinity was found where only finite values are allowed."""

    def __init__(self, row: int, channel: int):
        self.row = row
        self.channel = channel
        super().__init__(f"non-finite value at row {row}, channel {channel}")


class LabelCountMismatchError(CastlabError):
    """Channel label count does not match the channel count."""


class SegmentTooShortError(CastlabError):
    """A chronological split would produce an empty segment."""


class ZeroStdError(CastlabError):
    """A channel with zero standard deviation cannot be standardized."""

    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} has zero standard deviation")


# -- data io -----------------------------------------------------------------


class ParseError(CastlabError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, line: int, column: int, token: str = ""):
        self.line = line
        self.column = column
        self.token = token
        super().__init__(f"cannot parse {token!r} at line {line}, column {column}")


class RaggedRowsError(CastlabError):
    """CSV rows have inconsistent column counts."""


class UnknownKindError(CastlabError):
    """An enum-like kind string is not one of the supported values."""


# -- windowing ---------------------------------------------------------------


class TooFewWindowsError(CastlabError):
    """The windowing scheme yields too few samples to train and validate."""


class ShapeMismatchError(CastlabError):
    """Array shapes are inconsistent with what the operation requires."""


# -- linear models -----------------------------------------------------------


class KernelTooLargeError(CastlabError):
    """Moving-average kernel exceeds what the window length supports."""


class DivergedLossError(CastlabError):
    """Training loss became non-finite."""


# -- noise / filters ---------------------------------------------------------


class InvalidSpecError(CastlabError):
    """A noise or filter specification violates its invariants."""


# -- llm codec ---------------------------------------------------------------


class IndivisibleShotsError(CastlabError):
    """Input length cannot be split into the requested demonstration shots."""


class TooFewValuesError(CastlabError):
    """A response contained fewer numbers than the expected horizon."""

    def __init__(self, found: int, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(f"found {found} numeric values, expected {expected}")


class NoNumbersFoundError(CastlabError):
    """A response contained no parseable numbers at all."""


class AllSamplesFailedError(CastlabError):
    """Every sampled completion failed to decode within its attempt budget."""


class AdapterError(CastlabError):
    """A completion backend returned an error."""

    def __init__(self, status: int | None, message: str):
        self.status = status
        self.message = message
        super().__init__(f"adapter error (status={status}): {message}")


class LengthMismatchError(CastlabError):
    """Sequences that must share a length do not."""


class EmptyListError(CastlabError):
    """An aggregate over an empty collection was requested."""


# -- evaluation / orchestration ----------------------------------------------


class SeriesTooShortError(CastlabError):
    """A series is too short for the requested evaluation protocol."""


class ConfigError(CastlabError):
    """An experiment configuration is invalid."""


class RecordError(CastlabError):
    """A run's record file (cells.jsonl) cannot be read."""
