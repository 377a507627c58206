"""Value semantics shared by the sequential reference and the oracle."""

from .semantics import (
    SequentialRun,
    assert_same_semantics,
    sequential_run,
    streams_equal,
)

__all__ = [
    "SequentialRun",
    "assert_same_semantics",
    "sequential_run",
    "streams_equal",
]
