"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, DataError and its
subclasses exit 2, NumericError exits 3.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PipelineError):
    """A data file or word-list input is unusable as provided."""


class FormatError(DataError):
    """A file does not conform to its documented text format."""


class MissingWordsError(DataError):
    """Requested words could not be resolved against an embedding table."""

    def __init__(self, context: str, words: list[str]):
        self.context = context
        self.words = list(words)
        shown = ", ".join(self.words[:10])
        more = "" if len(self.words) <= 10 else f" (+{len(self.words) - 10} more)"
        super().__init__(f"{context}: unresolvable words: {shown}{more}")


class UndersizedSetError(DataError):
    """A stimulus set is below the minimum size required at test time."""


class NumericError(PipelineError):
    """A computation is undefined for the given inputs (degenerate geometry)."""


class ZeroVectorError(NumericError):
    """A cosine was requested for a vector of norm zero, which has no direction."""
