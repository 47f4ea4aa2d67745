"""Exception types raised by the raftcensus library.

Everything derives from RaftCensusError so callers (and the CLI) can
distinguish data/usage problems from genuine bugs.
"""

__all__ = [
    "RaftCensusError", "ManifestError", "PgmError", "DimensionError", "DegenerateHistogramError",
    "ModelFormatError", "TrainingError", "DatasetError", "EvaluationError",
]


class RaftCensusError(Exception):
    """Base class for all errors raised by this package."""


class ManifestError(RaftCensusError):
    """Band manifest is missing, malformed, or references bad files."""


class PgmError(RaftCensusError):
    """A band image file is not a valid 16-bit binary PGM."""


class DimensionError(RaftCensusError):
    """Raster planes or masks have inconsistent shapes."""


class DegenerateHistogramError(RaftCensusError):
    """Histogram has no valid threshold split (empty or single bin)."""


class ModelFormatError(RaftCensusError):
    """MLP model file is malformed or internally inconsistent."""


class TrainingError(RaftCensusError):
    """Training preconditions violated or the loss diverged."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class DatasetError(RaftCensusError):
    """Labeled-pixel extraction or synthetic scene generation failed."""


class EvaluationError(RaftCensusError):
    """Detection/truth bookkeeping is inconsistent."""
