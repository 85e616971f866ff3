"""Exception types shared across the package."""
from contextlib import contextmanager


class CnnAdaptError(Exception):
    """Base class for all errors raised by cnnadapt."""


class ShapeError(CnnAdaptError, ValueError):
    """Tensor or layer-graph shapes are inconsistent."""


class ModelFormatError(CnnAdaptError, ValueError):
    """A manifest, weights blob or tensor file is malformed."""


class PipelineError(CnnAdaptError, RuntimeError):
    """A transform was applied out of order (e.g. quantize before fuse)."""


class EvaluatorError(CnnAdaptError, RuntimeError):
    """The evaluator failed mid-sweep; carries what was accepted so far.

    Attributes:
        model: last accepted model before the failure.
        report: partial prune report up to the failing step.
    """

    def __init__(self, message, model=None, report=None):
        super().__init__(message)
        self.model = model
        self.report = report


@contextmanager
def file_content(path):
    """Re-raise a ValueError, OverflowError or PipelineError from the block as
    ModelFormatError naming ``path``: the block reads that file, so its content
    is at fault."""
    try:
        yield
    except ModelFormatError:
        raise
    except (ValueError, OverflowError, PipelineError) as e:
        raise ModelFormatError(f"{path}: {e}") from e
