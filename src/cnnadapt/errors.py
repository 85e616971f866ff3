"""Exception types shared across the package."""
from contextlib import contextmanager


class CnnAdaptError(Exception):
    """Base class for all errors raised by cnnadapt."""


class ShapeError(CnnAdaptError, ValueError):
    """Tensor or layer-graph shapes are inconsistent."""


class ModelFormatError(CnnAdaptError, ValueError):
    """A manifest, weights blob or tensor file is malformed."""


class NumericalError(CnnAdaptError, ArithmeticError):
    """A computation on finite operands left the float32 range."""


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
def file_content(where):
    """Re-raise a ValueError, OverflowError or PipelineError from the block,
    ModelFormatError included, as ModelFormatError prefixed by ``where``: the
    block reads that file, or that part of one, so its content is at fault.
    An OSError (a missing or unreadable file) is re-raised the same way, as
    its strerror with the first letter lower-cased."""
    try:
        yield
    except (ValueError, OverflowError, PipelineError) as e:
        raise ModelFormatError(f"{where}: {e}") from e
    except OSError as e:
        raise ModelFormatError(f"{where}: {_reason(e)}") from e


@contextmanager
def file_written(where):
    """Re-raise an OSError from the block, which writes that file or part of
    one, as an OSError prefixed by ``where`` and worded as ``file_content``
    words a read fault, so no temporary file name reaches the message."""
    try:
        yield
    except OSError as e:
        raise OSError(f"{where}: {_reason(e)}") from e


def _reason(e: OSError) -> str:
    """An OSError's strerror, or its message, with the first letter lower-cased."""
    reason = str(e.strerror or e)
    return f"{reason[:1].lower()}{reason[1:]}"
