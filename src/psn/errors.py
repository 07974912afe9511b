"""Exception types shared across the package."""

import contextlib

# numpy's words for a size it cannot index, each a MemoryError in effect.
_NUMPY_OVERSIZE = ("Maximum allowed dimension exceeded",
                   "Maximum allowed size exceeded", "array is too big")


class ContractError(ValueError):
    """A documented precondition was violated (bad config value, misuse of an op)."""


class ShapeMismatchError(ContractError):
    """A shape does not fit: operands that do not match, or an input that
    breaks a forward's contract. The message names the shapes."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values. Carries the name of the first bad tensor."""

    def __init__(self, tensor_name, message=None):
        self.tensor_name = tensor_name
        super().__init__(message or f"non-finite values first appeared in {tensor_name!r}")


class ParseError(ValueError):
    """A binary or text input file is malformed. Carries the byte offset."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


@contextlib.contextmanager
def oversize_as_memory_error():
    """Re-raise numpy's ValueError for a size it cannot index as the
    MemoryError it stands for; every other exception passes unchanged."""
    try:
        yield
    except ValueError as err:
        if type(err) is ValueError and str(err).startswith(_NUMPY_OVERSIZE):
            raise MemoryError(str(err)) from None
        raise
