"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ``InputError`` -> 2 and
``CapExceededError`` -> 3.  Exit 4 comes from failed identity rows of a
suite report, not from an exception.
"""


class PtflabError(Exception):
    """Base class for every error raised by this package."""


class InputError(PtflabError, ValueError):
    """Malformed or out-of-contract input (bad dimension, index, file content)."""


class CapExceededError(PtflabError):
    """An infeasible request: over the enumeration budget, or too many distinct terms."""
