"""Exception hierarchy shared across the package.

Every error raised on bad input derives from ``LLMChemError`` and from
``ValueError``, so callers can catch broadly or narrowly.
"""

from __future__ import annotations


class LLMChemError(ValueError):
    """Base class for all validation and contract errors in this package."""


class DomainError(LLMChemError):
    """An argument is outside its documented numeric domain."""


class InvalidConfigurationError(LLMChemError):
    """A configuration references unknown models or is otherwise ill-formed."""


class InvalidPairError(LLMChemError):
    """A pairwise operation received two identical models."""


class SizeLimitError(LLMChemError):
    """An input exceeds a guard on combinatorial size."""


class MalformedMatrixError(LLMChemError):
    """A grade matrix violates its structural invariants."""


class MissingPairError(LLMChemError):
    """A chemistry table lacks an entry for a requested model pair."""


class NoCandidatesError(LLMChemError):
    """A recommendation was requested from an empty candidate pool."""


class UndefinedCorrelationError(LLMChemError):
    """Pearson correlation is undefined for the given series."""


class StoreVersionError(LLMChemError):
    """A persisted store declares an unsupported schema version."""


class ParseError(LLMChemError):
    """A file failed validation; carries the location of the first problem."""

    def __init__(self, message: str, *, path: object = None,
                 row: int | None = None, field: str | None = None):
        self.path = path
        self.row = row
        self.field = field
        where = [] if path is None else [f"in {path}"]
        if row is not None:
            where.append(f"row {row}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
