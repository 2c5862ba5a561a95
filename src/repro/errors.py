"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CodebookError(ReproError):
    """A codebook definition or lookup is invalid."""


class UnknownCodeError(CodebookError):
    """A code identifier does not exist in the codebook."""

    def __init__(self, code: str, dimension: str | None = None) -> None:
        self.code = code
        self.dimension = dimension
        where = f" in dimension {dimension!r}" if dimension else ""
        super().__init__(f"unknown code {code!r}{where}")


class UnknownDimensionError(CodebookError):
    """A dimension identifier does not exist in the codebook."""

    def __init__(self, dimension: str) -> None:
        self.dimension = dimension
        super().__init__(f"unknown dimension {dimension!r}")


class CodingError(ReproError):
    """An annotation or coding operation is invalid."""


class CorpusError(ReproError):
    """A corpus entry is malformed or a corpus lookup failed."""


class UnknownEntryError(CorpusError):
    """A case-study entry identifier does not exist in the corpus."""

    def __init__(self, entry_id: str) -> None:
        self.entry_id = entry_id
        super().__init__(f"unknown corpus entry {entry_id!r}")


class BibliographyError(ReproError):
    """A bibliography record is malformed or a lookup failed."""


class AnalysisError(ReproError):
    """A tabulation or statistical computation could not be performed."""


class RenderError(ReproError):
    """A table could not be rendered in the requested format."""


class LegalModelError(ReproError):
    """A legal model (jurisdiction, statute, rule) is misconfigured."""


class EthicsModelError(ReproError):
    """An ethics model (stakeholder, harm, benefit) is misconfigured."""


class AssessmentError(ReproError):
    """A research-project assessment could not be completed."""


class REBError(ReproError):
    """An REB workflow operation is invalid for the submission state."""


class SafeguardError(ReproError):
    """A safeguard (storage, sharing, retention) operation failed."""


class AccessDeniedError(SafeguardError):
    """An access-controlled operation was attempted without authorisation."""

    def __init__(self, principal: str, action: str, resource: str) -> None:
        self.principal = principal
        self.action = action
        self.resource = resource
        super().__init__(
            f"access denied: {principal!r} may not {action!r} on {resource!r}"
        )


class IntegrityError(SafeguardError):
    """Stored data failed an integrity (authentication) check."""


class AnonymizationError(ReproError):
    """An anonymisation primitive was used incorrectly."""


class DatasetError(ReproError):
    """A synthetic dataset could not be generated or parsed."""


class MetricError(ReproError):
    """A survey-algorithm metric could not be computed."""


class ReportingError(ReproError):
    """A report could not be generated."""


class StaticCheckError(ReproError):
    """The static policy linter could not analyse a source file."""


class OperationError(ReproError):
    """An operation request is malformed (unknown op, bad arguments)."""


class PolicyError(OperationError):
    """A policy pack is malformed, unresolvable, or fails validation.

    Subclasses :class:`OperationError` deliberately: a bad pack is a
    bad *request* (the caller named a pack that cannot be compiled),
    so the failure table maps it to the usage exit code.
    """


class BatchError(OperationError):
    """A batch request file is malformed or cannot be read."""


class InputError(OperationError):
    """An input file is missing, unreadable, malformed or corrupt."""
