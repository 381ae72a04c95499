"""Exception hierarchy for the YAT reproduction.

Every error raised by the library derives from :class:`YatError`, so callers
can catch one base class at the mediator boundary.  Subclasses are grouped by
subsystem: the data model, the YATL language, the algebra, capability
descriptions, sources, and the mediator itself.
"""

from __future__ import annotations


class YatError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class ModelError(YatError):
    """Problem with YAT data trees or type patterns."""


class PatternError(ModelError):
    """A type pattern is malformed (e.g. dangling named-pattern reference)."""


class XmlFormatError(ModelError):
    """An XML document does not follow the YAT wire format."""


# ---------------------------------------------------------------------------
# YATL language
# ---------------------------------------------------------------------------

class YatlError(YatError):
    """Problem with a YATL program."""


class YatlSyntaxError(YatlError):
    """The YATL parser rejected the input text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class YatlTranslationError(YatlError):
    """A parsed YATL query could not be translated to the algebra."""


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------

class AlgebraError(YatError):
    """Problem while building or evaluating an algebraic plan."""


class BindError(AlgebraError):
    """A Bind filter is malformed or cannot be applied to its input."""


class EvaluationError(AlgebraError):
    """Runtime failure while evaluating a plan."""


class UnknownVariableError(EvaluationError):
    """An expression referenced a variable absent from the Tab."""


# ---------------------------------------------------------------------------
# Capabilities / source description language
# ---------------------------------------------------------------------------

class CapabilityError(YatError):
    """Problem with a source capability description."""


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

class SourceError(YatError):
    """Problem inside one of the wrapped sources."""


class OqlError(SourceError):
    """The OQL engine rejected or failed to evaluate a query."""


class OqlSyntaxError(OqlError):
    """The OQL parser rejected the input text."""


class SchemaError(SourceError):
    """An object-database schema definition is inconsistent."""


class WaisError(SourceError):
    """The Wais full-text source rejected a request."""


class SqlSourceError(SourceError):
    """The relational source rejected a request."""


class PushdownRejectedError(SourceError):
    """A wrapper refused a pushed fragment outside its declared capabilities.

    Deterministic — retrying the same fragment can never succeed, so
    resilience policies treat it as non-retryable.
    """


class SourceTimeoutError(SourceError):
    """A source call exceeded its per-call time budget (retryable)."""


class SourceUnavailableError(SourceError):
    """A source could not be reached, even after the policy's retries.

    Carries the failing ``source`` name, the number of ``attempts`` made,
    and (via ``__cause__``) the last underlying error.  Under a
    degradation-enabled :class:`~repro.mediator.resilience.ResiliencePolicy`
    the evaluator may drop a failed ``Union`` branch instead of
    propagating this error.
    """

    def __init__(self, message: str, source: str = "", attempts: int = 0) -> None:
        super().__init__(message)
        self.source = source
        self.attempts = attempts


# ---------------------------------------------------------------------------
# Mediator
# ---------------------------------------------------------------------------

class MediatorError(YatError):
    """Problem at the mediator level (catalog, views, execution)."""


class UnknownSourceError(MediatorError):
    """A plan referenced a source that is not connected."""


class UnknownDocumentError(MediatorError):
    """A plan referenced a named document no source exports."""


class ViewError(MediatorError):
    """A view definition is missing or cannot be composed with a query."""


class ExecutionReportError(MediatorError):
    """An execution report was interrogated for something it does not hold
    (e.g. ``document()`` on a plan that did not build a single tree)."""


class QueryDeadlineError(MediatorError):
    """A federated query exceeded its overall deadline."""


class PartialResultError(MediatorError):
    """Degradation was allowed but no source branch survived, so there is
    no partial answer to return."""


class AdmissionError(MediatorError):
    """The serving layer refused a request before executing it.

    Raised on the submitting caller's thread in well under the
    millisecond range — rejection must stay cheap precisely when the
    server is busiest.  ``retry_after`` is the server's estimate (in
    seconds) of when resubmitting is worth trying; clients that honor it
    spread their retries instead of hammering an overloaded mediator.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(AdmissionError):
    """The admission queue is full (or past the shedding threshold for
    this request's priority); the request was shed, not queued."""


class QuotaExceededError(AdmissionError):
    """The submitting tenant's token-bucket quota is exhausted;
    ``retry_after`` is the exact time until the bucket refills."""
