"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: missing inputs exit 2, validation
failures exit 3, anything else exit 1.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class MissingInputError(PipelineError):
    """A required input file or upstream stage output is absent."""


class ValidationError(PipelineError):
    """Input data or configuration violates a documented contract."""


class SchemaError(ValidationError):
    """A CSV header or structured document does not match its schema."""


class FitError(ValidationError):
    """A model fit cannot be attempted on the given samples."""


class EvaluationError(ValidationError):
    """Model evaluation produced a non-finite value, as for an intensity far
    outside any fitted range."""
