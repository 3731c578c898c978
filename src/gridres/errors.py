"""Exception hierarchy shared across the pipeline, the one decoder and JSON
loader of its inputs, whose errors name the input, and its one JSON writer.

The CLI maps these onto exit codes: missing inputs exit 2, validation
failures exit 3, anything else exit 1.
"""

import json
import sys


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


class UnservedScenario(ValidationError):
    """No models or stations serve a scenario; run-all skips it."""


def decoded(data: bytes, source: str) -> str:
    """`data` as UTF-8 text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not UTF-8 text: {exc.reason} at byte "
                              f"{exc.start}") from None


def json_object(text: str, source: str) -> dict:
    """The JSON object `text` holds; any other top-level value is invalid."""
    try:
        doc = json.loads(text)
    # ValueError also covers too long integers; RecursionError, deep nesting
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{source}: must be a JSON object")
    return doc


def json_text(doc, indent: int | None = 2) -> str:
    """`doc` as JSON text with sorted keys and a final newline."""
    return json.dumps(doc, sort_keys=True, indent=indent) + "\n"


def is_finite_number(value) -> bool:
    """A JSON number within the float range; true and false are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max
