"""Exception types shared across the package."""
from __future__ import annotations


class SketchdecError(Exception):
    """Base class for all errors raised by this package."""


class SketchSyntaxError(SketchdecError):
    """A sketch document failed to parse.

    ``position`` is a character offset for JSON-level errors (a byte
    offset for a file that is not UTF-8) and a chunk index for structural
    errors discovered after JSON decoding.
    """

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"at {position}: {reason}")


class DuplicateAdjacentVariable(SketchSyntaxError):
    pass


class EmptyDeterministicChunk(SketchSyntaxError):
    pass


class MissingBinding(SketchdecError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no binding for variable '{name}'")


class DynamicProgramError(SketchdecError):
    """A dynamic sketch program raised or produced an invalid chunk run."""


class UnsegmentableText(SketchdecError):
    """Text cannot be segmented into vocabulary tokens."""

    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(
            f"cannot segment text at offset {position}: {text[position:position + 16]!r}"
        )


class ManifestError(SketchdecError):
    """A benchmark manifest row is malformed or names an unknown task."""


class ModelFileError(SketchdecError):
    """A backend definition file is malformed."""


class BackendUnavailable(SketchdecError):
    """A remote backend could not be reached after the configured retries."""


class ContextTooLong(SketchdecError):
    """The remote model rejected the request because the prompt is too long."""


class ForcedScoringUnsupported(SketchdecError):
    """The backend cannot score a forced continuation."""


class ForcedTextMisaligned(ForcedScoringUnsupported):
    """The service split the prefix and a forced continuation into tokens
    that do not end where the prefix does, so the continuation's
    log-probabilities cannot be read apart from the prefix's: this one
    prefix cannot be scored, though others may be."""


class DeadEnd(SketchdecError):
    """No vocabulary token can legally extend the current partial value."""


class IllegalToken(SketchdecError):
    """A token outside the current constraint mask was fed to advance()."""


class TemplateUnsatisfiable(SketchdecError):
    """Every hypothesis died before completing the template.

    ``truncated_count`` counts the times the token cap stopped a
    hypothesis; when it is positive, the message names the cap too.
    """

    def __init__(
        self, reason: str, truncated_count: int = 0, cap: int | None = None
    ):
        self.truncated_count = truncated_count
        if truncated_count:
            reason += f" under the token cap of {cap} (truncated_count={truncated_count})"
        super().__init__(reason)


class ConstraintViolation(SketchdecError):
    """A provided binding value violates its variable's constraint."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"variable '{name}': {reason}")


class InstanceTooLarge(SketchdecError):
    """The completion space exceeds the enumeration cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"completion space {count} exceeds cap {cap}")
