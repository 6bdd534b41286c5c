"""Exception types shared across the package, and the integer conversion
that raises one for text past int()'s limit."""

# Characters of a rejected text that an error message quotes.
QUOTED_PREFIX = 20


class PretzelInputError(ValueError):
    """Base class for rejected user input (bad text, bad parameters)."""


class InvalidSequenceError(PretzelInputError):
    """A pretzel sequence violates a structural requirement (zero entry, empty, ...)."""


class UnrealizableOrientationError(PretzelInputError):
    """The requested strand-orientation pattern admits no consistent diagram."""


class ParseError(PretzelInputError):
    """Malformed sequence or polynomial text."""


def quoted(text: str) -> str:
    """repr of text's first QUOTED_PREFIX characters, '...' marking a cut."""
    return repr(text[:QUOTED_PREFIX]) + ("..." if len(text) > QUOTED_PREFIX else "")


def parse_int(digits: str) -> int:
    """int(digits) of a signed ASCII digit string; a ParseError, quoting at
    most QUOTED_PREFIX characters, past int()'s conversion limit
    (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer too long: {quoted(digits)} ({len(digits)} characters)") from None


class ResourceLimitError(PretzelInputError):
    """An enumeration request exceeds the configured size cap."""


class UnsupportedError(PretzelInputError):
    """The operation is not defined for this input (e.g. wrong component count)."""


class SplitDiagramError(Exception):
    """Raised internally when a diagram is split; callers translate this to 0."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree disagreed, or an exact identity failed."""
