"""Exception taxonomy shared by all modules.

Every failure mode is loud: callers either get an exact answer or an
exception from this module.  There is one class per exit code, and
`cli.main` returns the `exit_code` of whatever it catches.  Pick the
class by what the failure means, not by where it is raised:
- malformed or inapplicable input (a shape, a variable set, a degree, a
  label, a singular frame) is a ParseError;
- a search, size or weight cap that was hit is a CapError;
- an exact identity that should hold and did not is a CheckFailed.
The message says which failure it was.  Raise no bare EngineError.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Malformed or inapplicable input."""

    exit_code = 3


class CapError(EngineError):
    """A configured search, size or weight cap was hit."""

    exit_code = 5


class CheckFailed(EngineError):
    """An exact identity that should hold did not."""

    exit_code = 2


class NotAUnit(ParseError):
    """Inversion of a ring element with no inverse; callers catch it."""
