"""Exception types raised across the package.

The CLI maps :class:`ConfigError` to exit code 2 (usage/configuration) and
every other :class:`BicsiError` to exit code 1 (runtime/data).
"""


class BicsiError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BicsiError):
    """Invalid configuration: bad flag values, infeasible settings, bad filters."""


class TraceParseError(BicsiError):
    """A trace or manifest file violates the CSV grammar."""


class EmptyTraceError(BicsiError):
    """A trace file or record set contains no data rows."""


class DataDomainError(BicsiError):
    """Input values outside the legal domain (negative amplitude, non-finite I/Q)."""


class LengthMismatchError(BicsiError):
    """Sequences or vectors of different lengths were combined."""


class EmptyInputError(BicsiError):
    """An operation that needs at least one element received none."""


class UnknownLabelError(BicsiError):
    """A position label is not present in the fingerprint database."""


class SessionMismatchError(BicsiError):
    """Collection sessions that must list the same positions do not."""


class DbFormatError(BicsiError):
    """Base class for fingerprint database deserialization failures."""


class DbMagicError(DbFormatError):
    """The file does not start with the fingerprint database magic bytes."""


class DbVersionError(DbFormatError):
    """The file's format version is not supported."""


class DbTruncatedError(DbFormatError):
    """The file ends before the declared payload is complete."""


class DbLengthError(DbFormatError):
    """Internal lengths are inconsistent (trailing bytes, corrupt payload fields)."""
