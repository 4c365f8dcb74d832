"""Exception hierarchy shared by every module.

Each class corresponds to one failure mode named in the operation
contracts; nothing here carries behaviour beyond a message.
"""


class BindsigError(Exception):
    """Base class for all library errors."""


class DuplicateName(BindsigError):
    pass


class MalformedSort(BindsigError):
    pass


class TypeSystemMismatch(BindsigError):
    pass


class ParamArityMismatch(BindsigError):
    pass


class ParamKindMismatch(BindsigError):
    pass


class UnknownBuiltin(BindsigError):
    pass


class UnknownOp(BindsigError):
    pass


class ArityMismatch(BindsigError):
    pass


class SortMismatch(BindsigError):
    pass


class ScopeError(BindsigError):
    pass


class IllFormed(BindsigError):
    """A term failed the well-formedness judgment; message names the
    first violated invariant."""


class Unbounded(BindsigError):
    """Enumeration over a parameterized schema with no instantiation bound."""


class UnknownLabel(BindsigError):
    pass


class TypedSignature(BindsigError):
    """Operation requires a single-sorted (untyped) signature.

    The library no longer raises it; it stays because the public API
    exports it."""


class MissingClause(BindsigError):
    pass


class OffsetMismatch(BindsigError):
    """A translation placeholder sits under the wrong binder extension."""


class ContextMismatch(BindsigError):
    pass


class ParseError(BindsigError):
    """Syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col
