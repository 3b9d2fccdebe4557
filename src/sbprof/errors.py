"""Error types shared across the toolkit.

Everything raised on bad input derives from SandboxError so callers (and the
fuzz harness) can distinguish structured rejections from genuine bugs.
"""


class SandboxError(Exception):
    """Base class for all structured errors raised by this package."""


class UnknownOperation(SandboxError):
    def __init__(self, name):
        super().__init__(f"unknown operation {name!r}")
        self.name = name


class UnknownFilterKey(SandboxError):
    def __init__(self, key):
        super().__init__(f"unknown filter key {key!r}")
        self.key = key


class UnknownFilterValue(SandboxError):
    def __init__(self, key, value):
        super().__init__(f"unknown value {value!r} for filter {key!r}")
        self.key = key
        self.value = value


class InvalidProfile(SandboxError):
    """Raised when an operation requires a profile that fails validation."""

    def __init__(self, diagnostics):
        lines = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"profile failed validation: {lines}")
        self.diagnostics = list(diagnostics)


class VocabularyError(SandboxError):
    """Malformed vocabulary file."""


class SbplSyntaxError(SandboxError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnsupportedVersion(SandboxError):
    def __init__(self, version):
        super().__init__(f"unsupported profile language version {version}")
        self.version = version


class UnsupportedConstruct(SbplSyntaxError):
    """Scheme-style forms ((define ...), (if ...)) outside the implicit-rules file."""


class RegexSyntaxError(SandboxError):
    def __init__(self, message, position):
        super().__init__(f"position {position}: {message}")
        self.position = position


class TooManyStates(SandboxError):
    """Automaton exceeds the 16-bit node index space, or its reversal the
    glue-step budget, the leaf bound or the nesting bound."""


class MalformedRegexBlob(SandboxError):
    def __init__(self, offset, reason):
        super().__init__(f"bad regex blob at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class MalformedBlob(SandboxError):
    def __init__(self, offset, reason):
        super().__init__(f"bad profile blob at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class WrongFormatId(SandboxError):
    def __init__(self, found, expected):
        super().__init__(
            f"format id 0x{found:04x}, expected 0x{expected:04x}")
        self.found = found
        self.expected = expected


class NoBundleFound(SandboxError):
    """No decodable bundle header anywhere in the input."""


class CapacityExceeded(SandboxError):
    """Encoded structure does not fit the 16-bit offset space."""


class CycleDetected(SandboxError):
    def __init__(self, op_index, offset):
        super().__init__(
            f"operation {op_index}: node cycle through unit offset 0x{offset:04x}")
        self.op_index = op_index
        self.offset = offset


class DanglingOffset(SandboxError):
    def __init__(self, offset):
        super().__init__(f"offset 0x{offset:04x} resolves outside the node section")
        self.offset = offset


class IrreducibleGraph(SandboxError):
    """Aggregation could not collapse a (foreign) graph to an expression."""

    def __init__(self, reason, residual=""):
        super().__init__(reason + ("\n" + residual if residual else ""))
        self.residual = residual


class DecompileError(SandboxError):
    """Wraps a lower-level error with the operation it occurred in."""

    def __init__(self, operation, cause):
        super().__init__(f"operation {operation!r}: {cause}")
        self.operation = operation
        self.cause = cause
