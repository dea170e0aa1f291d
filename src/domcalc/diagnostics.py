"""Source spans and diagnostics shared by the frontend and the checkers."""

from __future__ import annotations

ERROR = "error"
WARNING = "warning"


class Frozen:
    """Base of an immutable value whose ``__init__`` stores its fields, in
    order, straight into the instance dict, which then holds nothing else.

    Two values are equal when their classes are the same and their fields
    are equal in order; a value hashes as the tuple of its fields, and its
    ``repr`` is ``Class(field=value, ...)``.  No attribute can be set or
    deleted after ``__init__``.  Pickle and ``copy`` restore the dict
    without ``__setattr__``.  That is the contract of
    ``@dataclass(frozen=True)``, kept without importing ``dataclasses`` or
    compiling methods at import time, as every command imports ``units``.
    """

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SourceSpan(Frozen):
    """Half-open region of a source file, 1-based lines and columns."""

    def __init__(self, file: str, start_line: int, start_col: int, end_line: int,
                 end_col: int) -> None:
        if (end_line, end_col) < (start_line, start_col):
            raise ValueError("span end precedes start")
        fields = self.__dict__
        fields["file"] = file
        fields["start_line"] = start_line
        fields["start_col"] = start_col
        fields["end_line"] = end_line
        fields["end_col"] = end_col

    @staticmethod
    def point(file: str, line: int, col: int) -> "SourceSpan":
        return SourceSpan(file, line, col, line, col)

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


_NO_SPAN = object()  # ``Diagnostic``'s default: a fresh span at <input>:1:1


class Diagnostic(Frozen):
    """A single reported problem with a stable code.

    Codes: E0xx frontend, E1xx analysis, E2xx units, E3xx compilation,
    E4xx simulation setup, Wxxx warnings.
    """

    def __init__(self, severity: str, code: str, message: str,
                 span: SourceSpan = _NO_SPAN) -> None:
        fields = self.__dict__
        fields["severity"] = severity
        fields["code"] = code
        fields["message"] = message
        fields["span"] = SourceSpan.point("<input>", 1, 1) if span is _NO_SPAN else span

    def __str__(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR


def error(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(ERROR, code, message, span or SourceSpan.point("<input>", 1, 1))


def warning(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(WARNING, code, message, span or SourceSpan.point("<input>", 1, 1))


def has_errors(diagnostics) -> bool:
    return any(d.is_error for d in diagnostics)
