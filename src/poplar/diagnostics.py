"""Diagnostic records and the sink they are collected in.

One diagnostic per line, formatted ``path:line:col: severity: code: message``.
"""

from __future__ import annotations

from typing import Optional

from . import Frozen, setfield

E_SYN = "E-SYN"
E_RES = "E-RES"
E_SUM = "E-SUM"
E_UNIQ = "E-UNIQ"
E_OVR = "E-OVR"
E_SPAN = "E-SPAN"
E_PLAN = "E-PLAN"


class Diagnostic(Frozen):
    """One positioned message."""

    def __init__(self, path: str, line: int, col: int,
                 severity: str,  # "error" | "warning"
                 code: str, message: str):
        setfield(self, "path", path)
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "severity", severity)
        setfield(self, "code", code)
        setfield(self, "message", message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.severity}: {self.code}: {self.message}"


class DiagnosticSink:
    """The diagnostics of one run, rendered in a stable order."""

    def __init__(self, items: Optional[list[Diagnostic]] = None):
        self.items = [] if items is None else items

    def error(self, path: str, line: int, col: int, code: str, message: str) -> None:
        self.items.append(Diagnostic(path, line, col, "error", code, message))

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.items)

    def render(self) -> str:
        # Stable output: file, then position, then code.
        ordered = sorted(self.items, key=lambda d: (d.path, d.line, d.col, d.code, d.message))
        return "\n".join(d.render() for d in ordered)
