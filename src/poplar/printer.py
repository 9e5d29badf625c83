"""Annotation-free source rendering: the text `synth` writes once every
query has been replaced by its generated statements. Integration
annotations are not printed; a `protect` span prints as a plain block.
"""

from __future__ import annotations

from .model import (
    AssignStmt, BlockStmt, CallExpr, ClassModel, ExprStmt, Expr,
    FieldAccessExpr, FieldDecl, LiteralExpr, MethodSpec, NameExpr, NewExpr,
    ProtectStmt, ReturnStmt, Stmt, SuperExpr, ThisExpr, VarDeclStmt,
)

INDENT = "    "


def render_expr(e: Expr) -> str:
    if isinstance(e, NameExpr):
        return e.name
    if isinstance(e, ThisExpr):
        return "this"
    if isinstance(e, SuperExpr):
        return "super"
    if isinstance(e, LiteralExpr):
        if e.kind == "string":
            return '"' + str(e.value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        if e.kind == "bool":
            return "true" if e.value else "false"
        if e.kind == "null":
            return "null"
        return str(e.value)
    if isinstance(e, NewExpr):
        return f"new {e.type}(" + ", ".join(render_expr(a) for a in e.args) + ")"
    if isinstance(e, CallExpr):
        head = render_expr(e.receiver) + "." if e.receiver is not None else ""
        return f"{head}{e.method}(" + ", ".join(render_expr(a) for a in e.args) + ")"
    if isinstance(e, FieldAccessExpr):
        return f"{render_expr(e.receiver)}.{e.field}"
    raise TypeError(f"unknown expression {e!r}")


def _render_stmts(stmts: list[Stmt], depth: int) -> list[str]:
    out: list[str] = []
    for s in stmts:
        out.extend(_render_stmt(s, depth))
    return out


def _render_span(span, depth: int) -> list[str]:
    pad = INDENT * depth
    lines = [pad + "{"]
    lines.extend(_render_stmts(span, depth + 1))
    lines.append(pad + "}")
    return lines


def _render_stmt(s: Stmt, depth: int) -> list[str]:
    pad = INDENT * depth
    if isinstance(s, VarDeclStmt):
        init = f" = {render_expr(s.init)}" if s.init is not None else ""
        return [f"{pad}{s.type} {s.name}{init};"]
    if isinstance(s, AssignStmt):
        return [f"{pad}{render_expr(s.target)} = {render_expr(s.value)};"]
    if isinstance(s, ExprStmt):
        return [f"{pad}{render_expr(s.expr)};"]
    if isinstance(s, ReturnStmt):
        return [f"{pad}return{' ' + render_expr(s.value) if s.value else ''};"]
    if isinstance(s, (ProtectStmt, BlockStmt)):
        return _render_span(s.body, depth)
    raise TypeError(f"unknown statement {s!r}")


def _render_field(f: FieldDecl) -> str:
    parts = []
    if f.is_static:
        parts.append("static")
    if f.is_final:
        parts.append("final")
    parts.append(f.type)
    parts.append(f.name)
    text = " ".join(parts)
    if f.initializer is not None:
        text += f" = {render_expr(f.initializer)}"
    return text + ";"


def _render_method_head(m: MethodSpec) -> str:
    parts = []
    if m.is_abstract:
        parts.append("abstract")
    if m.is_static:
        parts.append("static")
    if not m.is_constructor:
        parts.append(m.return_type)
    parts.append(m.name)
    return " ".join(parts) + "(" + ", ".join(f"{a.type} {a.name}" for a in m.args) + ")"


def _render_method(m: MethodSpec, depth: int) -> list[str]:
    pad = INDENT * depth
    head = pad + _render_method_head(m)
    if m.body is None:
        return [head + ";"]
    lines = [head + " {"]
    lines.extend(_render_stmts(m.body, depth + 1))
    lines.append(pad + "}")
    return lines


def render_unit(units: list[ClassModel]) -> str:
    lines: list[str] = []
    for u in units:
        kind = "interface " if u.is_interface else ("abstract class " if u.is_abstract else "class ")
        head = kind + u.name
        if u.superclass:
            head += f" extends {u.superclass}"
        if u.interfaces:
            head += " implements " + ", ".join(u.interfaces)
        lines.append(head + " {")
        for f in u.fields:
            lines.append(INDENT + _render_field(f))
        for m in u.methods:
            lines.extend(_render_method(m, 1))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
