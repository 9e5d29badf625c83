"""Source rendering for model objects.

Two modes: annotated (full round-trip, label and protocol references are
printed fully qualified so re-parsing resolves them identically) and plain
(all integration annotations stripped; queries must already be substituted).
"""

from __future__ import annotations

from .model import (
    AddLabel, AssignStmt, BlockStmt, CallExpr, ClassModel, Condition, Conjunct,
    ExprStmt, Expr, FieldAccessExpr, FieldDecl, Invariant,
    LiteralExpr, MethodSpec, NameExpr, NewExpr, ProtectStmt, Query,
    QueryStmt, ResourceNode, ReturnStmt, Stmt, SuperExpr, ThisExpr, Transition,
    UniquenessKind, VarDeclStmt,
)

INDENT = "    "


class PlainModeError(Exception):
    """An annotation-bearing construct survived into plain output."""


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


def render_query(q: Query) -> str:
    if q.kind == "produce":
        text = f"#produce({q.produce_type}, {q.goal_text})"
    else:
        text = f"#transform({q.target_var}, {q.goal_text})"
    if q.with_names:
        text += " with " + ", ".join(q.with_names)
    return text


def _residence(paths) -> str:
    if not paths:
        return ""
    return " [*" + ", ".join(".".join(p) for p in paths) + "]"


def render_condition(c: Condition) -> str:
    if isinstance(c, Invariant):
        return c.atom.text()
    if isinstance(c, AddLabel):
        return "+" + c.atom.text() + _residence(c.residence)
    if isinstance(c, Transition):
        return f"{c.owner}.{c.protocol}@{c.source}->{c.target}" + _residence(c.residence)
    raise TypeError(f"unknown condition {c!r}")


def render_conjunct(cj: Conjunct) -> str:
    return f"{cj.subject}: " + ", ".join(render_condition(c) for c in cj.conditions)


def _render_stmts(stmts: list[Stmt], depth: int, plain: bool) -> list[str]:
    out: list[str] = []
    for s in stmts:
        out.extend(_render_stmt(s, depth, plain))
    return out


def _render_span(span, depth: int, plain: bool) -> list[str]:
    pad = INDENT * depth
    lines = [pad + "{"]
    lines.extend(_render_stmts(span, depth + 1, plain))
    lines.append(pad + "}")
    return lines


def _render_stmt(s: Stmt, depth: int, plain: bool) -> list[str]:
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
    if isinstance(s, QueryStmt):
        if plain:
            raise PlainModeError(f"unsubstituted query at line {s.pos.line}")
        site = (f"{s.type} " if s.type else "") + (f"{s.var} = " if s.var else "")
        line = pad + site + render_query(s.query)
        if s.span is not None:
            return [line] + _render_span(s.span, depth, plain)
        return [line + ";"]
    if isinstance(s, ProtectStmt):
        if plain:
            return _render_span(s.body, depth, plain)
        head = f"{pad}protect {s.var}.{'.'.join(s.resource)}"
        return [head] + _render_span(s.body, depth, plain)
    if isinstance(s, BlockStmt):
        return _render_span(s.body, depth, plain)
    raise TypeError(f"unknown statement {s!r}")


def _render_field(f: FieldDecl, plain: bool) -> str:
    parts = []
    if f.is_static:
        parts.append("static")
    if f.is_final:
        parts.append("final")
    if not plain:
        if f.managed:
            if f.managed_resource:
                parts.append(f"managed({'.'.join(f.managed_resource)})")
            else:
                parts.append("managed")
        if f.uniqueness is not UniquenessKind.NORMAL:
            parts.append(f.uniqueness.keyword)
    parts.append(f.type)
    parts.append(f.name)
    text = " ".join(parts)
    if not plain and f.labels:
        text += " +" + ", ".join(a.text() for a in f.labels)
    if f.initializer is not None:
        text += f" = {render_expr(f.initializer)}"
    return text + ";"


def _render_method_head(m: MethodSpec, plain: bool) -> str:
    parts = []
    if m.is_abstract:
        parts.append("abstract")
    if m.is_static:
        parts.append("static")
    if not plain and m.return_uniqueness is not UniquenessKind.NORMAL:
        parts.append(m.return_uniqueness.keyword)
    if not plain and m.result_labels:
        parts.append("+" + ", ".join(a.text() for a in m.result_labels))
    if not m.is_constructor:
        parts.append(m.return_type)
    parts.append(m.name)
    args = []
    for a in m.args:
        bits = []
        if not plain and a.uniqueness is not UniquenessKind.NORMAL:
            bits.append(a.uniqueness.keyword)
        bits.append(a.type)
        bits.append(a.name)
        args.append(" ".join(bits))
    return " ".join(parts) + "(" + ", ".join(args) + ")"


def _render_method_annotations(m: MethodSpec) -> list[str]:
    clauses: list[str] = []
    if m.local_mutations:
        clauses.append("[!" + ", ".join(".".join(p) for p in m.local_mutations) + "]")
    if m.mutates:
        clauses.append("mutates " + ", ".join(t.text() for t in m.mutates) + ":")
    conj = [render_conjunct(c) for c in m.conjuncts]
    conj.extend("(" + ", ".join(render_conjunct(c) for c in group) + ")?"
                for group in m.optional_groups)
    if conj:
        clauses.append(", ".join(conj))
    return clauses


def _render_method(m: MethodSpec, depth: int, plain: bool) -> list[str]:
    pad = INDENT * depth
    head = pad + _render_method_head(m, plain)
    annotations = [] if plain else _render_method_annotations(m)
    if annotations:
        head += "\n" + "\n".join(pad + INDENT + a for a in annotations)
    if m.body is None:
        return [head + ";"]
    lines = [head + " {"]
    lines.extend(_render_stmts(m.body, depth + 1, plain))
    lines.append(pad + "}")
    return lines


def _render_resource(node: ResourceNode) -> str:
    if not node.children:
        return node.name
    return node.name + " { " + ", ".join(_render_resource(c) for c in node.children) + " }"


def render_unit(units: list[ClassModel], plain: bool = False) -> str:
    lines: list[str] = []
    for u in units:
        kind = "interface " if u.is_interface else ("abstract class " if u.is_abstract else "class ")
        head = kind + u.name
        if u.superclass:
            head += f" extends {u.superclass}"
        if u.interfaces:
            head += " implements " + ", ".join(u.interfaces)
        lines.append(head + " {")
        if not plain:
            if u.precedence:
                lines.append(INDENT + f"precedence {u.precedence};")
            for ld in u.labels:
                carriers = f"({', '.join(ld.carriers)})" if ld.carriers else ""
                lines.append(INDENT + f"labels{carriers} {', '.join(ld.names)};")
            for pd in u.protocols:
                carriers = f"({', '.join(pd.carriers)})" if pd.carriers else ""
                lines.append(INDENT + f"protocols{carriers} {pd.name};")
            if u.resources:
                lines.append(INDENT + "resources " +
                             ", ".join(_render_resource(n) for n in u.resources) + ";")
        for f in u.fields:
            lines.append(INDENT + _render_field(f, plain))
        for m in u.methods:
            lines.extend(_render_method(m, 1, plain))
        if not plain:
            for ex in u.externals:
                target = ex.method.name if ex.method.is_constructor else f"{ex.target_type}.{ex.method.name}"
                head = INDENT + "external " + target
                head += "(" + ", ".join(
                    (a.uniqueness.keyword + " " if a.uniqueness is not UniquenessKind.NORMAL else "")
                    + f"{a.type} {a.name}" for a in ex.method.args) + ")"
                annotations = _render_method_annotations(ex.method)
                if annotations:
                    head += "\n" + "\n".join(INDENT * 2 + a for a in annotations)
                lines.append(head + ";")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
