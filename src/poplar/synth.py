"""Plan realization: statement emission, query splicing, annotation
stripping, and integration assumptions with their compatibility check.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from . import Frozen, replace, setfield
from .diagnostics import Diagnostic, E_SYN
from .model import (
    AssignStmt, BlockStmt, CallExpr, ClassModel, Expr, ExprStmt,
    FieldAccessExpr, FieldDecl, MethodSpec, MutationTarget, NameExpr, NewExpr,
    Program, ProtectStmt, QueryStmt, Stmt, UniquenessKind, VarDeclStmt,
    can_override_arg, can_override_return, residence_text,
)

if TYPE_CHECKING:  # the planner is imported only by the commands that plan
    from .planner import PlanResult


class UnsolvedQueryRemains(Exception):
    pass


# ---------------------------------------------------------------------------
# Statement emission
# ---------------------------------------------------------------------------

class NamePool:
    """Fresh v-names for one method, skipping names the method already uses."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.index = 0

    def fresh(self) -> str:
        while True:
            self.index += 1
            name = f"v{self.index}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def method_declared_names(method: MethodSpec) -> set[str]:
    names = {a.name for a in method.args}

    def walk(stmts) -> None:
        for s in stmts or []:
            if isinstance(s, VarDeclStmt):
                names.add(s.name)
            elif isinstance(s, (BlockStmt, ProtectStmt)):
                walk(s.body)
            elif isinstance(s, QueryStmt):
                if s.type is not None:
                    names.add(s.var)
                walk(s.span)

    walk(method.body)
    return names


def emit_statements(result: PlanResult, pool: NamePool,
                    site_name: Optional[str] = None,
                    site_type: Optional[str] = None) -> list[Stmt]:
    """Statements for a closed plan. The goal value takes the site's
    variable name when the query is assigned: declared at `site_type` when
    one is given, else assigned to the existing variable."""
    plan = result.plan
    ordered = plan.linearize()
    used_oids: set[int] = set()
    for a in ordered:
        if a.receiver is not None:
            used_oids.add(a.receiver)
        used_oids.update(a.args)
    names: dict[int, str] = {}

    def ref(oid: Optional[int]) -> Expr:
        obj = plan.objects[oid]
        if obj.ctx_name is not None:
            return NameExpr(obj.ctx_name)
        return NameExpr(names[oid])

    out: list[Stmt] = []
    for a in ordered:
        spec = a.spec
        need_name = a.result is not None and (
            a.result in used_oids
            or (a.result == plan.goal_oid and site_name is not None))
        call: Expr
        if spec.kind == "ctor":
            call = NewExpr(spec.owner, [ref(o) for o in a.args])
            result_type = spec.owner
        elif spec.kind == "fieldread":
            call = FieldAccessExpr(NameExpr(spec.owner), spec.member)
            result_type = spec.fld.type
            need_name = a.result is not None and (a.result in used_oids or
                                                  a.result == plan.goal_oid)
        else:
            recv_obj = plan.objects.get(a.receiver) if a.receiver is not None else None
            if recv_obj is not None and recv_obj.ctx_name == "this":
                receiver: Optional[Expr] = None
            elif a.receiver is not None:
                receiver = ref(a.receiver)
            else:
                receiver = NameExpr(spec.owner)
            call = CallExpr(receiver, spec.member, [ref(o) for o in a.args])
            result_type = spec.method.return_type
        if need_name:
            if a.result == plan.goal_oid and site_name is not None:
                names[a.result] = site_name
                out.append(_bind_site(site_name, site_type, call))
            else:
                name = pool.fresh()
                names[a.result] = name
                out.append(VarDeclStmt(result_type, name, call))
        else:
            out.append(ExprStmt(call))
    goal_obj = plan.objects.get(plan.goal_oid)
    if site_name is not None and goal_obj is not None and goal_obj.ctx_name is not None:
        # The goal bound to an existing value: a plain aliasing statement.
        out.append(_bind_site(site_name, site_type, NameExpr(goal_obj.ctx_name)))
    return out


def _bind_site(name: str, type_name: Optional[str], value: Expr) -> Stmt:
    if type_name is not None:
        return VarDeclStmt(type_name, name, value)
    return AssignStmt(NameExpr(name), value)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

class Solution:
    """A plan and the statements that replace its query."""

    def __init__(self, result: PlanResult, statements: list[Stmt]):
        self.result = result
        self.statements = statements


def splice_program(program: Program, solutions: dict[int, Solution]) -> Program:
    """A new program with every query replaced by its solution statements.
    Solutions are keyed by id() of the query-bearing statement."""
    spliced = Program(diagnostics=program.diagnostics)
    spliced.unit_paths = dict(program.unit_paths)
    for cname, unit in program.units.items():
        methods = [m if m.body is None else
                   replace(m, body=_splice_stmts(m.body, solutions),
                           mutates=_widen_summary(program, m, solutions))
                   for m in unit.methods]
        spliced.units[cname] = replace(unit, methods=methods)
    return spliced


def _splice_stmts(stmts: list[Stmt], solutions: dict[int, Solution]) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, QueryStmt):
            if id(s) not in solutions:
                raise UnsolvedQueryRemains(
                    f"query at line {s.pos.line} has no solution")
            out.extend(solutions[id(s)].statements)
            if s.span is not None:
                out.append(BlockStmt(_splice_stmts(s.span, solutions)))
            continue
        if isinstance(s, BlockStmt):
            out.append(BlockStmt(_splice_stmts(s.body, solutions)))
            continue
        if isinstance(s, ProtectStmt):
            out.append(ProtectStmt(s.var, s.resource, _splice_stmts(s.body, solutions), s.pos))
            continue
        out.append(s)
    return out


def _widen_summary(program: Program, method: MethodSpec,
                   solutions: dict[int, Solution]) -> tuple[MutationTarget, ...]:
    """Under the rewrite policy, fold solution mutations the declared summary
    does not cover into the mutates clause."""
    extra: list[MutationTarget] = []
    declared = program.effective_summary(method)
    for sol in solutions.values():
        if sol.result.ctx.method is not method:
            continue
        for t in sorted(sol.result.solution_targets, key=lambda x: x.text()):
            if not any(program.target_covers(d, t, method) for d in declared) \
                    and t not in extra:
                extra.append(t)
    if not extra:
        return method.mutates
    return method.mutates + tuple(extra)


def render_plain(program: Program) -> dict[str, str]:
    """Annotation-free sources, one text per unit path."""
    from . import printer  # imported here so that verify-upgrade never loads it

    by_path: dict[str, list[ClassModel]] = {}
    for cname, unit in program.units.items():
        path = program.unit_paths.get(cname)
        if path is None:
            continue
        by_path.setdefault(path, []).append(unit)
    out = {}
    for path in sorted(by_path):
        out[path] = printer.render_unit(by_path[path])
    return out


# ---------------------------------------------------------------------------
# Integration assumptions
# ---------------------------------------------------------------------------

class AssumptionRecord:
    """What a plan assumed of one corpus member."""

    def __init__(self, type: str, member: str,
                 kind: str,  # "ctor" | "invoke" | "fieldread"
                 signature: str, group: int = -1, return_uniqueness: str = "normal",
                 arg_kinds: tuple[str, ...] = (), mutates: tuple[str, ...] = (),
                 pre: tuple[str, ...] = (), post: tuple[str, ...] = ()):
        self.type = type
        self.member = member
        self.kind = kind
        self.signature = signature
        self.group = group
        self.return_uniqueness = return_uniqueness
        self.arg_kinds = arg_kinds
        self.mutates = mutates
        self.pre = pre
        self.post = post


class IntegrationAssumptions:
    """The assumption records of one query."""

    def __init__(self, query_id: str, goal: str, corpus: str,
                 records: Optional[list[AssumptionRecord]] = None):
        self.query_id = query_id
        self.goal = goal
        self.corpus = corpus
        self.records = [] if records is None else records


def fingerprint_sources(sources: list[tuple[str, str]]) -> str:
    import hashlib  # imported here so that verify-upgrade never loads it

    h = hashlib.sha256()
    for path, text in sorted(sources):
        h.update(path.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def method_pre_entries(m: MethodSpec, group: Optional[int]) -> tuple[str, ...]:
    entries = [f"{s} {a.text()}" for s, a in m.subject_preconditions(group)]
    return tuple(sorted(set(entries)))


def method_post_entries(m: MethodSpec, group: Optional[int]) -> tuple[str, ...]:
    entries = {f"{s} {atom.text()}{residence_text(residence)}"
               for s, atom, residence in m.postconditions(group)}
    return tuple(sorted(entries))


def field_read_entries(fld: FieldDecl) -> tuple[str, tuple[str, ...]]:
    """The `signature` and `post` entries of a read of `fld`."""
    return f"{fld.type} {fld.name}", tuple(sorted(f"result {x.text()}" for x in fld.labels))


def emit_assumptions(result: PlanResult, query_id: str, corpus: str,
                     program: Program) -> IntegrationAssumptions:
    assumptions = IntegrationAssumptions(query_id, result.goal.text(), corpus)
    for a in result.plan.linearize():
        spec = a.spec
        if spec.kind == "fieldread":
            signature, post = field_read_entries(spec.fld)
            assumptions.records.append(AssumptionRecord(
                type=spec.owner, member=spec.member, kind="fieldread",
                signature=signature, post=post))
            continue
        m = spec.method
        rec = AssumptionRecord(
            type=spec.owner,
            member=spec.member,
            kind=spec.kind,
            signature=m.signature(),
            group=-1 if spec.group is None else spec.group,
            return_uniqueness=m.return_uniqueness.keyword,
            arg_kinds=tuple(f"{x.name}={x.uniqueness.keyword}" for x in m.args),
            mutates=tuple(sorted(t.text() for t in program.effective_summary(m))),
            pre=method_pre_entries(m, spec.group),
            post=method_post_entries(m, spec.group),
        )
        assumptions.records.append(rec)
    return assumptions


def serialize_assumptions(items: list[IntegrationAssumptions]) -> str:
    """Canonical line-oriented form: key=value lines in fixed order, one
    blank line between records, two between queries."""
    blocks = []
    for a in items:
        lines = [f"query={a.query_id}", f"goal={a.goal}", f"corpus={a.corpus}"]
        for rec in a.records:
            lines.append("")
            for key in _RECORD_KEYS:
                value = getattr(rec, key.replace("-", "_"))
                lines.append(f"{key}={'; '.join(value) if isinstance(value, tuple) else value}")
        blocks.append("\n".join(lines))
    return "\n\n\n".join(blocks) + "\n"


class MalformedAssumptions(Exception):
    """A field of an `.assume` file that does not parse, as a diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class _BadField(Exception):
    """(line index in its section, column, message)"""


_HEADER_KEYS = ("query", "goal", "corpus")
# A record's keys in file order; each names the `AssumptionRecord` field
# spelled with `_` for `-`.
_RECORD_KEYS = ("type", "member", "kind", "signature", "group", "return-uniqueness",
                "arg-kinds", "mutates", "pre", "post")


def _lines_of(keys: tuple[str, ...]) -> re.Pattern:
    """One `key=value` line per key, in order; each group is a value."""
    return re.compile("\n".join(re.escape(k) + "=(.*)" for k in keys))


_HEADER_LINES = _lines_of(_HEADER_KEYS)
_RECORD_LINES = _lines_of(_RECORD_KEYS)
_KINDS = ("ctor", "invoke", "fieldread")
_CORPUS = re.compile("[0-9a-f]{64}")
_KIND_ORDER = {k.keyword: k for k in UniquenessKind}


def parse_assumptions(text: str, path: str) -> list[IntegrationAssumptions]:
    """The queries of one `.assume` file. Each query's header lines and each
    record's ten lines must carry the README's keys in its order, the
    header's `corpus` must be a sha256 hex digest, and a record's `kind`,
    `group`, `return-uniqueness` and `arg-kinds` must parse, the last
    with one entry per parameter of its `signature`, each named once;
    the first deviation raises `MalformedAssumptions`, positioned at it."""
    out: list[IntegrationAssumptions] = []
    blocks = text.strip().split("\n\n\n")
    for b, block in enumerate(blocks):
        sections = block.split("\n\n")
        for s, section in enumerate(sections):
            try:
                if s == 0:
                    a = _header(_values(section, _HEADER_LINES, _HEADER_KEYS, "query header"))
                else:
                    a.records.append(_record(
                        _values(section, _RECORD_LINES, _RECORD_KEYS, "record")))
            except _BadField as e:
                index, col, message = e.args
                line = _first_line(text, blocks[:b], sections[:s]) + index
                raise MalformedAssumptions(
                    Diagnostic(path, line, col, E_SYN, message)) from None
        out.append(a)
    return out


def _values(section: str, lines_re: re.Pattern, keys: tuple[str, ...],
            what: str) -> tuple[str, ...]:
    """The values of the section's lines, whose keys must be `keys` in order."""
    m = lines_re.fullmatch(section)
    if m is not None:
        return m.groups()
    lines = section.split("\n")
    for i, key in enumerate(keys):
        if i == len(lines):
            raise _BadField(i, 1, f"{what} ends before its '{key}=' line")
        if not lines[i].startswith(key + "="):
            raise _BadField(i, 1, f"expected '{key}=', found '{lines[i]}'")
    raise _BadField(len(keys), 1, f"expected a blank line after '{keys[-1]}=', "
                                  f"found '{lines[len(keys)]}'")


def _header(values: tuple[str, ...]) -> IntegrationAssumptions:
    query_id, goal, corpus = values
    if _CORPUS.fullmatch(corpus) is None:
        raise _BadField(_HEADER_KEYS.index("corpus"), len("corpus") + 2,
                        f"corpus '{corpus}' is not a sha256 digest "
                        f"(64 lowercase hex digits)")
    return IntegrationAssumptions(query_id, goal, corpus)


def _bad_value(key: str, message: str, at: int = 0) -> _BadField:
    """A record field whose value does not parse, positioned at its `at`-th character."""
    return _BadField(_RECORD_KEYS.index(key), len(key) + 2 + at, message)


def _record(values: tuple[str, ...]) -> AssumptionRecord:
    type_, member, kind, signature, group, return_uniqueness, arg_kinds, mutates, pre, \
        post = values
    if kind not in _KINDS:
        raise _bad_value("kind", f"unknown record kind '{kind}' "
                                 f"(expected ctor, invoke or fieldread)")
    try:
        group_index = int(group)
    except ValueError:
        raise _bad_value("group", f"group '{group}' is not an integer") from None
    if return_uniqueness not in _KIND_ORDER:
        raise _bad_value("return-uniqueness",
                         f"unknown uniqueness kind '{return_uniqueness}'")
    entries: dict[str, str] = {}  # argument name -> its entry
    at = 0  # the offset of each entry in the value
    for entry in arg_kinds.split("; "):
        if entry:
            name, _, kindword = entry.partition("=")
            if kindword not in _KIND_ORDER:
                raise _bad_value("arg-kinds", f"unknown uniqueness kind '{kindword}' for "
                                              f"argument '{name}'", at + len(name) + 1)
            if name in entries:
                raise _bad_value("arg-kinds", f"argument '{name}' is named twice", at)
            entries[name] = entry
        at += len(entry) + 2
    if len(entries) != _signature_arity(signature):
        raise _bad_value("arg-kinds", f"{len(entries)} argument kinds for the "
                         f"{_signature_arity(signature)} parameters of '{signature}'")
    return AssumptionRecord(
        type=type_, member=member, kind=kind, signature=signature, group=group_index,
        return_uniqueness=return_uniqueness, arg_kinds=tuple(entries.values()),
        mutates=_split(mutates), pre=_split(pre), post=_split(post))


def _signature_arity(signature: str) -> int:
    """The count of the parameter types a record's `signature` names; a
    field read's names none."""
    params = signature.partition("(")[2].partition(")")[0]
    return params.count(",") + 1 if params else 0


def _split(raw: str) -> tuple[str, ...]:
    return tuple(filter(None, raw.split("; ")))


def _first_line(text: str, blocks_before: list[str], sections_before: list[str]) -> int:
    """The line number of the section after `sections_before`, which follow
    `blocks_before`. Separators are the blank lines that
    `serialize_assumptions` writes."""
    line = text[:len(text) - len(text.lstrip())].count("\n") + 1
    line += sum(b.count("\n") + 3 for b in blocks_before)
    return line + sum(sec.count("\n") + 2 for sec in sections_before)


# ---------------------------------------------------------------------------
# Upgrade compatibility
# ---------------------------------------------------------------------------

class Incompatibility(Frozen):
    """An assumption the upgraded corpus no longer meets."""

    def __init__(self, query_id: str, member: str, rule: str, message: str):
        setfield(self, "query_id", query_id)
        setfield(self, "member", member)
        setfield(self, "rule", rule)
        setfield(self, "message", message)


def check_compat(assumed: IntegrationAssumptions,
                 program: Program) -> list[Incompatibility]:
    """Each assumed member must still exist with conditions acceptable under
    the subclassing rules, without re-planning. A parameter is matched by
    position (`MethodSpec.renamed`), so one the new version renames keeps
    its conditions, mutations and kind."""
    out: list[Incompatibility] = []

    def bad(member: str, rule: str, message: str) -> None:
        out.append(Incompatibility(assumed.query_id, member, rule, message))

    for rec in assumed.records:
        label = f"{rec.type}.{rec.member}"
        unit = program.units.get(rec.type)
        if unit is None:
            bad(label, "member-missing", f"type '{rec.type}' no longer exists")
            continue
        if rec.kind == "fieldread":
            fld = program.find_field(rec.type, rec.member)
            signature, post = field_read_entries(fld) if fld is not None else (None, ())
            if signature != rec.signature:
                bad(label, "member-missing", "field missing or signature changed")
                continue
            # A plan reads only static fields (`planner.action_universe`).
            if not fld.is_static:
                bad(label, "member-missing", "field is no longer static")
                continue
            if not set(rec.post) <= set(post):
                bad(label, "postcondition-weakened",
                    "field lost labels the solution relied on")
            continue
        member = program.declared_method(rec.type, rec.member,
                                         _signature_arity(rec.signature),
                                         constructor=rec.kind == "ctor")
        if member is None or member.signature() != rec.signature:
            bad(label, "member-missing", "no method matches the assumed signature")
            continue
        # The record names the parameters as the planned version did.
        member = member.renamed([entry.partition("=")[0] for entry in rec.arg_kinds])
        if not _conditions_compatible(member, rec):
            bad(label, "conditions",
                "no variant offers weaker-or-equal preconditions and "
                "stronger-or-equal postconditions")
        extra = {t.text() for t in program.effective_summary(member)} - set(rec.mutates)
        if extra:
            bad(label, "mutations-grew",
                f"new mutations beyond the assumptions: {', '.join(sorted(extra))}")
        for entry, current in zip(rec.arg_kinds, member.args):
            name, _, kindword = entry.partition("=")
            if not can_override_arg(_KIND_ORDER[kindword], current.uniqueness):
                bad(label, "kind-lattice",
                    f"argument '{name}' kind {current.uniqueness.keyword} may "
                    f"not stand in for {kindword}")
        if not can_override_return(_KIND_ORDER[rec.return_uniqueness],
                                   member.return_uniqueness):
            bad(label, "kind-lattice",
                f"return kind {member.return_uniqueness.keyword} may not stand "
                f"in for {rec.return_uniqueness}")
    return out


def _conditions_compatible(member: MethodSpec, rec: AssumptionRecord) -> bool:
    """Some group choice (or none) must weaken pre and strengthen post
    relative to what the plan assumed."""
    assumed_pre = set(rec.pre)
    assumed_post = set(rec.post)
    for g in member.group_choices():
        pre = set(method_pre_entries(member, g))
        post = set(method_post_entries(member, g))
        if pre <= assumed_pre and post >= assumed_post:
            return True
    return False
