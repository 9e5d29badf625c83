"""Name resolution: binds the annotation names of the parsed declarations in
place into a Program, plus the external overlay pass that merges interclass
annotations onto their target methods.
"""

from __future__ import annotations

from typing import Optional

from . import parser as P
from .diagnostics import DiagnosticSink, E_RES, E_SYN
from .model import (
    AddLabel, ClassModel, Condition, Conjunct, ExternalDecl, Invariant,
    LabelAtom, MethodSpec, MutationTarget, Pos, PRIMITIVES, Program,
    ProtocolDecl, QueryStmt, OBJECT, STRING, StateAtom, Stmt,
    Transition, VarDeclStmt, any_target, this_target, var_target,
)


def _builtin_units() -> dict[str, ClassModel]:
    return {
        OBJECT: ClassModel(OBJECT),
        STRING: ClassModel(STRING, superclass=OBJECT),
    }


class Resolver:
    def __init__(self, units: list[tuple[str, list[ClassModel]]], sink: DiagnosticSink):
        self.units = units
        self.sink = sink
        self.program = Program(diagnostics=sink)

    def error(self, path: str, pos: Pos, message: str) -> None:
        self.sink.error(path, pos.line, pos.col, E_RES, message)

    # -- pass 1: declarations -------------------------------------------------

    def resolve(self) -> Program:
        prog = self.program
        prog.units.update(_builtin_units())
        declared: list[tuple[str, ClassModel]] = []
        for path, decls in self.units:
            for unit in decls:
                if unit.name in prog.units:
                    self.error(path, unit.pos, f"duplicate type name '{unit.name}'")
                    continue
                prog.units[unit.name] = unit
                prog.unit_paths[unit.name] = path
                declared.append((path, unit))
        for path, unit in declared:
            self._check_supertypes(path, unit)
        self._promote_summary_fields(declared)
        for path, unit in declared:
            self._resolve_class(path, unit)
        return prog

    def _check_supertypes(self, path: str, unit: ClassModel) -> None:
        if unit.superclass:
            sup = self.program.units.get(unit.superclass)
            if sup is None:
                self.error(path, unit.pos, f"unknown superclass '{unit.superclass}'")
            elif sup.is_interface:
                self.error(path, unit.pos, f"'{unit.superclass}' is not a class")
        for i in unit.interfaces:
            u = self.program.units.get(i)
            if u is None:
                self.error(path, unit.pos, f"unknown interface '{i}'")
            elif not u.is_interface:
                self.error(path, unit.pos, f"'{i}' is not an interface")
        cycle = self._inheritance_cycle(unit.name)
        if cycle:
            self.error(path, unit.pos, f"cyclic inheritance: {' -> '.join(cycle)}")

    def _inheritance_cycle(self, name: str) -> list[str]:
        """The supertype path that leads from `name` back to itself, or []."""
        parent: dict[str, Optional[str]] = {name: None}
        work = [name]
        while work:
            t = work.pop()
            u = self.program.units[t]
            for s in ([u.superclass] if u.superclass else []) + list(u.interfaces):
                if s == name:
                    chain = [name]
                    while t is not None:
                        chain.append(t)
                        t = parent[t]
                    return chain[::-1]
                if s in self.program.units and s not in parent:
                    parent[s] = t
                    work.append(s)
        return []

    def _promote_summary_fields(self, declared: list[tuple[str, ClassModel]]) -> None:
        """A field mentioned in a declared summary of its class is managed."""
        for _, unit in declared:
            mentioned: set[str] = set()
            for m in unit.methods:
                for t in m.mutates:
                    if t.root == "name":
                        mentioned.add(t.name)
            for f in unit.fields:
                if f.name in mentioned:
                    f.managed = True

    # -- pass 2: annotations ----------------------------------------------------

    def _resolve_class(self, path: str, model: ClassModel) -> None:
        names: set[str] = set()
        for f in model.fields:
            if f.name in names:
                self.error(path, f.pos, f"duplicate field '{f.name}' in '{model.name}'")
            names.add(f.name)
            if f.managed and f.managed_resource is not None:
                if not self.program.resolve_resource_path(model.name, f.managed_resource):
                    self.error(path, f.pos,
                               f"managed field '{f.name}' names unknown resource "
                               f"'{'.'.join(f.managed_resource)}'")
            f.labels = self._resolve_labels(path, f.pos, f.labels, model.name, f.type)
        keys: set[tuple[str, int]] = set()
        for m in model.methods:
            if m.key in keys:
                what = "constructor" if m.is_constructor else "method"
                self.error(path, m.pos,
                           f"duplicate {what} '{m.name}/{len(m.args)}' in '{model.name}'")
            keys.add(m.key)
            self._resolve_method(path, m, model.name)
        for ex in model.externals:
            # An overlay's `result` is its target's; its labels resolve here.
            target = self.program.declared_method(ex.method.declared_in, ex.method.name,
                                                  len(ex.method.args), ex.method.is_constructor)
            if target is not None:
                ex.method.return_type = target.return_type
            self._resolve_method(path, ex.method, model.name)
            # An overlay merges conditions only; its summary is checked, then dropped.
            ex.method.local_mutations = ex.method.mutates = ()

    def _resolve_method(self, path: str, m: MethodSpec, scope: str) -> None:
        """Bind the method's annotation names in place, labels in `scope`."""
        seen: set[str] = set()
        for a in m.args:
            if a.name in seen:
                self.error(path, a.pos, f"duplicate parameter '{a.name}' in '{m.name}'")
            seen.add(a.name)
        for a in m.args:
            if a.type not in PRIMITIVES and a.type not in self.program.units \
                    and not a.type.endswith("[]"):
                self.error(path, a.pos, f"unknown type '{a.type}' in parameter '{a.name}'")
        m.result_labels = self._resolve_labels(path, m.pos, m.result_labels, scope,
                                               m.return_type)
        m.conjuncts = tuple(self._resolve_conjunct(path, cj, scope, m)
                            for cj in m.conjuncts)
        m.optional_groups = tuple(tuple(self._resolve_conjunct(path, cj, scope, m)
                                        for cj in group)
                                  for group in m.optional_groups)
        for p, pos in m.local_mutations:
            if not self.program.resolve_resource_path(m.declared_in, p):
                self.error(path, pos, f"unknown resource '{'.'.join(p)}' in [!] list")
        m.local_mutations = tuple(p for p, _ in m.local_mutations)
        m.mutates = tuple(t for t in
                          (self._resolve_target(path, rt, m) for rt in m.mutates)
                          if t is not None)

    def _resolve_labels(self, path: str, pos: Pos, names: tuple[str, ...], scope: str,
                        sub_type: str) -> tuple[LabelAtom, ...]:
        atoms = [self._resolve_label_ref(path, pos, n, scope, sub_type) for n in names]
        return tuple(a for a in atoms if a is not None)

    def _resolve_conjunct(self, path: str, cj: P.RawConjunct, scope: str,
                          m: MethodSpec) -> Conjunct:
        sub_type = m.subject_type(cj.subject)
        if sub_type is None and cj.subject not in ("this", "result"):
            self.error(path, cj.pos, f"unknown condition subject '{cj.subject}'")
        conditions = []
        for rc in cj.conditions:
            cond = self._resolve_condition(path, rc, scope, sub_type)
            if cond is not None:
                conditions.append(cond)
        return Conjunct(cj.subject, tuple(conditions))

    def _resolve_condition(self, path: str, rc: P.RawCondition, scope: str,
                           sub_type: Optional[str]) -> Optional[Condition]:
        if rc.kind == "invariant-label":
            atom = self._resolve_label_ref(path, rc.pos, rc.name, scope, sub_type)
            return Invariant(atom) if atom is not None else None
        if rc.kind == "invariant-state":
            proto = self._resolve_protocol_ref(path, rc.pos, rc.name, scope, sub_type)
            if proto is None:
                return None
            return Invariant(StateAtom(proto.owner, proto.name, rc.source))
        residence = tuple(tuple(p) for p in rc.residence)
        if residence and sub_type is not None:
            for p in residence:
                if not self.program.resolve_resource_path(sub_type, p):
                    self.error(path, rc.pos,
                               f"unknown residence resource '{'.'.join(p)}' on type '{sub_type}'")
        if rc.kind == "add":
            if "@" in rc.name or rc.source:
                # +p@s: a state established on a fresh value.
                proto = self._resolve_protocol_ref(path, rc.pos, rc.name, scope, sub_type)
                if proto is None:
                    return None
                return AddLabel(StateAtom(proto.owner, proto.name, rc.source), residence)
            atom = self._resolve_label_ref(path, rc.pos, rc.name, scope, sub_type)
            if atom is None:
                return None
            return AddLabel(atom, residence)
        if rc.kind == "transition":
            proto = self._resolve_protocol_ref(path, rc.pos, rc.name, scope, sub_type)
            if proto is None:
                return None
            return Transition(proto.owner, proto.name, rc.source, rc.target, residence)
        raise AssertionError(rc.kind)

    def _resolve_label_ref(self, path: str, pos: Pos, name: str, scope: str,
                           sub_type: Optional[str]) -> Optional[LabelAtom]:
        candidates = self.program.resolve_label(name, scope)
        if not candidates:
            self.error(path, pos, f"unresolved label '{name}'")
            return None
        if len(candidates) > 1:
            self.error(path, pos, "ambiguous label '" + name + "': " +
                       ", ".join(a.text() for a in sorted(candidates, key=lambda a: a.owner)))
            return None
        atom = candidates[0]
        u = self.program.units.get(atom.owner)
        for ld in () if u is None else u.labels:
            if atom.name in ld.names:
                self._check_carrier(path, pos, "label", atom.owner, atom.name,
                                    ld.carriers, sub_type)
                break
        return atom

    def _check_carrier(self, path: str, pos: Pos, what: str, owner: str, name: str,
                       carriers: tuple[str, ...], sub_type: Optional[str]) -> None:
        """A label or protocol applies to a subject of a subtype of one of
        its carriers (its declaring type when it names none)."""
        carriers = carriers or (owner,)
        if sub_type is not None and \
                not any(self.program.is_subtype(sub_type, c) for c in carriers):
            self.error(path, pos, f"{what} '{owner}.{name}' does not apply to type "
                                  f"'{sub_type}' (carriers: {', '.join(carriers)})")

    def _resolve_protocol_ref(self, path: str, pos: Pos, name: str, scope: str,
                              sub_type: Optional[str]) -> Optional[ProtocolDecl]:
        candidates = self.program.resolve_protocol(name, scope)
        if not candidates:
            self.error(path, pos, f"unresolved protocol '{name}'")
            return None
        firsts = {(p.owner, p.name) for p in candidates}
        if len(firsts) > 1:
            self.error(path, pos, f"ambiguous protocol '{name}'")
            return None
        proto = candidates[0]
        self._check_carrier(path, pos, "protocol", proto.owner, proto.name,
                            proto.carriers, sub_type)
        return proto

    def _resolve_target(self, path: str, rt: P.RawTarget,
                        m: MethodSpec) -> Optional[MutationTarget]:
        if rt.root == "this":
            t = this_target(tuple(rt.path))
            if not self.program.resolve_resource_path(m.declared_in, t.path):
                self.error(path, rt.pos, f"unknown resource '{t.text()}'")
                return None
            return t
        if rt.root == "any":
            if rt.name not in self.program.units:
                self.error(path, rt.pos, f"unknown type '{rt.name}' in any(...) target")
                return None
            t = any_target(rt.name, tuple(rt.path))
            if not self.program.resolve_resource_path(rt.name, t.path):
                self.error(path, rt.pos, f"unknown resource '{t.text()}'")
            return t
        arg = m.arg_named(rt.name)
        if arg is not None:
            t = var_target(rt.name, tuple(rt.path))
            if not self.program.resolve_resource_path(arg.type, t.path):
                self.error(path, rt.pos, f"unknown resource '{t.text()}'")
            return t
        fld = self.program.find_field(m.declared_in, rt.name)
        if fld is not None:
            t = this_target((rt.name,) + tuple(rt.path))
            if rt.path and not self.program.resolve_resource_path(fld.type, tuple(rt.path)):
                self.error(path, rt.pos, f"unknown resource '{'.'.join(rt.path)}' on '{fld.type}'")
            return t
        # A bare resource of the declaring class.
        t = this_target((rt.name,) + tuple(rt.path))
        if self.program.resolve_resource_path(m.declared_in, t.path):
            return t
        self.error(path, rt.pos, f"unresolved mutation target '{rt.name}'")
        return None


# -- external overlay ----------------------------------------------------------


def overlay_externals(program: Program) -> Program:
    """Merge every external declaration onto its target method."""
    sink = program.diagnostics
    for cname in sorted(program.units):
        unit = program.units[cname]
        for ex in unit.externals:
            path = program.unit_paths.get(cname, "<unknown>")
            annotated = ex.method.declared_in
            if annotated not in program.units:
                sink.error(path, ex.pos.line, ex.pos.col, E_RES,
                           f"external names unknown type '{annotated}'")
                continue
            target = program.declared_method(annotated, ex.method.name,
                                             len(ex.method.args), ex.method.is_constructor)
            if target is None or [a.type for a in target.args] != \
                    [a.type for a in ex.method.args]:
                sink.error(path, ex.pos.line, ex.pos.col, E_RES,
                           f"dangling external: no method matches "
                           f"'{annotated}.{ex.method.name}"
                           f"({', '.join(a.type for a in ex.method.args)})'")
                continue
            _merge_external(target, ex)
    _validate_queries(program)
    return program


def _merge_external(target: MethodSpec, ex: ExternalDecl) -> None:
    overlay = ex.method.renamed([a.name for a in target.args])
    target.conjuncts += tuple(cj for cj in overlay.conjuncts
                              if cj not in target.conjuncts)
    target.optional_groups += overlay.optional_groups


def _validate_queries(program: Program) -> None:
    """Bind every query's goal; an unresolved one is a positioned error."""
    from .model import UnknownGoal

    for cname in sorted(program.units):
        unit = program.units[cname]
        path = program.unit_paths.get(cname, "<unknown>")
        for m in unit.methods:
            if m.body is None:
                continue
            env = {a.name: a.type for a in m.args}
            for query, pos in iter_queries(m.body, env):
                subject = query.produce_type if query.kind == "produce" \
                    else env.get(query.target_var or "")
                if query.kind == "produce" and subject not in program.units \
                        and subject not in PRIMITIVES:
                    program.diagnostics.error(path, pos.line, pos.col, E_RES,
                                              f"unknown type '{subject}' in #produce")
                    continue
                if query.kind == "transform" and subject is None:
                    fld = program.find_field(cname, query.target_var or "")
                    if fld is None:
                        program.diagnostics.error(
                            path, pos.line, pos.col, E_RES,
                            f"#transform names unknown variable '{query.target_var}'")
                        continue
                    subject = fld.type
                try:
                    query.goal = program.normalize_goal(query.goal_text, subject, cname)
                except UnknownGoal as e:
                    program.diagnostics.error(path, pos.line, pos.col, E_RES, str(e))


def iter_queries(stmts: list[Stmt], env: dict[str, str]):
    """Yield (query, pos) in statement order, tracking local declarations."""
    for s in stmts:
        if isinstance(s, VarDeclStmt):
            env[s.name] = s.type
        elif isinstance(s, QueryStmt):
            yield s.query, s.pos
            if s.type is not None:
                env[s.var] = s.type
            if s.span:
                yield from iter_queries(s.span, env)
        elif hasattr(s, "body"):
            yield from iter_queries(s.body, env)


def parse_sources(sources: list[tuple[str, str]], sink: DiagnosticSink) -> list[tuple[str, list[ClassModel]]]:
    """Parse (path, text) pairs, reporting syntax errors to the sink."""
    parsed = []
    for path, text in sources:
        try:
            parsed.append((path, P.parse_unit(text)))
        except P.SyntaxIssue as e:
            sink.error(path, e.pos.line, e.pos.col, E_SYN, e.message)
    return parsed


def load_program(sources: list[tuple[str, str]]) -> Program:
    """Parse, resolve and overlay a set of sources."""
    sink = DiagnosticSink()
    parsed = parse_sources(sources, sink)
    program = Resolver(parsed, sink).resolve()
    if not sink.has_errors:
        overlay_externals(program)
    return program
