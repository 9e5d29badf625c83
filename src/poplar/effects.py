"""Static disciplines over resolved programs.

Four checkers share one forward body walk: mutation-summary soundness,
uniqueness flow (including destructive reads), protection spans, and
override conformance. The walk also produces the planning context that the
planner seeds itself with at each query site.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import Frozen, setfield
from .diagnostics import E_SPAN, E_SUM, E_UNIQ, E_OVR
from .model import (
    AssignStmt, Atom, BlockStmt, CallExpr, ClassModel, Expr, ExprStmt,
    FieldAccessExpr, FieldDecl, LiteralExpr, MethodSpec,
    MutationTarget, NameExpr, NewExpr, Pos, PRIMITIVES, Program, ProtectStmt,
    ProtocolDecl, Query, QueryStmt, ResourcePath, ReturnStmt, StateAtom, Stmt,
    SuperExpr, ThisExpr, UniquenessKind, VarDeclStmt, any_target, can_flow,
    can_override_arg, can_override_return, flow_consumes, this_target,
    var_target,
)

KIND = UniquenessKind

class Violation(Frozen):
    """A broken discipline at a position in a unit."""

    def __init__(self, code: str, rule: str, message: str, pos: Pos, unit: str = ""):
        setfield(self, "code", code)
        setfield(self, "rule", rule)
        setfield(self, "message", message)
        setfield(self, "pos", pos)
        setfield(self, "unit", unit)

    def text(self) -> str:
        return f"{self.rule}: {self.message}"


class ValueState:
    """Tracked facts about one in-scope value."""

    def __init__(self, variable: str, type: str, kind: UniquenessKind = KIND.NORMAL,
                 fresh: bool = False,  # created by `new` inside this method
                 is_field: bool = False,
                 field_path: Optional[ResourcePath] = None,  # managed field provenance
                 labels: Optional[set[Atom]] = None,
                 residence: Optional[dict[Atom, tuple[ResourcePath, ...]]] = None,
                 consumed: bool = False, declared_order: int = 0,
                 alias_of: Optional[str] = None):
        self.variable = variable
        self.type = type
        self.kind = kind
        self.fresh = fresh
        self.is_field = is_field
        self.field_path = field_path
        self.labels = set() if labels is None else labels
        self.residence = {} if residence is None else residence
        self.consumed = consumed
        self.declared_order = declared_order
        # The in-scope variable whose object a local was bound to (`Box c = a;`),
        # followed to its first source; None once that variable is rebound.
        self.alias_of = alias_of


class SpanObligation:
    """A protection span in force: the resource it protects."""

    def __init__(self, protected_variable: str, protected_resource: ResourcePath, pos: Pos):
        self.protected_variable = protected_variable
        self.protected_resource = protected_resource
        self.pos = pos


class QueryContext:
    """Everything the planner needs at one query site. A site with an
    `error` has no splice that checks, so `synth` reports it unplanned."""

    def __init__(self, query: Query, method: MethodSpec, unit: str,
                 values: dict[str, ValueState], spans: list[SpanObligation],
                 pos: Pos, stmt: QueryStmt):
        self.query = query
        self.method = method
        self.unit = unit
        self.values = values
        self.spans = spans
        self.pos = pos
        self.stmt = stmt
        self.error: Optional[Violation] = None


class MethodAnalysis:
    """What the one walk of a method body leaves for its readers, with the
    unannotated callee of no inferable summary at which it stopped."""

    def __init__(self, inferred: frozenset[MutationTarget], violations: list[Violation],
                 query_contexts: list[QueryContext], stopped_at: Optional[MethodSpec]):
        self.inferred = inferred
        self.violations = violations
        self.query_contexts = query_contexts
        self.stopped_at = stopped_at


class MissingCalleeSummary(Exception):
    """A walk reached an unannotated callee with no inferable summary: the
    callee's own walk is under way below this one, or it stopped."""


# ---------------------------------------------------------------------------
# Resource overlap and protection spans
# ---------------------------------------------------------------------------

def paths_comparable(program: Program, root_type: str, a: ResourcePath, b: ResourcePath) -> bool:
    """Whether two resource paths on the same object overlap (one is an
    ancestor-or-equal of the other in the unified tree)."""
    return b in program.path_ancestors(root_type, a) or \
        a in program.path_ancestors(root_type, b)


def span_hits(program: Program, unit: str, values: dict[str, ValueState],
              spans: list[SpanObligation],
              target: MutationTarget) -> Iterator[SpanObligation]:
    """Each protection span that a mutation of `target` may break, seen
    from a method of `unit` whose in-scope values are `values`. This one
    rule guards hand-written statements and generated plan steps alike."""
    for span in spans:
        if not span.protected_resource:
            continue
        protected = values.get(span.protected_variable)
        if protected is None:
            continue
        path = target.path
        if target.root_kind == "any":
            # Mutating any aliasable object of an assignable type.
            if protected.kind.unshared:
                continue
            if not program.is_subtype(protected.type, target.root_name):
                continue
        elif target.root_kind == "var":
            if _alias_root(values, target.root_name) != \
                    _alias_root(values, span.protected_variable):
                # A different variable may still alias the protected one
                # unless one of the two is known unshared.
                other = values.get(target.root_name)
                if other is None or other.kind.unshared:
                    continue
                if protected.kind.unshared:
                    continue
                if not _alias_compatible(program, other.type, protected.type):
                    continue
        else:
            # this-rooted: the protected value read from this field is the
            # field's object, whatever its kind; otherwise a normal-kind
            # field may alias it, and unshared fields and plain resources
            # cannot.
            if not path:
                continue
            if protected.field_path != path[:1]:
                fld = program.find_field(unit, path[0])
                if fld is None or fld.uniqueness.unshared:
                    continue
                if protected.kind.unshared:
                    continue
                if not _alias_compatible(program, fld.type, protected.type):
                    continue
            path = path[1:]
        if paths_comparable(program, protected.type, path, span.protected_resource):
            yield span


# ---------------------------------------------------------------------------
# Naming a mutation
# ---------------------------------------------------------------------------

def name_mutation(method: MethodSpec, st: ValueState, path: ResourcePath,
                  formal_type: Optional[str] = None,
                  for_span: bool = False) -> Optional[MutationTarget]:
    """Name a mutation of `st`'s object from `method`'s point of view, for
    a call whose summary mutates `path` under the receiver (no
    `formal_type`) or under a parameter of type `formal_type`. This one
    rule names hand-written calls and generated plan steps alike.

    The caller-visible form hides fresh objects (a caller cannot observe
    them); the span-level form keeps named locals, because a protection
    span guards exactly those.
    """
    if st.variable == "this":
        if st.fresh and not for_span:
            return None  # constructing: this has no external aliases yet
        return this_target(path)
    if st.fresh:
        if not for_span:
            return None
        if st.variable.startswith("<"):
            return None  # unnamed temporary: aliases nothing protected
        return var_target(st.variable, path)
    if st.is_field or st.field_path is not None:
        if st.field_path is None:
            return None  # unmanaged field: hidden implementation state
        return this_target(st.field_path + path)
    if method.arg_named(st.variable) is not None or for_span:
        if st.kind is KIND.NORMAL:
            return any_target(formal_type or st.type, path)
        return var_target(st.variable, path)
    # Locals of unknown origin and call results: attribute to any(T).
    return any_target(formal_type or st.type, path)


# ---------------------------------------------------------------------------
# The shared body walk
# ---------------------------------------------------------------------------

class BodyAnalyzer:
    """Forward pass over a method body.

    Collects uniqueness violations, span violations, the inferred mutation
    summary, and per-query planning contexts. The object language has no
    loops in checked regions, so a single pass suffices.
    """

    def __init__(self, program: Program, unit: ClassModel, method: MethodSpec,
                 begun: set[int]):
        self.program = program
        self.unit = unit
        self.method = method
        # Ids of the methods whose walks have begun, this one included; the
        # unannotated callees met that have no walk yet; where it stopped.
        self.begun = begun
        self.pending: list[MethodSpec] = []
        self.stopped_at: Optional[MethodSpec] = None
        self.violations: list[Violation] = []
        self.inferred: set[MutationTarget] = set()
        self.query_contexts: list[QueryContext] = []
        self.values: dict[str, ValueState] = {}
        self.spans: list[SpanObligation] = []
        self._order = 0
        self._init_env()

    # -- environment -------------------------------------------------------

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    def _init_env(self) -> None:
        m = self.method
        self.values["this"] = ValueState("this", self.unit.name, KIND.MAINTAIN,
                                         fresh=m.is_constructor,
                                         declared_order=self._next_order())
        for a in m.args:
            self.values[a.name] = ValueState(a.name, a.type, a.uniqueness,
                                             declared_order=self._next_order())
        for subject, atom in m.subject_preconditions():
            if subject in self.values:
                self.values[subject].labels.add(atom)
        for fname, fld in sorted(self.program.managed_fields(self.unit.name).items()):
            if fname in self.values:
                continue
            v = ValueState(fname, fld.type, fld.uniqueness, is_field=True,
                           field_path=(fname,), declared_order=self._next_order())
            v.labels.update(fld.labels)
            self.values[fname] = v

    # -- callee summaries -----------------------------------------------------

    def callee_summary(self, callee: MethodSpec) -> frozenset[MutationTarget]:
        """Declared summary if the method carries annotations; otherwise the
        callee's own walk's. Bare declarations are trusted pure."""
        declared = self.program.effective_summary(callee)
        if declared or callee.body is None or callee.declared_in not in self.program.units:
            return declared
        done = self.program.analyses.get(id(callee))
        if done is None and id(callee) not in self.begun:
            self.pending.append(callee)
            return frozenset()
        if done is None or done.stopped_at is not None:
            self.stopped_at = callee
            raise MissingCalleeSummary(f"{callee.declared_in}.{callee.name}")
        return done.inferred

    def _violate(self, code: str, rule: str, message: str, pos: Pos) -> None:
        self.violations.append(Violation(code, rule, message, pos, self.unit.name))

    # -- statements -------------------------------------------------------------

    def _walk(self, stmts: list[Stmt]) -> None:
        for s in stmts:
            self._statement(s)

    def _statement(self, s: Stmt) -> None:
        if isinstance(s, VarDeclStmt):
            value = self._eval(s.init, s.pos) if s.init is not None else None
            self._bind_local(s.name, s.type, value, s.pos)
        elif isinstance(s, AssignStmt):
            self._assign(s)
        elif isinstance(s, ExprStmt):
            self._eval(s.expr, s.pos)
        elif isinstance(s, ReturnStmt):
            self._return(s)
        elif isinstance(s, QueryStmt):
            self._query(s)
        elif isinstance(s, ProtectStmt):
            self._with_spans([SpanObligation(s.var, s.resource, s.pos)], s.body)
        elif isinstance(s, BlockStmt):
            self._walk(s.body)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def _bind_local(self, name: str, type_name: str, value: Optional[ValueState],
                    pos: Pos) -> ValueState:
        st = ValueState(name, type_name, declared_order=self._next_order())
        if value is not None:
            st.kind = value.kind
            st.fresh = value.fresh and value.variable.startswith("<")
            st.is_field = False
            st.field_path = value.field_path
            st.labels = set(value.labels)
            st.residence = dict(value.residence)
            if value is self.values.get(value.variable) and not value.is_field:
                st.alias_of = value.alias_of or value.variable
        for other in self.values.values():
            if other.alias_of == name:
                other.alias_of = None
        self.values[name] = st
        return st

    def _assign(self, s: AssignStmt) -> None:
        value = self._eval(s.value, s.pos)
        target = s.target
        if isinstance(target, NameExpr) and target.name in self.values \
                and not self.values[target.name].is_field:
            st = self.values[target.name]
            # Rebinding a local revives it; nulling out a consumed local is
            # the idiomatic end of a destructive read.
            self._bind_local(target.name, st.type, value if not _is_null(s.value) else None, s.pos)
            return
        # Field store: this.f = v or bare f = v where f is a field.
        fld = self._field_of(target)
        if fld is None:
            self._violate(E_UNIQ, "IllegalFlow",
                          "assignment target is neither a local nor a field", s.pos)
            return
        self._check_store(fld, s.value, value, s.pos)
        self._store_field(fld, target, value, s.pos)

    def _store_field(self, fld: FieldDecl, target: Expr, value: Optional[ValueState],
                     pos: Pos) -> None:
        """What a store into `fld` does besides its kind check."""
        # Assigning a managed field is a mutation of the field itself; its
        # owning resource covers it. Unmanaged fields stay invisible.
        if fld.managed:
            t = this_target((fld.name,))
            self._check_spans(t, pos)
            self.inferred.add(t)
        if isinstance(target, NameExpr) or (isinstance(target, FieldAccessExpr)
                                            and isinstance(target.receiver, ThisExpr)):
            # The field now holds the assigned object; track it.
            if fld.managed:
                st = ValueState(fld.name, fld.type, fld.uniqueness, is_field=True,
                                field_path=(fld.name,),
                                declared_order=self.values.get(fld.name, ValueState(fld.name, fld.type)).declared_order
                                or self._next_order())
                if value is not None:
                    st.labels = set(value.labels)
                    st.residence = dict(value.residence)
                self.values[fld.name] = st

    def _field_of(self, target: Expr) -> Optional[FieldDecl]:
        if isinstance(target, NameExpr):
            return self.program.find_field(self.unit.name, target.name)
        if isinstance(target, FieldAccessExpr) and isinstance(target.receiver, ThisExpr):
            return self.program.find_field(self.unit.name, target.field)
        return None

    def _check_store(self, fld: FieldDecl, value_expr: Expr,
                     value: Optional[ValueState], pos: Pos) -> None:
        if value is None or fld.type in PRIMITIVES:
            return
        if _is_null(value_expr):
            return
        if isinstance(value_expr, NewExpr):
            return  # fresh objects take any field kind
        kind = value.kind
        if kind in (KIND.MAINTAIN, KIND.UNIQUE):
            self._violate(E_UNIQ, "HeapAliasOfMaintained",
                          f"storing {kind.keyword} value '{value.variable}' into field "
                          f"'{fld.name}' creates a heap alias", pos)
            return
        if kind in (KIND.MAINTAIN_RETAINS, KIND.UNIQUE_RETAINS):
            if fld.uniqueness.unshared and kind is KIND.MAINTAIN_RETAINS:
                self._violate(E_UNIQ, "IllegalFlow",
                              f"maintainr value '{value.variable}' may be shared; field "
                              f"'{fld.name}' requires an unshared value", pos)
                return
            self._consume(value, pos)
            return
        if kind is KIND.NORMAL and fld.uniqueness is not KIND.NORMAL:
            self._violate(E_UNIQ, "IllegalFlow",
                          f"normal value '{value.variable}' cannot be stored into "
                          f"{fld.uniqueness.keyword} field '{fld.name}'", pos)

    def _consume(self, value: ValueState, pos: Pos) -> None:
        if value.is_field:
            self._violate(E_UNIQ, "IllegalFlow",
                          f"destructive read of field '{value.variable}' is not allowed", pos)
            return
        if value.variable in self.values:
            self.values[value.variable].consumed = True

    def _return(self, s: ReturnStmt) -> None:
        if s.value is None:
            return
        value = self._eval(s.value, s.pos)
        if value is None:
            return
        declared = self.method.return_uniqueness
        if declared is KIND.NORMAL:
            ok = value.kind is KIND.NORMAL or value.fresh
        else:
            # Returning hands out a dynamic alias; no destructive read needed.
            ok = value.fresh or value.kind is declared or \
                can_flow(value.kind, declared) or \
                (value.kind, declared) in ((KIND.UNIQUE, KIND.MAINTAIN_RETAINS),
                                           (KIND.UNIQUE, KIND.UNIQUE_RETAINS))
            ok = ok or can_override_return(declared, value.kind)
        if not ok:
            self._violate(E_UNIQ, "IllegalFlow",
                          f"cannot return {value.kind.keyword} value as "
                          f"{declared.keyword}", s.pos)

    # -- queries and spans ------------------------------------------------------

    def _query(self, s: QueryStmt) -> None:
        query, pos = s.query, s.pos
        snapshot = {k: _copy_state(v) for k, v in self.values.items()}
        ctx = QueryContext(query, self.method, self.unit.name, snapshot, list(self.spans),
                           pos, s)
        self.query_contexts.append(ctx)
        goal = query.goal
        residence: tuple[ResourcePath, ...] = ()
        if goal is not None:
            residence = self.program.goal_residence(goal)
        local = self.values.get(s.var) if s.var is not None else None
        if query.kind == "produce" and s.type is None and s.var is not None \
                and (local is None or local.is_field):
            # The spliced `x = v;` stores into a field or is refused here, so
            # the site does the same. A produced value is fresh, as a `new`
            # is, so the field's kind takes it; a managed field's store must
            # be in the summary, and the site is refused where it is not.
            fld = self.program.find_field(self.unit.name, s.var)
            narrow = [] if fld is None or not fld.managed else _summary_too_narrow(
                self.program, self.unit.name, self.method,
                frozenset({this_target((fld.name,))}), pos)
            if fld is None:
                self._violate(E_UNIQ, "IllegalFlow",
                              "assignment target is neither a local nor a field", pos)
                ctx.error = self.violations[-1]
            elif narrow:
                self.violations.extend(narrow)
                ctx.error = narrow[0]
            else:
                value = ValueState(s.var, fld.type, fresh=True)
                if goal is not None:
                    value.labels.add(goal)
                    value.residence[goal] = residence
                self._store_field(fld, NameExpr(s.var, pos), value, pos)
            holder = s.var
        elif query.kind == "produce" and s.var is not None:
            # `x = #produce(...)` rebinds an existing local at its own type.
            result_type = s.type or (local.type if local else "Object")
            st = self._bind_local(s.var, result_type, None, pos)
            st.fresh = True
            st.kind = KIND.NORMAL  # a plain declaration site carries no kind
            if goal is not None:
                st.labels.add(goal)
                st.residence[goal] = residence
            holder = s.var
        elif query.kind == "transform" and query.target_var in self.values:
            st = self.values[query.target_var]
            if goal is not None:
                if isinstance(goal, StateAtom):
                    st.labels = {a for a in st.labels
                                 if not (isinstance(a, StateAtom)
                                         and (a.owner, a.protocol) == (goal.owner, goal.protocol))}
                st.labels.add(goal)
                st.residence[goal] = residence
            holder = query.target_var
        else:
            holder = s.var or query.target_var or ""
        if query.kind == "transform" and s.var is not None:
            # Once the target holds the goal, `x = #transform(y, g)` binds
            # `x` as the spliced `x = y;` does.
            value = NameExpr(query.target_var or "", pos)
            self._statement(VarDeclStmt(s.type, s.var, value, pos) if s.type else
                            AssignStmt(NameExpr(s.var, pos), value, pos))
        if s.span is not None:
            obligations = [SpanObligation(holder, p, pos) for p in residence] \
                or [SpanObligation(holder, (), pos)]
            self._with_spans(obligations, s.span)

    def _with_spans(self, obligations: list[SpanObligation], body: list[Stmt]) -> None:
        self.spans.extend(obligations)
        try:
            self._walk(body)
        finally:
            for _ in obligations:
                self.spans.pop()

    # -- expressions ---------------------------------------------------------

    def _eval(self, e: Expr, pos: Pos) -> Optional[ValueState]:
        if isinstance(e, LiteralExpr):
            t = {"int": "int", "bool": "boolean", "string": "String", "null": "null"}[e.kind]
            return ValueState("<literal>", t)
        if isinstance(e, ThisExpr):
            return self.values.get("this")
        if isinstance(e, SuperExpr):
            return self.values.get("this")
        if isinstance(e, NameExpr):
            st = self.values.get(e.name)
            if st is not None:
                self._check_use(st, pos)
                return st
            fld = self.program.find_field(self.unit.name, e.name)
            if fld is not None:
                return self._field_value(fld)
            if e.name in self.program.units:
                return ValueState(e.name, f"<class {e.name}>")
            self._violate(E_UNIQ, "IllegalFlow", f"unknown name '{e.name}'", pos)
            return None
        if isinstance(e, FieldAccessExpr):
            return self._field_access(e, pos)
        if isinstance(e, NewExpr):
            return self._new(e, pos)
        if isinstance(e, CallExpr):
            return self._call(e, pos)
        raise TypeError(f"unknown expression {e!r}")

    def _check_use(self, st: ValueState, pos: Pos) -> None:
        if st.consumed:
            self._violate(E_UNIQ, "UseAfterConsume",
                          f"'{st.variable}' was passed by destructive read and may "
                          f"not be used again", pos)

    def _field_value(self, fld: FieldDecl) -> ValueState:
        st = ValueState(fld.name, fld.type, fld.uniqueness, is_field=True,
                        field_path=(fld.name,) if fld.managed else None)
        st.labels.update(fld.labels)
        return st

    def _field_access(self, e: FieldAccessExpr, pos: Pos) -> Optional[ValueState]:
        recv = e.receiver
        if isinstance(recv, ThisExpr):
            fld = self.program.find_field(self.unit.name, e.field)
            if fld is None:
                self._violate(E_UNIQ, "IllegalFlow",
                              f"unknown field 'this.{e.field}'", pos)
                return None
            tracked = self.values.get(e.field)
            return tracked if tracked is not None else self._field_value(fld)
        if isinstance(recv, NameExpr) and recv.name in self.program.units \
                and recv.name not in self.values:
            # Static read through the class name.
            fld = self.program.find_field(recv.name, e.field)
            if fld is None or not fld.is_static:
                self._violate(E_UNIQ, "IllegalFlow",
                              f"unknown static field '{recv.name}.{e.field}'", pos)
                return None
            st = ValueState(f"{recv.name}.{e.field}", fld.type)
            st.labels.update(fld.labels)
            return st
        recv_state = self._eval(recv, pos)
        if recv_state is None:
            return None
        fld = self.program.find_field(recv_state.type, e.field)
        if fld is None:
            self._violate(E_UNIQ, "IllegalFlow",
                          f"type '{recv_state.type}' has no field '{e.field}'", pos)
            return None
        st = ValueState(f"{recv_state.variable}.{e.field}", fld.type, fld.uniqueness)
        st.labels.update(fld.labels)
        return st

    def _new(self, e: NewExpr, pos: Pos) -> Optional[ValueState]:
        ctor = self.program.declared_method(e.type, e.type, len(e.args), constructor=True)
        st = ValueState("<new>", e.type, KIND.UNIQUE, fresh=True)
        if ctor is None:
            unit = self.program.units.get(e.type)
            if unit is None:
                self._violate(E_UNIQ, "IllegalFlow", f"unknown type '{e.type}'", pos)
            elif any(m.is_constructor for m in unit.methods):
                self._violate(E_UNIQ, "IllegalFlow",
                              f"no constructor '{e.type}/{len(e.args)}'", pos)
            for a in e.args:
                self._eval(a, pos)
            return st
        self._invoke(ctor, None, e.args, pos, fresh_receiver=True)
        for atom, residence in ctor.result_atoms():
            st.labels.add(atom)
            st.residence[atom] = residence
        return st

    def _call(self, e: CallExpr, pos: Pos) -> Optional[ValueState]:
        recv_state: Optional[ValueState]
        callee: Optional[MethodSpec]
        if e.receiver is None:
            recv_state = self.values.get("this")
            callee = self.program.find_method(self.unit.name, e.method, len(e.args))
        elif isinstance(e.receiver, SuperExpr):
            recv_state = self.values.get("this")
            sup = self.unit.superclass or "Object"
            callee = self.program.find_method(sup, e.method, len(e.args))
        elif isinstance(e.receiver, NameExpr) and e.receiver.name in self.program.units \
                and e.receiver.name not in self.values:
            recv_state = None
            callee = self.program.find_method(e.receiver.name, e.method, len(e.args))
            if callee is not None and not callee.is_static:
                self._violate(E_UNIQ, "IllegalFlow",
                              f"instance method '{e.method}' called without a receiver", pos)
        else:
            recv_state = self._eval(e.receiver, pos)
            if recv_state is None:
                return None
            callee = self.program.find_method(recv_state.type, e.method, len(e.args))
        if callee is None:
            target = recv_state.type if recv_state else "<unknown>"
            self._violate(E_UNIQ, "IllegalFlow",
                          f"no method '{e.method}/{len(e.args)}' on '{target}'", pos)
            return None
        return self._invoke(callee, recv_state, e.args, pos)

    # -- invocation: flow checks, summary mapping, label updates ------------------

    def _invoke(self, callee: MethodSpec, recv: Optional[ValueState],
                args: list[Expr], pos: Pos,
                fresh_receiver: bool = False) -> Optional[ValueState]:
        arg_states: list[Optional[ValueState]] = []
        for formal, actual in zip(callee.args, args):
            st = self._eval(actual, pos)
            arg_states.append(st)
            if st is None:
                continue
            self._flow_check(st, actual, formal.uniqueness, formal.name, pos)
        if recv is not None and not fresh_receiver:
            self._check_use(recv, pos)
        self._map_callee_summary(callee, recv, arg_states, pos, fresh_receiver)
        self._apply_callee_effects(callee, recv, arg_states)
        result = ValueState("<call>", callee.return_type, callee.return_uniqueness)
        for atom, residence in callee.result_atoms():
            result.labels.add(atom)
            result.residence[atom] = residence
        return result

    def _flow_check(self, st: ValueState, actual: Expr, param_kind: UniquenessKind,
                    param_name: str, pos: Pos) -> None:
        if isinstance(actual, NewExpr):
            return  # a fresh temporary adopts whatever kind the parameter wants
        if st.fresh and param_kind in (KIND.NORMAL, KIND.MAINTAIN):
            return
        if st.fresh and param_kind in (KIND.MAINTAIN_RETAINS, KIND.UNIQUE_RETAINS,
                                       KIND.UNIQUE):
            if param_kind is not KIND.UNIQUE:
                self._consume(st, pos)
            return
        if st.type in PRIMITIVES or st.type in ("null", "String"):
            return
        if not can_flow(st.kind, param_kind):
            self._violate(E_UNIQ, "IllegalFlow",
                          f"{st.kind.keyword} value '{st.variable}' cannot flow to "
                          f"{param_kind.keyword} parameter '{param_name}'", pos)
            return
        if flow_consumes(st.kind, param_kind):
            self._consume(st, pos)

    def _map_callee_summary(self, callee: MethodSpec, recv: Optional[ValueState],
                            arg_states: list[Optional[ValueState]],
                            pos: Pos, fresh_receiver: bool) -> None:
        summary = self.callee_summary(callee)
        if not summary:
            return
        by_name = {a.name: i for i, a in enumerate(callee.args)}
        for t in sorted(summary, key=lambda x: x.text()):
            mapped: Optional[MutationTarget]
            local: Optional[MutationTarget]
            if t.root_kind == "this":
                if fresh_receiver or recv is None:
                    mapped = local = None
                else:
                    mapped = name_mutation(self.method, recv, t.path)
                    local = name_mutation(self.method, recv, t.path, for_span=True)
            elif t.root_kind == "var" and t.root_name in by_name:
                idx = by_name[t.root_name]
                st = arg_states[idx] if idx < len(arg_states) else None
                formal = callee.args[idx]
                if st is None:
                    mapped = local = any_target(formal.type, t.path)
                else:
                    mapped = name_mutation(self.method, st, t.path, formal.type)
                    local = name_mutation(self.method, st, t.path, formal.type,
                                          for_span=True)
            else:
                mapped = local = t
            if local is not None:
                self._check_spans(local, pos)
            if mapped is not None:
                self.inferred.add(mapped)

    def _check_spans(self, target: MutationTarget, pos: Pos) -> None:
        for span in span_hits(self.program, self.unit.name, self.values,
                              self.spans, target):
            self._violate(E_SPAN, "SpanViolation",
                          f"statement may mutate protected resource "
                          f"'{span.protected_variable}."
                          f"{'.'.join(span.protected_resource)}' "
                          f"(summary hits '{target.text()}')", pos)

    def _apply_callee_effects(self, callee: MethodSpec, recv: Optional[ValueState],
                              arg_states: list[Optional[ValueState]]) -> None:
        by_name = {a.name: i for i, a in enumerate(callee.args)}
        for subject, atom, residence, removed in callee.subject_effects():
            st: Optional[ValueState] = None
            if subject == "this":
                st = recv
            elif subject in by_name:
                st = arg_states[by_name[subject]]
            if st is None:
                continue
            holder = self.values.get(st.variable)
            target = holder if holder is not None else st
            if removed is not None:
                target.labels.discard(removed)
            target.labels.add(atom)
            target.residence[atom] = residence


def _alias_compatible(program: Program, a: str, b: str) -> bool:
    return program.is_subtype(a, b) or program.is_subtype(b, a)


def _alias_root(values: dict[str, ValueState], name: str) -> str:
    st = values.get(name)
    return st.alias_of if st is not None and st.alias_of else name


def _copy_state(v: ValueState) -> ValueState:
    return ValueState(v.variable, v.type, v.kind, v.fresh, v.is_field, v.field_path,
                      set(v.labels), dict(v.residence), v.consumed, v.declared_order,
                      v.alias_of)


def _is_null(e: Optional[Expr]) -> bool:
    return isinstance(e, LiteralExpr) and e.kind == "null"


# ---------------------------------------------------------------------------
# Checker entry points
# ---------------------------------------------------------------------------

def analyze_method(program: Program, unit: ClassModel, method: MethodSpec) -> MethodAnalysis:
    """The one walk of `method`'s body in `program`, made on first use.

    A walk that met unannotated callees with no walk yet gives way: they are
    walked first, then the caller again. Callee summaries do not change which
    calls a walk meets, so no body is walked more than twice."""
    stack = [(unit, method)]
    begun: set[int] = set()
    stopped: list[BodyAnalyzer] = []
    while stack:
        u, m = stack[-1]
        if id(m) in program.analyses:
            stack.pop()
            continue
        begun.add(id(m))
        walk = BodyAnalyzer(program, u, m, begun)
        try:
            walk._walk(m.body or [])
        except MissingCalleeSummary:
            pass  # the walk stopped at walk.stopped_at
        if walk.pending:
            stack.extend((program.units[c.declared_in], c) for c in reversed(walk.pending))
            continue
        stack.pop()
        program.analyses[id(m)] = MethodAnalysis(
            frozenset(walk.inferred), walk.violations, walk.query_contexts, walk.stopped_at)
        if walk.stopped_at is not None:
            stopped.append(walk)
    # Each callee a walk stopped at has stopped too, so following stopping
    # callees from a method meets one twice; that one is named.
    for walk in stopped:
        callee, met = walk.stopped_at, set()
        while id(callee) not in met:
            met.add(id(callee))
            callee = program.analyses[id(callee)].stopped_at
        walk._violate(E_SUM, "MissingCalleeSummary", f"callee '{callee.declared_in}."
                      f"{callee.name}' has no declared or inferable summary", walk.method.pos)
    return program.analyses[id(method)]


def _summary_too_narrow(program: Program, unit: str, method: MethodSpec,
                        inferred: frozenset[MutationTarget], pos: Pos) -> list[Violation]:
    """One violation at `pos` per inferred mutation the declared summary
    misses."""
    declared = program.effective_summary(method)
    var_types = {a.name: a.type for a in method.args}
    return [Violation(E_SUM, "SummaryTooNarrow",
                      f"'{unit}.{method.name}' mutates '{t.text()}' "
                      f"but does not declare it", pos, unit)
            for t in program.summary_covers(declared, inferred,
                                            unit, var_types)]


def query_contexts(program: Program, unit: ClassModel, method: MethodSpec) -> list[QueryContext]:
    return analyze_method(program, unit, method).query_contexts


# ---------------------------------------------------------------------------
# Subprotocols and override conformance
# ---------------------------------------------------------------------------

def is_subprotocol(sub_transitions: frozenset[tuple[str, str]],
                   super_transitions: frozenset[tuple[str, str]]) -> bool:
    """Every transition of the overridden machine must survive; the refined
    machine may add transitions and states."""
    return super_transitions <= sub_transitions


def class_protocol_machine(program: Program, class_name: str,
                           proto: ProtocolDecl) -> frozenset[tuple[str, str]]:
    """The protocol's transitions as visible from `class_name`: most-derived
    method versions only."""
    slots: dict[tuple[str, int], MethodSpec] = {}
    for t in program.supertype_chain(class_name):
        u = program.units.get(t)
        if u is None:
            continue
        for m in u.methods:
            slots.setdefault(m.key, m)
    transitions: set[tuple[str, str]] = set()
    for m in slots.values():
        transitions.update(program._method_transitions(m, proto))
    return frozenset(transitions)


def check_override(program: Program, sub: MethodSpec, sup: MethodSpec) -> list[Violation]:
    """All per-method subclassing rules, one violation per failed bullet."""
    out: list[Violation] = []
    unit = sub.declared_in

    def violate(bullet: str, message: str) -> None:
        out.append(Violation(E_OVR, bullet,
                             f"{unit}.{sub.name} vs {sup.declared_in}.{sup.name}: "
                             f"{message}", sub.pos, unit))

    rename = {sa.name: pa.name for sa, pa in zip(sub.args, sup.args)}

    def norm(pairs):
        return {(rename.get(s, s), a) for s, a in pairs}

    # B1: weaker-or-equal preconditions, stronger-or-equal postconditions.
    extra_pre = norm(sub.subject_preconditions()) - norm(sup.subject_preconditions())
    if extra_pre:
        names = ", ".join(sorted(f"{s}: {a.text()}" for s, a in extra_pre))
        violate("B1", f"override strengthens preconditions ({names})")
    lost_post = norm((s, a) for s, a, _ in sup.postconditions()) - \
        norm((s, a) for s, a, _ in sub.postconditions())
    if lost_post:
        names = ", ".join(sorted(f"{s}: {a.text()}" for s, a in lost_post))
        violate("B1", f"override weakens postconditions ({names})")
    # Each optional group declared above needs a conforming counterpart below.
    sub_groups = [tuple(map(norm, sub.group_contract(g)))
                  for g in range(len(sub.optional_groups))]
    for gi in range(len(sup.optional_groups)):
        sup_pre, sup_post = map(norm, sup.group_contract(gi))
        if not any(pre <= sup_pre and post >= sup_post for pre, post in sub_groups):
            violate("B1", f"optional group {gi + 1} has no conforming counterpart")

    # B2: mutation summary containment. Mutations routed through fields the
    # subclass itself introduces are acceptable only when those fields are
    # strictly unique; resource-level coverage from above cannot whitelist
    # them, since a shared field is an alias channel.
    sub_summary = program.effective_summary(sub)
    sup_summary = program.effective_summary(sup)
    sub_unit = program.units.get(sub.declared_in)
    var_types = {rename.get(a.name, a.name): a.type for a in sub.args}
    renamed_summary = {_rename_target(t, rename) for t in sub_summary}
    for t in sorted(renamed_summary, key=lambda x: x.text()):
        own_field = _own_field_head(sub_unit, t)
        if own_field is not None:
            if not own_field.uniqueness.unshared:
                violate("B2", f"override mutates '{t.text()}' through field "
                              f"'{own_field.name}', which is not strictly unique")
            continue
        if not any(program.target_covers(d, t, sub.declared_in, var_types)
                   for d in sup_summary):
            violate("B2", f"override adds mutation '{t.text()}' not declared above")

    # B2 (residence): effects declared above must reside in the same or
    # smaller/fewer resources below.
    sup_effects = {(rename.get(s, s), a): r for s, a, r, _ in sup.subject_effects()}
    sub_effects = {(rename.get(s, s), a): r for s, a, r, _ in sub.subject_effects()}
    for key, sup_res in sorted(sup_effects.items(), key=lambda kv: str(kv[0])):
        if key not in sub_effects:
            continue  # reported as B1 if genuinely lost
        sub_res = sub_effects[key]
        subject, atom = key
        subject_ty = _subject_type(program, sub, rename, subject)
        if not sup_res:
            if sub_res:
                violate("B2", f"effect '{atom.text()}' gained a residence "
                              f"restriction it did not have above")
            continue
        for r in sub_res:
            if not any(sr in program.path_ancestors(subject_ty, r) for sr in sup_res):
                violate("B2", f"effect '{atom.text()}' resides in "
                              f"'{'.'.join(r)}', not within the declared resources")

    # B4: uniqueness kind overriding.
    for sa, pa in zip(sub.args, sup.args):
        if not can_override_arg(pa.uniqueness, sa.uniqueness):
            violate("B4", f"argument '{pa.name}': {sa.uniqueness.keyword} may not "
                          f"override {pa.uniqueness.keyword}")
    if not can_override_return(sup.return_uniqueness, sub.return_uniqueness):
        violate("B4", f"return kind {sub.return_uniqueness.keyword} may not "
                      f"override {sup.return_uniqueness.keyword}")

    # B6: new [!r] on inherited resources.
    sup_locals = set(sup.local_mutations)
    for p in sub.local_mutations:
        if p in sup_locals:
            continue
        owner = _resource_owner(program, sub.declared_in, p)
        if owner is not None and owner != sub.declared_in:
            violate("B6", f"override adds local mutation [!{'.'.join(p)}] on a "
                          f"resource inherited from '{owner}'")
    return out


def _rename_target(t: MutationTarget, rename: dict[str, str]) -> MutationTarget:
    if t.root_kind == "var" and t.root_name in rename:
        return MutationTarget("var", rename[t.root_name], t.path)
    return t


def _own_field_head(unit: Optional[ClassModel],
                    t: MutationTarget) -> Optional[FieldDecl]:
    """The field a this-rooted target runs through, when that field is
    declared by `unit` itself (not inherited)."""
    if unit is None or t.root_kind != "this" or not t.path:
        return None
    for f in unit.fields:
        if f.name == t.path[0]:
            return f
    return None


def _subject_type(program: Program, m: MethodSpec, rename: dict[str, str],
                  subject: str) -> str:
    if subject == "this":
        return m.declared_in
    if subject == "result":
        return m.return_type
    inverse = {v: k for k, v in rename.items()}
    name = inverse.get(subject, subject)
    arg = m.arg_named(name)
    return arg.type if arg else m.declared_in


def _resource_owner(program: Program, class_name: str, path: ResourcePath) -> Optional[str]:
    """The type that declares the first segment of a resource path."""
    if not path:
        return None
    head = path[0]
    for t in program.supertype_chain(class_name):
        u = program.units.get(t)
        if u is None:
            continue
        if any(n.name == head for n in u.resources):
            return t
        if any(f.name == head for f in u.fields):
            return t
    return None


def check_class_conformance(program: Program, unit: ClassModel) -> list[Violation]:
    """Class-level subclassing rules plus per-override method rules."""
    out: list[Violation] = []
    if unit.superclass is None:
        sup_chain: list[str] = []
    else:
        sup_chain = program.supertype_chain(unit.superclass)

    def violate(bullet: str, message: str, pos: Pos) -> None:
        out.append(Violation(E_OVR, bullet, message, pos, unit.name))

    inherited_resources = set()
    inherited_fields = set()
    for t in sup_chain:
        u = program.units.get(t)
        if u is None:
            continue
        for node in u.resources:
            inherited_resources.add(node.name)
        for f in u.fields:
            inherited_fields.add(f.name)

    # B5: no shadowing of inherited resource names.
    for node in unit.resources:
        if node.name in inherited_resources:
            violate("B5", f"resource '{node.name}' redeclares an inherited resource",
                    unit.pos)

    # B7: no redeclaration of inherited fields.
    for f in unit.fields:
        if f.name in inherited_fields:
            violate("B7", f"field '{f.name}' redeclares an inherited field", f.pos)

    # B3: protocols visible above must stay subprotocols below.
    if sup_chain:
        seen: set[tuple[str, str]] = set()
        for t in program.lookup_order(sup_chain[0]):
            u = program.units.get(t)
            if u is None:
                continue
            for proto in u.protocols:
                if (proto.owner, proto.name) in seen:
                    continue
                seen.add((proto.owner, proto.name))
                sup_machine = class_protocol_machine(program, sup_chain[0], proto)
                sub_machine = class_protocol_machine(program, unit.name, proto)
                if not is_subprotocol(sub_machine, sup_machine):
                    missing = sorted(sup_machine - sub_machine)
                    violate("B3", f"protocol '{proto.name}' loses transitions "
                                  f"{missing} in '{unit.name}'", unit.pos)

    # Per-method override rules.
    for m in unit.methods:
        sup_m = program.overridden_method(m)
        if sup_m is not None:
            out.extend(check_override(program, m, sup_m))
    return out


def check_program(program: Program) -> list[Violation]:
    """Run every checker over every unit; deterministic order."""
    out: list[Violation] = []
    for cname in sorted(program.units):
        unit = program.units[cname]
        out.extend(check_class_conformance(program, unit))
        for m in unit.methods:
            if m.body is None:
                continue
            analysis = analyze_method(program, unit, m)
            out.extend(analysis.violations)
            out.extend(_summary_too_narrow(program, cname, m, analysis.inferred, m.pos))
    return out
