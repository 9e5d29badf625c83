"""Object model for the annotated object language.

Everything the later phases consume lives here: declarations (classes,
fields, methods, labels, protocols, resources, externals), the condition
vocabulary shared with the planner, mutation targets with their upward
closure, and the uniqueness lattices. The source printer, used for
round-tripping and for emitting annotation-stripped output, lives in
`printer.py`.

Model objects are immutable by convention once resolution has finished;
they are shared freely between concurrent checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Iterator, Optional, Union

from .diagnostics import DiagnosticSink

# Built-in reference types; every declared type is a subtype of Object.
OBJECT = "Object"
STRING = "String"
PRIMITIVES = frozenset({"int", "boolean", "byte", "void"})


@dataclass(slots=True, repr=False)
class Pos:
    """A 1-based source position. One is built per token, so it has slots;
    it is immutable by convention, like the rest of the model."""

    line: int = 0
    col: int = 0


class UniquenessKind(Enum):
    NORMAL = "normal"
    MAINTAIN = "maintain"
    MAINTAIN_RETAINS = "maintainr"
    UNIQUE = "unique"
    UNIQUE_RETAINS = "uniquer"

    @property
    def keyword(self) -> str:
        return self.value

    @property
    def unshared(self) -> bool:
        return self in (UniquenessKind.UNIQUE, UniquenessKind.UNIQUE_RETAINS)


_N = UniquenessKind.NORMAL
_M = UniquenessKind.MAINTAIN
_MR = UniquenessKind.MAINTAIN_RETAINS
_U = UniquenessKind.UNIQUE
_UR = UniquenessKind.UNIQUE_RETAINS

# Permitted argument flow: (kind of the value, kind of the parameter) -> needs
# destructive read. A pair that is absent is an illegal flow.
#
# maintain accepts everything because it neither assumes unsharedness nor
# creates static aliases; the retains kinds consume the passed reference so
# the static alias count stays constant; unique additionally requires the
# incoming value to be unshared, which only unique/uniquer guarantee.
ARG_FLOW: dict[tuple[UniquenessKind, UniquenessKind], bool] = {
    (_N, _N): False,
    (_N, _M): False,
    (_N, _MR): True,
    (_M, _M): False,
    (_MR, _M): False,
    (_MR, _MR): True,
    (_U, _M): False,
    (_U, _U): False,
    (_UR, _M): False,
    (_UR, _U): False,
    (_UR, _MR): True,
    (_UR, _UR): True,
}

# Permitted overriding of argument kinds: super kind -> kinds a subtype method
# may declare. The override must not assume more about the incoming value and
# must not create aliases the original promised to avoid.
ARG_OVERRIDE: dict[UniquenessKind, frozenset[UniquenessKind]] = {
    _N: frozenset({_N, _M, _MR}),
    _M: frozenset({_M}),
    _MR: frozenset({_M, _MR}),
    _U: frozenset({_U, _M}),
    _UR: frozenset({_UR, _U, _MR, _M}),
}

# Permitted overriding of return kinds: the override may only refine what the
# caller was told (normal is the weakest promise, uniquer the strongest).
RETURN_OVERRIDE: dict[UniquenessKind, frozenset[UniquenessKind]] = {
    _N: frozenset({_N, _M, _MR, _U, _UR}),
    _M: frozenset({_M, _U, _UR}),
    _MR: frozenset({_MR, _UR}),
    _U: frozenset({_U, _UR}),
    _UR: frozenset({_UR}),
}


def can_flow(value: UniquenessKind, param: UniquenessKind) -> bool:
    return (value, param) in ARG_FLOW


def flow_consumes(value: UniquenessKind, param: UniquenessKind) -> bool:
    return ARG_FLOW.get((value, param), False)


def can_override_arg(sup: UniquenessKind, sub: UniquenessKind) -> bool:
    return sub in ARG_OVERRIDE[sup]


def can_override_return(sup: UniquenessKind, sub: UniquenessKind) -> bool:
    return sub in RETURN_OVERRIDE[sup]


# ---------------------------------------------------------------------------
# Condition vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelAtom:
    """A label, identified by its declaring type plus its name."""

    owner: str
    name: str

    def text(self) -> str:
        return f"{self.owner}.{self.name}"


@dataclass(frozen=True)
class StateAtom:
    """A protocol state, written ``p@s``. States behave like labels that a
    transition leaving ``s`` removes."""

    owner: str
    protocol: str
    state: str

    def text(self) -> str:
        return f"{self.protocol}@{self.state}"


Atom = Union[LabelAtom, StateAtom]

ResourcePath = tuple[str, ...]


# Every condition reads the same way for a call: the atom it needs `before`
# (None for none), the atom that holds `after`, the atom it `removed` (None
# for none) and the `residence` of what it establishes. Only the printer
# looks at a condition's class.

@dataclass(frozen=True, repr=False)
class Invariant:
    """Holds before the call and still holds after it."""

    atom: Atom
    residence = ()
    removed = None

    @property
    def before(self) -> Atom:
        return self.atom

    @property
    def after(self) -> Atom:
        return self.atom


@dataclass(frozen=True, repr=False)
class AddLabel:
    """Holds after the call, whatever held before."""

    atom: LabelAtom
    residence: tuple[ResourcePath, ...] = ()
    before = None
    removed = None

    @property
    def after(self) -> Atom:
        return self.atom


@dataclass(frozen=True, repr=False)
class Transition:
    """Goes from the source state to the target state, removing the source
    (a self-transition removes and re-establishes it)."""

    owner: str
    protocol: str
    source: str
    target: str
    residence: tuple[ResourcePath, ...] = ()

    # Cached on the instance: the checkers read them for every call.
    @cached_property
    def before(self) -> StateAtom:
        return StateAtom(self.owner, self.protocol, self.source)

    @cached_property
    def after(self) -> StateAtom:
        return StateAtom(self.owner, self.protocol, self.target)

    @cached_property
    def removed(self) -> StateAtom:
        return self.before


Condition = Union[Invariant, AddLabel, Transition]


@dataclass(frozen=True, repr=False)
class Conjunct:
    """Conditions attached to one subject: ``this``, ``result`` or an
    argument name."""

    subject: str
    conditions: tuple[Condition, ...]


# ---------------------------------------------------------------------------
# Mutation targets
# ---------------------------------------------------------------------------

ROOT_THIS = "this"
ROOT_VAR = "var"
ROOT_ANY = "any"


@dataclass(frozen=True, repr=False)
class MutationTarget:
    """A qualified resource rooted at ``this``, a named variable/field, or
    an arbitrary object of a type (``any(T)``).

    The path walks the per-object resource tree; a segment may also name a
    managed field, in which case the rest of the path resolves in the field's
    type. An empty path denotes the object's implicit root resource.
    """

    root_kind: str
    root_name: str
    path: ResourcePath

    def text(self) -> str:
        if self.root_kind == ROOT_THIS:
            head = "this"
        elif self.root_kind == ROOT_ANY:
            head = f"any({self.root_name})"
        else:
            head = self.root_name
        if not self.path:
            return head
        return head + "." + ".".join(self.path)

    def with_path(self, path: ResourcePath) -> "MutationTarget":
        return MutationTarget(self.root_kind, self.root_name, path)


def this_target(path: ResourcePath = ()) -> MutationTarget:
    return MutationTarget(ROOT_THIS, "", path)


def var_target(name: str, path: ResourcePath = ()) -> MutationTarget:
    return MutationTarget(ROOT_VAR, name, path)


def any_target(type_name: str, path: ResourcePath = ()) -> MutationTarget:
    return MutationTarget(ROOT_ANY, type_name, path)


# ---------------------------------------------------------------------------
# Statements and expressions (kept syntactic; names resolve via Program)
# ---------------------------------------------------------------------------

@dataclass(repr=False)
class NameExpr:
    """A variable, field or type name."""

    name: str
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class ThisExpr:
    """`this`."""

    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class SuperExpr:
    """`super`, as the receiver of a call."""

    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class LiteralExpr:
    """An int, string, boolean or null literal."""

    kind: str  # "int" | "string" | "bool" | "null"
    value: object
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class NewExpr:
    """`new T(args)`."""

    type: str
    args: list["Expr"]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class CallExpr:
    """`receiver.method(args)`, or `method(args)` on `this`."""

    receiver: Optional["Expr"]  # None for unqualified calls on this
    method: str
    args: list["Expr"]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class FieldAccessExpr:
    """`receiver.field`."""

    receiver: "Expr"
    field: str
    pos: Pos = field(default_factory=Pos, compare=False)


Expr = Union[NameExpr, ThisExpr, SuperExpr, LiteralExpr, NewExpr, CallExpr, FieldAccessExpr]


@dataclass(repr=False)
class Query:
    """A `#produce` or `#transform` query."""

    kind: str  # "produce" | "transform"
    produce_type: Optional[str]
    target_var: Optional[str]
    goal_text: str
    with_names: tuple[str, ...] = ()
    pos: Pos = field(default_factory=Pos, compare=False)
    goal: Optional[Atom] = None  # bound by the resolver


@dataclass(repr=False)
class VarDeclStmt:
    """`T name = init;`"""

    type: str
    name: str
    init: Optional[Expr]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class AssignStmt:
    """`target = value;`"""

    target: Expr  # NameExpr or FieldAccessExpr
    value: Expr
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class ExprStmt:
    """An expression evaluated for its effects."""

    expr: Expr
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class ReturnStmt:
    """`return value;`"""

    value: Optional[Expr]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class QueryStmt:
    """A query site, `#q`, `x = #q` or `T x = #q`, with its protection span.
    `var` is the local that takes the goal value; `type` is set when the
    statement declares it."""

    query: Query
    span: Optional[list["Stmt"]] = None
    var: Optional[str] = None
    type: Optional[str] = None
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class ProtectStmt:
    """`protect var.resource { body }`."""

    var: str
    resource: ResourcePath
    body: list["Stmt"]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(repr=False)
class BlockStmt:
    """`{ body }`."""

    body: list["Stmt"]
    pos: Pos = field(default_factory=Pos, compare=False)


Stmt = Union[VarDeclStmt, AssignStmt, ExprStmt, ReturnStmt, QueryStmt, ProtectStmt, BlockStmt]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class ArgDecl:
    """A method parameter with its uniqueness kind."""

    uniqueness: UniquenessKind
    type: str
    name: str
    pos: Pos = field(default_factory=Pos)


@dataclass(eq=False, repr=False)
class FieldDecl:
    """A field, with its label and resource annotations. From the parser
    until `Resolver.resolve` returns, `labels` holds the names as written."""

    name: str
    type: str
    declared_in: str
    uniqueness: UniquenessKind = UniquenessKind.NORMAL
    managed: bool = False
    managed_resource: Optional[ResourcePath] = None  # None = parented at root
    is_static: bool = False
    is_final: bool = False
    labels: tuple[LabelAtom, ...] = ()
    initializer: Optional[Expr] = None
    pos: Pos = field(default_factory=Pos)


@dataclass(repr=False)
class LabelDecl:
    """One `labels` line: label names and the types that carry them."""

    owner: str
    carriers: tuple[str, ...]  # empty = the declaring type itself
    names: tuple[str, ...]
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass(eq=False, repr=False)
class ProtocolDecl:
    """A protocol and its states, in first-seen order."""

    owner: str
    carriers: tuple[str, ...]
    name: str
    states: tuple[str, ...] = ()  # in declaration/first-seen order
    pos: Pos = field(default_factory=Pos)


@dataclass(repr=False)
class ResourceNode:
    """A resource and the resources nested in it."""

    name: str
    children: tuple["ResourceNode", ...] = ()


@dataclass(eq=False, repr=False)
class MethodSpec:
    """A method or constructor with its annotations; `body` is None when
    the declaration has none. From the parser until `Resolver.resolve`
    returns, `result_labels` holds the names as written, and `mutates`,
    `conjuncts` and `optional_groups` hold the parser's `RawTarget` and
    `RawConjunct` forms; the resolver binds each in place."""

    name: str
    declared_in: str
    return_type: str
    args: tuple[ArgDecl, ...]
    is_constructor: bool = False
    is_abstract: bool = False
    is_static: bool = False
    return_uniqueness: UniquenessKind = UniquenessKind.NORMAL
    result_labels: tuple[LabelAtom, ...] = ()
    local_mutations: tuple[ResourcePath, ...] = ()
    mutates: tuple[MutationTarget, ...] = ()
    conjuncts: tuple[Conjunct, ...] = ()
    optional_groups: tuple[tuple[Conjunct, ...], ...] = ()
    body: Optional[list[Stmt]] = None
    merged_externals: tuple[str, ...] = ()  # classes whose overlays merged in
    pos: Pos = field(default_factory=Pos)

    def signature(self) -> str:
        params = ", ".join(a.type for a in self.args)
        ret = "" if self.is_constructor else f"{self.return_type} "
        return f"{ret}{self.name}({params})"

    def arg_named(self, name: str) -> Optional[ArgDecl]:
        for a in self.args:
            if a.name == name:
                return a
        return None

    def all_conjuncts(self, group: Optional[int] = None) -> tuple[Conjunct, ...]:
        """Mandatory conjuncts plus at most one optional group."""
        out = list(self.conjuncts)
        if group is not None:
            out.extend(self.optional_groups[group])
        return tuple(out)

    def group_choices(self) -> list[Optional[int]]:
        """No optional group, then each group by index."""
        return [None, *range(len(self.optional_groups))]

    def every_conjunct(self) -> tuple[Conjunct, ...]:
        """Mandatory conjuncts, then those of every optional group."""
        return sum(self.optional_groups, self.conjuncts)

    def declared_summary(self) -> frozenset[MutationTarget]:
        """The summary as written: the mutates clause plus this-rooted [!r]."""
        targets = set(self.mutates)
        targets.update(this_target(p) for p in self.local_mutations)
        return frozenset(targets)


@dataclass(eq=False, repr=False)
class ExternalDecl:
    """Annotations declared for a method of another type."""

    target_type: str
    method: MethodSpec  # annotations only, body is None
    declared_in: str = ""
    pos: Pos = field(default_factory=Pos)


@dataclass(eq=False, repr=False)
class ClassModel:
    """A resolved class or interface."""

    name: str
    superclass: Optional[str] = None
    interfaces: tuple[str, ...] = ()
    is_interface: bool = False
    is_abstract: bool = False
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodSpec] = field(default_factory=list)
    labels: list[LabelDecl] = field(default_factory=list)
    protocols: list[ProtocolDecl] = field(default_factory=list)
    resources: tuple[ResourceNode, ...] = ()
    externals: list[ExternalDecl] = field(default_factory=list)
    precedence: int = 0
    pos: Pos = field(default_factory=Pos)


class ModelError(Exception):
    """Raised for queries against the model that cannot be answered."""


class UnknownGoal(ModelError):
    pass


@dataclass(eq=False, repr=False)
class Program:
    """The resolved units of a source tree, with caches filled on first use."""

    units: dict[str, ClassModel] = field(default_factory=dict)
    unit_paths: dict[str, str] = field(default_factory=dict)  # type -> source path
    diagnostics: DiagnosticSink = field(default_factory=DiagnosticSink)
    # The planner's action index, built on first use once resolution has
    # ended (`planner.ActionIndex.of`).
    action_index: object = None
    # Atom -> residence of the corpus effects that achieve it, built on the
    # first query once resolution has ended (`effects.goal_residence`).
    goal_residences: Optional[dict] = None
    # id(method) -> the one walk of its body (`effects.analyze_method`),
    # filled on first use once resolution has ended.
    analyses: dict = field(default_factory=dict)

    # -- type hierarchy -----------------------------------------------------

    def supertype_chain(self, name: str) -> list[str]:
        """The class chain starting at `name` (itself included)."""
        chain = []
        cur: Optional[str] = name
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            chain.append(cur)
            u = self.units.get(cur)
            cur = u.superclass if u else None
        return chain

    def all_supertypes(self, name: str) -> set[str]:
        """Every reference supertype of `name`, including itself and Object."""
        out: set[str] = set()
        work = [name]
        while work:
            t = work.pop()
            if t in out:
                continue
            out.add(t)
            u = self.units.get(t)
            if u is not None:
                if u.superclass:
                    work.append(u.superclass)
                work.extend(u.interfaces)
        if name not in PRIMITIVES:
            out.add(OBJECT)
        return out

    def is_subtype(self, sub: str, sup: str) -> bool:
        if sub == sup:
            return True
        if sub in PRIMITIVES or sup in PRIMITIVES:
            return False
        if sub == "null":
            return True
        return sup in self.all_supertypes(sub)

    # -- members ------------------------------------------------------------

    def find_field(self, type_name: str, field_name: str) -> Optional[FieldDecl]:
        for t in self.supertype_chain(type_name):
            u = self.units.get(t)
            if u is None:
                continue
            for f in u.fields:
                if f.name == field_name:
                    return f
        return None

    def find_method(self, type_name: str, method_name: str, argc: Optional[int] = None) -> Optional[MethodSpec]:
        for t in self.supertype_chain(type_name):
            u = self.units.get(t)
            if u is None:
                continue
            for m in u.methods:
                if m.name == method_name and not m.is_constructor:
                    if argc is None or len(m.args) == argc:
                        return m
        # Interface-declared methods (abstract specs).
        for t in sorted(self.all_supertypes(type_name)):
            u = self.units.get(t)
            if u is None or not u.is_interface:
                continue
            for m in u.methods:
                if m.name == method_name and (argc is None or len(m.args) == argc):
                    return m
        return None

    def find_constructor(self, type_name: str, argc: Optional[int] = None) -> Optional[MethodSpec]:
        u = self.units.get(type_name)
        if u is None:
            return None
        for m in u.methods:
            if m.is_constructor and (argc is None or len(m.args) == argc):
                return m
        return None

    def overridden_method(self, method: MethodSpec) -> Optional[MethodSpec]:
        """The nearest method this one overrides, if any."""
        u = self.units.get(method.declared_in)
        if u is None or method.is_constructor:
            return None
        start = u.superclass
        if start is None:
            candidates = []
        else:
            candidates = self.supertype_chain(start)
        for t in candidates:
            sup = self.units.get(t)
            if sup is None:
                continue
            for m in sup.methods:
                if m.name == method.name and len(m.args) == len(method.args) and not m.is_constructor:
                    return m
        return None

    def effective_summary(self, method: MethodSpec) -> frozenset[MutationTarget]:
        """Declared summary, joined with the summaries of everything this
        method overrides (an override may rely on what was promised above)."""
        targets = set(method.declared_summary())
        seen = {id(method)}
        cur = self.overridden_method(method)
        while cur is not None and id(cur) not in seen:
            seen.add(id(cur))
            targets.update(cur.declared_summary())
            cur = self.overridden_method(cur)
        return frozenset(targets)

    # -- resources ------------------------------------------------------------

    def resource_nodes(self, type_name: str) -> dict[ResourcePath, ResourceNode]:
        """All declared resource paths of a type, including inherited ones."""
        out: dict[ResourcePath, ResourceNode] = {}

        def walk(prefix: ResourcePath, node: ResourceNode) -> None:
            path = prefix + (node.name,)
            out.setdefault(path, node)
            for c in node.children:
                walk(path, c)

        for t in reversed(self.supertype_chain(type_name)):
            u = self.units.get(t)
            if u is None:
                continue
            for node in u.resources:
                walk((), node)
        for t in sorted(self.all_supertypes(type_name)):
            u = self.units.get(t)
            if u is not None and u.is_interface:
                for node in u.resources:
                    walk((), node)
        return out

    def managed_fields(self, type_name: str) -> dict[str, FieldDecl]:
        out: dict[str, FieldDecl] = {}
        for t in reversed(self.supertype_chain(type_name)):
            u = self.units.get(t)
            if u is None:
                continue
            for f in u.fields:
                if f.managed:
                    out[f.name] = f
        return out

    def resolve_resource_path(self, type_name: str, path: ResourcePath) -> bool:
        """True when `path` is a valid qualified resource of `type_name`,
        possibly crossing managed fields into the field type's tree."""
        if not path:
            return True
        nodes = self.resource_nodes(type_name)
        if path in nodes:
            return True
        fields = self.managed_fields(type_name)
        head = path[0]
        if head in fields:
            return self.resolve_resource_path(fields[head].type, path[1:])
        # A resource path may extend below a declared resource only through
        # declaration, so anything else is unknown.
        return False

    def target_root_type(self, target: MutationTarget, this_type: str,
                         var_types: dict[str, str]) -> Optional[str]:
        if target.root_kind == ROOT_THIS:
            return this_type
        if target.root_kind == ROOT_ANY:
            return target.root_name
        return var_types.get(target.root_name)

    def target_parent(self, target: MutationTarget, root_type: str) -> Optional[MutationTarget]:
        """One step up the unified per-object tree: resources step to their
        declared parent, managed fields step to their owning resource."""
        if not target.path:
            return None
        prefix = target.path[:-1]
        last = target.path[-1]
        # The class owning `last`: walk prefix through fields.
        owner = root_type
        for seg in prefix:
            fields = self.managed_fields(owner)
            if seg in fields:
                owner = fields[seg].type
        fields = self.managed_fields(owner)
        fld = fields.get(last)
        if fld is None:
            fld = self.find_field(owner, last)
        if fld is not None:
            home = fld.managed_resource or ()
            return target.with_path(prefix + tuple(home))
        return target.with_path(prefix)

    def target_ancestors(self, target: MutationTarget, root_type: str) -> Iterator[MutationTarget]:
        """The target itself, then every ancestor up to the object root."""
        seen = set()
        cur: Optional[MutationTarget] = target
        while cur is not None and cur not in seen:
            seen.add(cur)
            yield cur
            cur = self.target_parent(cur, root_type)

    def target_covers(self, declared: MutationTarget, t: MutationTarget,
                      this_type: str, var_types: dict[str, str]) -> bool:
        """Whether `declared` accounts for mutation `t`: same object (or an
        any(T) generalization of it) and an ancestor-or-equal resource."""
        t_type = self.target_root_type(t, this_type, var_types)
        d_type = self.target_root_type(declared, this_type, var_types)
        if t_type is None or d_type is None:
            return False
        if declared.root_kind == ROOT_ANY:
            if t.root_kind == ROOT_ANY:
                if not self.is_subtype(t.root_name, declared.root_name):
                    return False
            elif not self.is_subtype(t_type, declared.root_name):
                return False
        else:
            if (t.root_kind, t.root_name) != (declared.root_kind, declared.root_name):
                return False
        for anc in self.target_ancestors(t, t_type):
            if anc.path == declared.path:
                return True
        return False

    def summary_covers(self, declared: frozenset[MutationTarget],
                       inferred: frozenset[MutationTarget],
                       this_type: str, var_types: dict[str, str]) -> list[MutationTarget]:
        """Targets of `inferred` that no declared target accounts for."""
        missing = []
        for t in sorted(inferred, key=lambda x: x.text()):
            if not any(self.target_covers(d, t, this_type, var_types) for d in declared):
                missing.append(t)
        return missing

    def summary_closure(self, targets: frozenset[MutationTarget], this_type: str,
                        var_types: dict[str, str]) -> frozenset[MutationTarget]:
        """Upward closure: every target plus all its ancestors to the root."""
        out: set[MutationTarget] = set()
        for t in targets:
            root_type = self.target_root_type(t, this_type, var_types)
            if root_type is None:
                out.add(t)
                continue
            out.update(self.target_ancestors(t, root_type))
        return frozenset(out)

    # -- labels and protocols -------------------------------------------------

    def visible_scopes(self, type_name: str) -> list[str]:
        ordered = self.supertype_chain(type_name)
        rest = sorted(self.all_supertypes(type_name) - set(ordered))
        return ordered + rest

    def label_decl_sites(self, name: str) -> list[LabelAtom]:
        """Every declaration site of a label called `name` in the program."""
        out = []
        for tname in sorted(self.units):
            u = self.units[tname]
            for ld in u.labels:
                if name in ld.names:
                    out.append(LabelAtom(tname, name))
        return out

    def resolve_label(self, name: str, scope_type: Optional[str]) -> list[LabelAtom]:
        """Label candidates for `name`, preferring the scope's own
        declarations and its supertypes, then program-global lookup."""
        if "." in name:
            owner, simple = name.rsplit(".", 1)
            u = self.units.get(owner)
            if u is not None:
                for t in self.visible_scopes(owner):
                    tu = self.units.get(t)
                    if tu is None:
                        continue
                    for ld in tu.labels:
                        if simple in ld.names:
                            return [LabelAtom(t, simple)]
            return []
        if scope_type is not None:
            found = []
            for t in self.visible_scopes(scope_type):
                u = self.units.get(t)
                if u is None:
                    continue
                for ld in u.labels:
                    if name in ld.names:
                        found.append(LabelAtom(t, name))
            if found:
                return sorted(set(found), key=lambda a: a.owner)
        return self.label_decl_sites(name)

    def resolve_protocol(self, name: str, scope_type: Optional[str]) -> list[ProtocolDecl]:
        if "." in name:
            owner, simple = name.rsplit(".", 1)
            u = self.units.get(owner)
            if u is None:
                return []
            return [p for p in u.protocols if p.name == simple]
        if scope_type is not None:
            found = []
            for t in self.visible_scopes(scope_type):
                u = self.units.get(t)
                if u is None:
                    continue
                found.extend(p for p in u.protocols if p.name == name)
            if found:
                return found
        out = []
        for tname in sorted(self.units):
            out.extend(p for p in self.units[tname].protocols if p.name == name)
        return out

    def protocol_transitions(self, proto: ProtocolDecl) -> frozenset[tuple[str, str]]:
        """The protocol's state machine: the union of transitions declared in
        the methods (and merged externals) of its carrier types."""
        carriers = proto.carriers or (proto.owner,)
        transitions: set[tuple[str, str]] = set()
        for carrier in carriers:
            for t in self.supertype_chain(carrier):
                u = self.units.get(t)
                if u is None:
                    continue
                for m in u.methods:
                    transitions.update(self._method_transitions(m, proto))
        return frozenset(transitions)

    def _method_transitions(self, method: MethodSpec, proto: ProtocolDecl) -> set[tuple[str, str]]:
        """(source, target) of each transition of `proto` among the method's
        conditions: the conditions that remove a state."""
        return {(cond.before.state, cond.after.state)
                for cj in method.every_conjunct() for cond in cj.conditions
                if cond.removed is not None
                and (cond.removed.owner, cond.removed.protocol) == (proto.owner, proto.name)}

    # -- goals ----------------------------------------------------------------

    def normalize_goal(self, goal_text: str, subject_type: Optional[str],
                       scope_type: Optional[str]) -> Atom:
        """Canonicalize a query goal into a label or ``p@s`` state atom.

        ``p.s`` and ``p@s`` are interchangeable spellings of a state. The
        goal resolves in one scope, the produced or transformed value's type
        (the enclosing class when there is none) with its supertypes. A name
        that scope does not declare resolves program-wide; a qualified name
        ignores the scope.
        """
        scope = subject_type if subject_type is not None else scope_type
        text = goal_text.strip()
        sep = "@" if "@" in text else ("." if "." in text else None)
        if sep is not None:
            head, tail = text.split(sep, 1)
            protos = self.resolve_protocol(head, scope)
            if protos:
                p = protos[0]
                return StateAtom(p.owner, p.name, tail)
            # Qualified label Type.label.
            if sep == ".":
                labels = self.resolve_label(text, None)
                if len(labels) == 1:
                    return labels[0]
            raise UnknownGoal(f"no protocol or label matches goal '{goal_text}'")
        labels = self.resolve_label(text, scope)
        if len(labels) == 1:
            return labels[0]
        if len(labels) > 1:
            raise UnknownGoal(f"goal '{goal_text}' is ambiguous: " +
                              ", ".join(a.text() for a in labels))
        raise UnknownGoal(f"no protocol or label matches goal '{goal_text}'")
