"""Object model for the annotated object language.

Everything the later phases consume lives here: declarations (classes,
fields, methods, labels, protocols, resources, externals), the condition
vocabulary that every layer reads on `MethodSpec`, mutation targets with
their upward closure, and the uniqueness lattices. `printer.py` renders
the annotation-free text that `synth` writes.

Syntax nodes (statements, expressions, declarations) compare by identity;
the condition vocabulary compares by value (`Value`).

Model objects are immutable by convention once resolution has finished;
they are shared freely between concurrent checks.
"""

from __future__ import annotations

from functools import cached_property
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from . import Frozen, replace, setfield
from .diagnostics import DiagnosticSink

# Built-in reference types; every declared type is a subtype of Object.
OBJECT = "Object"
STRING = "String"
PRIMITIVES = frozenset({"int", "boolean", "byte", "void"})


class Pos:
    """A 1-based source position. Every node keeps one, so it has slots;
    it is immutable by convention, like the rest of the model."""

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col


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

class Value(Frozen):
    """A value of the condition vocabulary: equal to another of its class
    when their keys are, and hashed as its key. `__init__` stores each
    field, then `_key`, the tuple of its arguments in order."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        code = self.__init__.__code__
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(code.co_varnames[1:code.co_argcount], self._key))
        return f"{self.__class__.__name__}({fields})"


class LabelAtom(Value):
    """A label, identified by its declaring type plus its name."""

    def __init__(self, owner: str, name: str):
        setfield(self, "owner", owner)
        setfield(self, "name", name)
        setfield(self, "_key", (owner, name))

    def text(self) -> str:
        return f"{self.owner}.{self.name}"


class StateAtom(Value):
    """A protocol state, written ``p@s``. States behave like labels that a
    transition leaving ``s`` removes."""

    def __init__(self, owner: str, protocol: str, state: str):
        setfield(self, "owner", owner)
        setfield(self, "protocol", protocol)
        setfield(self, "state", state)
        setfield(self, "_key", (owner, protocol, state))

    def text(self) -> str:
        return f"{self.protocol}@{self.state}"


Atom = Union[LabelAtom, StateAtom]

ResourcePath = tuple[str, ...]


# Every condition reads the same way for a call: the atom it needs `before`
# (None for none), the atom that holds `after`, the atom it `removed` (None
# for none) and the `residence` of what it establishes. No layer looks at a
# condition's class.

class Invariant(Value):
    """Holds before the call and still holds after it."""

    residence = ()
    removed = None

    def __init__(self, atom: Atom):
        setfield(self, "atom", atom)
        setfield(self, "_key", (atom,))

    @property
    def before(self) -> Atom:
        return self.atom

    @property
    def after(self) -> Atom:
        return self.atom


class AddLabel(Value):
    """Holds after the call, whatever held before."""

    before = None
    removed = None

    def __init__(self, atom: LabelAtom, residence: tuple[ResourcePath, ...] = ()):
        setfield(self, "atom", atom)
        setfield(self, "residence", residence)
        setfield(self, "_key", (atom, residence))

    @property
    def after(self) -> Atom:
        return self.atom


class Transition(Value):
    """Goes from the source state to the target state, removing the source
    (a self-transition removes and re-establishes it)."""

    def __init__(self, owner: str, protocol: str, source: str, target: str,
                 residence: tuple[ResourcePath, ...] = ()):
        setfield(self, "owner", owner)
        setfield(self, "protocol", protocol)
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "residence", residence)
        setfield(self, "_key", (owner, protocol, source, target, residence))

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


def residence_text(paths: tuple[ResourcePath, ...]) -> str:
    """A residence as sources and `.assume` entries spell it: ` [*a.b, c]`,
    or nothing when there is none."""
    if not paths:
        return ""
    return " [*" + ", ".join(".".join(p) for p in paths) + "]"


class Conjunct(Value):
    """Conditions attached to one subject: ``this``, ``result`` or an
    argument name."""

    def __init__(self, subject: str, conditions: tuple[Condition, ...]):
        setfield(self, "subject", subject)
        setfield(self, "conditions", conditions)
        setfield(self, "_key", (subject, conditions))


# ---------------------------------------------------------------------------
# Mutation targets
# ---------------------------------------------------------------------------

ROOT_THIS = "this"
ROOT_VAR = "var"
ROOT_ANY = "any"


class MutationTarget(Value):
    """A qualified resource rooted at ``this``, a named variable/field, or
    an arbitrary object of a type (``any(T)``).

    The path walks the per-object resource tree; a segment may also name a
    managed field, in which case the rest of the path resolves in the field's
    type. An empty path denotes the object's implicit root resource.
    """

    def __init__(self, root_kind: str, root_name: str, path: ResourcePath):
        setfield(self, "root_kind", root_kind)
        setfield(self, "root_name", root_name)
        setfield(self, "path", path)
        setfield(self, "_key", (root_kind, root_name, path))

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

class NameExpr:
    """A variable, field or type name."""

    def __init__(self, name: str, pos: Optional[Pos] = None):
        self.name = name
        self.pos = Pos() if pos is None else pos


class ThisExpr:
    """`this`."""

    def __init__(self, pos: Optional[Pos] = None):
        self.pos = Pos() if pos is None else pos


class SuperExpr:
    """`super`, as the receiver of a call."""

    def __init__(self, pos: Optional[Pos] = None):
        self.pos = Pos() if pos is None else pos


class LiteralExpr:
    """An int, string, boolean or null literal."""

    def __init__(self, kind: str,  # "int" | "string" | "bool" | "null"
                 value: object, pos: Optional[Pos] = None):
        self.kind = kind
        self.value = value
        self.pos = Pos() if pos is None else pos


class NewExpr:
    """`new T(args)`."""

    def __init__(self, type: str, args: list[Expr], pos: Optional[Pos] = None):
        self.type = type
        self.args = args
        self.pos = Pos() if pos is None else pos


class CallExpr:
    """`receiver.method(args)`, or `method(args)` on `this`."""

    def __init__(self, receiver: Optional[Expr],  # None for unqualified calls on this
                 method: str, args: list[Expr], pos: Optional[Pos] = None):
        self.receiver = receiver
        self.method = method
        self.args = args
        self.pos = Pos() if pos is None else pos


class FieldAccessExpr:
    """`receiver.field`."""

    def __init__(self, receiver: Expr, field: str, pos: Optional[Pos] = None):
        self.receiver = receiver
        self.field = field
        self.pos = Pos() if pos is None else pos


Expr = Union[NameExpr, ThisExpr, SuperExpr, LiteralExpr, NewExpr, CallExpr, FieldAccessExpr]


class Query:
    """A `#produce` or `#transform` query."""

    def __init__(self, kind: str,  # "produce" | "transform"
                 produce_type: Optional[str], target_var: Optional[str], goal_text: str,
                 with_names: tuple[str, ...] = (), pos: Optional[Pos] = None,
                 goal: Optional[Atom] = None):
        self.kind = kind
        self.produce_type = produce_type
        self.target_var = target_var
        self.goal_text = goal_text
        self.with_names = with_names
        self.pos = Pos() if pos is None else pos
        self.goal = goal  # bound by the resolver


class VarDeclStmt:
    """`T name = init;`"""

    def __init__(self, type: str, name: str, init: Optional[Expr],
                 pos: Optional[Pos] = None):
        self.type = type
        self.name = name
        self.init = init
        self.pos = Pos() if pos is None else pos


class AssignStmt:
    """`target = value;`"""

    def __init__(self, target: Expr,  # NameExpr or FieldAccessExpr
                 value: Expr, pos: Optional[Pos] = None):
        self.target = target
        self.value = value
        self.pos = Pos() if pos is None else pos


class ExprStmt:
    """An expression evaluated for its effects."""

    def __init__(self, expr: Expr, pos: Optional[Pos] = None):
        self.expr = expr
        self.pos = Pos() if pos is None else pos


class ReturnStmt:
    """`return value;`"""

    def __init__(self, value: Optional[Expr], pos: Optional[Pos] = None):
        self.value = value
        self.pos = Pos() if pos is None else pos


class QueryStmt:
    """A query site, `#q`, `x = #q` or `T x = #q`, with its protection span.
    `var` is the local that takes the goal value; `type` is set when the
    statement declares it."""

    def __init__(self, query: Query, span: Optional[list[Stmt]] = None,
                 var: Optional[str] = None, type: Optional[str] = None,
                 pos: Optional[Pos] = None):
        self.query = query
        self.span = span
        self.var = var
        self.type = type
        self.pos = Pos() if pos is None else pos


class ProtectStmt:
    """`protect var.resource { body }`."""

    def __init__(self, var: str, resource: ResourcePath, body: list[Stmt],
                 pos: Optional[Pos] = None):
        self.var = var
        self.resource = resource
        self.body = body
        self.pos = Pos() if pos is None else pos


class BlockStmt:
    """`{ body }`."""

    def __init__(self, body: list[Stmt], pos: Optional[Pos] = None):
        self.body = body
        self.pos = Pos() if pos is None else pos


Stmt = Union[VarDeclStmt, AssignStmt, ExprStmt, ReturnStmt, QueryStmt, ProtectStmt, BlockStmt]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class ArgDecl:
    """A method parameter with its uniqueness kind."""

    def __init__(self, uniqueness: UniquenessKind, type: str, name: str,
                 pos: Optional[Pos] = None):
        self.uniqueness = uniqueness
        self.type = type
        self.name = name
        self.pos = Pos() if pos is None else pos


class FieldDecl:
    """A field, with its label and resource annotations. From the parser
    until `Resolver.resolve` returns, `labels` holds the names as written."""

    def __init__(self, name: str, type: str, declared_in: str,
                 uniqueness: UniquenessKind = UniquenessKind.NORMAL,
                 managed: bool = False,
                 managed_resource: Optional[ResourcePath] = None,  # None = parented at root
                 is_static: bool = False, is_final: bool = False,
                 labels: tuple[LabelAtom, ...] = (), initializer: Optional[Expr] = None,
                 pos: Optional[Pos] = None):
        self.name = name
        self.type = type
        self.declared_in = declared_in
        self.uniqueness = uniqueness
        self.managed = managed
        self.managed_resource = managed_resource
        self.is_static = is_static
        self.is_final = is_final
        self.labels = labels
        self.initializer = initializer
        self.pos = Pos() if pos is None else pos


class LabelDecl:
    """One `labels` line: label names and the types that carry them."""

    def __init__(self, owner: str,
                 carriers: tuple[str, ...],  # empty = the declaring type itself
                 names: tuple[str, ...], pos: Optional[Pos] = None):
        self.owner = owner
        self.carriers = carriers
        self.names = names
        self.pos = Pos() if pos is None else pos


class ProtocolDecl:
    """One protocol of a `protocols` line and the types that carry it. Its
    states are not declared: a condition names each one where it uses it."""

    def __init__(self, owner: str, carriers: tuple[str, ...], name: str,
                 pos: Optional[Pos] = None):
        self.owner = owner
        self.carriers = carriers
        self.name = name
        self.pos = Pos() if pos is None else pos


class ResourceNode:
    """A resource and the resources nested in it."""

    def __init__(self, name: str, children: tuple[ResourceNode, ...] = ()):
        self.name = name
        self.children = children


def _tree_holds(nodes: tuple[ResourceNode, ...], path: ResourcePath) -> bool:
    """Whether the declared resource trees `nodes` hold `path`."""
    return any(n.name == path[0] and (len(path) == 1 or _tree_holds(n.children, path[1:]))
               for n in nodes)


class MethodSpec:
    """A method or constructor with its annotations; `body` is None when
    the declaration has none. From the parser until `Resolver.resolve`
    returns, `result_labels` holds the names as written, `local_mutations`
    holds `(path, pos)` pairs, and `mutates`, `conjuncts` and
    `optional_groups` hold the parser's `RawTarget` and `RawConjunct` forms;
    the resolver binds each in place."""

    def __init__(self, name: str, declared_in: str, return_type: str,
                 args: tuple[ArgDecl, ...], is_constructor: bool = False,
                 is_abstract: bool = False, is_static: bool = False,
                 return_uniqueness: UniquenessKind = UniquenessKind.NORMAL,
                 result_labels: tuple[LabelAtom, ...] = (),
                 local_mutations: tuple[ResourcePath, ...] = (),
                 mutates: tuple[MutationTarget, ...] = (),
                 conjuncts: tuple[Conjunct, ...] = (),
                 optional_groups: tuple[tuple[Conjunct, ...], ...] = (),
                 body: Optional[list[Stmt]] = None,
                 pos: Optional[Pos] = None):
        self.name = name
        self.declared_in = declared_in
        self.return_type = return_type
        self.args = args
        self.is_constructor = is_constructor
        self.is_abstract = is_abstract
        self.is_static = is_static
        self.return_uniqueness = return_uniqueness
        self.result_labels = result_labels
        self.local_mutations = local_mutations
        self.mutates = mutates
        self.conjuncts = conjuncts
        self.optional_groups = optional_groups
        self.body = body
        self.pos = Pos() if pos is None else pos

    @property
    def key(self) -> tuple[str, int]:
        """The member's identity in its class: constructor or not, name and
        arity. A constructor bears its class's name, so `<init>` stands in
        for it. A class declares each key once."""
        return ("<init>" if self.is_constructor else self.name, len(self.args))

    def signature(self) -> str:
        params = ", ".join(a.type for a in self.args)
        ret = "" if self.is_constructor else f"{self.return_type} "
        return f"{ret}{self.name}({params})"

    def arg_named(self, name: str) -> Optional[ArgDecl]:
        for a in self.args:
            if a.name == name:
                return a
        return None

    def subject_type(self, subject: str) -> Optional[str]:
        """The type a name denotes in every annotation of this member:
        `declared_in` for `this`, the return type for `result`, else the
        type of the first parameter of that name, or None when there is none."""
        if subject == "this":
            return self.declared_in
        if subject == "result":
            return self.return_type
        arg = self.arg_named(subject)
        return None if arg is None else arg.type

    def renamed(self, names: Sequence[str]) -> MethodSpec:
        """This member with its parameters called `names`, by position, as
        calls pass arguments. The subjects and `var` targets that named them
        are renamed at once, so a swap works; the rest, the body included,
        is shared. When the names agree, this is the member itself."""
        rename = {a.name: n for a, n in zip(self.args, names) if a.name != n}
        if not rename:
            return self

        def conjuncts(cjs: tuple[Conjunct, ...]) -> tuple[Conjunct, ...]:
            return tuple(Conjunct(rename[cj.subject], cj.conditions)
                         if cj.subject in rename else cj for cj in cjs)

        return replace(
            self,
            args=tuple(replace(a, name=rename[a.name]) if a.name in rename else a
                       for a in self.args),
            mutates=tuple(var_target(rename[t.root_name], t.path)
                          if t.root_kind == ROOT_VAR and t.root_name in rename else t
                          for t in self.mutates),
            conjuncts=conjuncts(self.conjuncts),
            optional_groups=tuple(map(conjuncts, self.optional_groups)))

    def all_conjuncts(self, group: Optional[int] = None) -> tuple[Conjunct, ...]:
        """Mandatory conjuncts plus at most one optional group."""
        out = list(self.conjuncts)
        if group is not None:
            out.extend(self.optional_groups[group])
        return tuple(out)

    # -- the condition vocabulary: what the member requires and establishes --

    def result_atoms(self, group: Optional[int] = None) -> list[tuple[Atom, tuple[ResourcePath, ...]]]:
        """Atoms the method establishes on its returned value. Invariants on
        `result` count as carried labels."""
        return [(atom, ()) for atom in self.result_labels] + \
            _results(self.all_conjuncts(group))

    def subject_preconditions(self, group: Optional[int] = None) -> list[tuple[str, Atom]]:
        """(subject, atom) pairs that must hold before invocation."""
        return _requirements(self.all_conjuncts(group))

    def subject_effects(self, group: Optional[int] = None) -> list[tuple[str, Atom, tuple[ResourcePath, ...], Optional[Atom]]]:
        """(subject, atom-added, residence, atom-removed) for non-result subjects."""
        return _effects(self.all_conjuncts(group))

    def postconditions(self, group: Optional[int] = None) -> list[tuple[str, Atom, tuple[ResourcePath, ...]]]:
        """(subject, atom, residence) for every fact that holds after
        invocation, `result` included."""
        return [("result", atom, ()) for atom in self.result_labels] + [
            (cj.subject, cond.after, cond.residence)
            for cj in self.all_conjuncts(group) for cond in cj.conditions]

    def group_contract(self, group: int) -> tuple[set[tuple[str, Atom]], set[tuple[str, Atom]]]:
        """One optional group on its own, as override conformance (B1) reads
        it: the (subject, atom) pairs it requires, and those it adds with
        the invariants it keeps on `result`."""
        conjuncts = self.optional_groups[group]
        return set(_requirements(conjuncts)), \
            {(s, atom) for s, atom, _, _ in _effects(conjuncts)} | \
            {("result", atom) for atom, _ in _results(conjuncts)}

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


def _requirements(conjuncts: tuple[Conjunct, ...]) -> list[tuple[str, Atom]]:
    """(subject, atom) for each condition that needs an atom before the call."""
    return [(cj.subject, cond.before) for cj in conjuncts if cj.subject != "result"
            for cond in cj.conditions if cond.before is not None]


def _effects(conjuncts: tuple[Conjunct, ...]) -> list[tuple[str, Atom, tuple[ResourcePath, ...], Optional[Atom]]]:
    """(subject, atom-added, residence, atom-removed) for each condition
    that changes a subject other than `result`."""
    return [(cj.subject, cond.after, cond.residence, cond.removed)
            for cj in conjuncts if cj.subject != "result"
            for cond in cj.conditions if _is_effect(cond)]


def _results(conjuncts: tuple[Conjunct, ...]) -> list[tuple[Atom, tuple[ResourcePath, ...]]]:
    """(atom, residence) for each condition on `result`."""
    return [(cond.after, cond.residence) for cj in conjuncts if cj.subject == "result"
            for cond in cj.conditions]


def _is_effect(cond: Condition) -> bool:
    """Whether a condition changes its subject: it adds an atom without
    needing one, or it removes one. Only an invariant does neither."""
    return cond.before is None or cond.removed is not None


class ExternalDecl:
    """Annotations that the class `declared_in` writes for a method of
    another type. `method` holds them; it is declared in the type it
    annotates and bears its target's return type, so its `this` and
    `result` are the target's, and its labels and protocols resolve in
    `declared_in`'s scope."""

    def __init__(self, method: MethodSpec,  # annotations only, body is None
                 declared_in: str = "", pos: Optional[Pos] = None):
        self.method = method
        self.declared_in = declared_in
        self.pos = Pos() if pos is None else pos


class ClassModel:
    """A resolved class or interface."""

    def __init__(self, name: str, superclass: Optional[str] = None,
                 interfaces: tuple[str, ...] = (), is_interface: bool = False,
                 is_abstract: bool = False, fields: Optional[list[FieldDecl]] = None,
                 methods: Optional[list[MethodSpec]] = None,
                 labels: Optional[list[LabelDecl]] = None,
                 protocols: Optional[list[ProtocolDecl]] = None,
                 resources: tuple[ResourceNode, ...] = (),
                 externals: Optional[list[ExternalDecl]] = None, precedence: int = 0,
                 pos: Optional[Pos] = None):
        self.name = name
        self.superclass = superclass
        self.interfaces = interfaces
        self.is_interface = is_interface
        self.is_abstract = is_abstract
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self.labels = [] if labels is None else labels
        self.protocols = [] if protocols is None else protocols
        self.resources = resources
        self.externals = [] if externals is None else externals
        self.precedence = precedence
        self.pos = Pos() if pos is None else pos


class ModelError(Exception):
    """Raised for queries against the model that cannot be answered."""


class UnknownGoal(ModelError):
    pass


class Program:
    """The resolved units of a source tree, with caches filled on first use.

    Every hierarchy, member and resource-path question is answered here,
    by one lookup per concept. The per-type facts it keeps are each
    type's supertypes and its lookup order; members and resources are
    read from the declaring units along that order, not copied into each
    subtype."""

    def __init__(self, diagnostics: Optional[DiagnosticSink] = None):
        self.units: dict[str, ClassModel] = {}
        self.unit_paths: dict[str, str] = {}  # type -> source path
        self.diagnostics = DiagnosticSink() if diagnostics is None else diagnostics
        # The planner's action index, built on first use once resolution has
        # ended (`planner.ActionIndex.of`).
        self.action_index: object = None
        # Atom -> residence of the corpus effects that achieve it, built on the
        # first query once resolution has ended (`goal_residence`).
        self.goal_residences: Optional[dict] = None
        # Label name -> the units that declare it, in unit order, built on
        # first use once every unit is registered (`label_decl_sites`).
        self.label_sites: Optional[dict[str, tuple[str, ...]]] = None
        # id(method) -> the one walk of its body (`effects.analyze_method`),
        # filled on first use once resolution has ended.
        self.analyses: dict = {}
        # Type -> its supertypes and its lookup order, each built on first
        # use once every unit is registered (`supertypes`, `lookup_order`).
        self.supertype_sets: dict[str, frozenset[str]] = {}
        self.lookup_orders: dict[str, tuple[str, ...]] = {}

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

    def supertypes(self, name: str) -> frozenset[str]:
        """Every reference supertype of `name`, itself and Object included
        (a primitive's is itself alone)."""
        sups = self.supertype_sets.get(name)
        if sups is None:
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
            sups = self.supertype_sets[name] = frozenset(out)
        return sups

    def lookup_order(self, name: str) -> tuple[str, ...]:
        """The order in which members, resources, labels and protocols are
        looked up for `name`: its class chain, then its other supertypes
        sorted."""
        order = self.lookup_orders.get(name)
        if order is None:
            chain = self.supertype_chain(name)
            order = self.lookup_orders[name] = \
                tuple(chain + sorted(self.supertypes(name).difference(chain)))
        return order

    def is_subtype(self, sub: str, sup: str) -> bool:
        if sub == sup:
            return True
        if sub in PRIMITIVES or sup in PRIMITIVES:
            return False
        if sub == "null":
            return True
        return sup in self.supertypes(sub)

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

    def declared_method(self, type_name: str, name: str, argc: int,
                        constructor: bool = False) -> Optional[MethodSpec]:
        """The method (or, with `constructor`, the constructor) that
        `type_name` itself declares with `name` and `argc` parameters. The
        resolver admits one member per identity (`MethodSpec.key`), so
        there is at most one; calls, `new`, overrides, external overlays
        and `verify-upgrade` all find their member here."""
        u = self.units.get(type_name)
        if u is not None:
            for m in u.methods:
                if m.name == name and len(m.args) == argc and m.is_constructor == constructor:
                    return m
        return None

    def find_method(self, type_name: str, method_name: str, argc: int) -> Optional[MethodSpec]:
        """The method a call of `method_name` with `argc` arguments on a
        `type_name` reaches: the most derived along the class chain, else
        the first an interface declares, in lookup order."""
        m = self._chain_method(type_name, method_name, argc)
        if m is not None:
            return m
        for t in self.lookup_order(type_name):
            u = self.units.get(t)
            if u is not None and u.is_interface:
                m = self.declared_method(t, method_name, argc)
                if m is not None:
                    return m
        return None

    def _chain_method(self, type_name: str, method_name: str, argc: int) -> Optional[MethodSpec]:
        for t in self.supertype_chain(type_name):
            m = self.declared_method(t, method_name, argc)
            if m is not None:
                return m
        return None

    def overridden_method(self, method: MethodSpec) -> Optional[MethodSpec]:
        """The nearest method this one overrides, if any."""
        u = self.units.get(method.declared_in)
        if u is None or u.superclass is None or method.is_constructor:
            return None
        return self._chain_method(u.superclass, method.name, len(method.args))

    def effective_summary(self, method: MethodSpec) -> frozenset[MutationTarget]:
        """Declared summary, joined with the summaries of everything this
        method overrides (an override may rely on what was promised above),
        each read under this method's parameter names (`MethodSpec.renamed`)."""
        targets = set(method.declared_summary())
        seen = {id(method)}
        cur = self.overridden_method(method)
        while cur is not None and id(cur) not in seen:
            seen.add(id(cur))
            targets.update(cur.renamed([a.name for a in method.args]).declared_summary())
            cur = self.overridden_method(cur)
        return frozenset(targets)

    # -- resources ------------------------------------------------------------

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
        # The trees of the class chain and of every interface: a path is
        # declared when one of them holds it.
        chain = self.supertype_chain(type_name)
        for t in self.lookup_order(type_name):
            u = self.units.get(t)
            if u is not None and (u.is_interface or t in chain) \
                    and _tree_holds(u.resources, path):
                return True
        fld = self.managed_fields(type_name).get(path[0])
        if fld is not None:
            return self.resolve_resource_path(fld.type, path[1:])
        # A resource path may extend below a declared resource only through
        # declaration, so anything else is unknown.
        return False

    def target_root_type(self, target: MutationTarget,
                         method: MethodSpec) -> Optional[str]:
        """The type of a target's root object in `method`: `T` for `any(T)`,
        else what `method` types `this` or the parameter by."""
        if target.root_kind == ROOT_ANY:
            return target.root_name
        return method.subject_type(ROOT_THIS if target.root_kind == ROOT_THIS
                                   else target.root_name)

    def path_ancestors(self, root_type: str, path: ResourcePath) -> Iterator[ResourcePath]:
        """`path`, then each ancestor up to the object root `()` in the
        unified per-object tree of a `root_type`: a resource steps to its
        declared parent, a managed field to its owning resource."""
        seen = set()
        while path not in seen:
            seen.add(path)
            yield path
            if not path:
                return
            prefix, last = path[:-1], path[-1]
            # The type owning `last`: walk the prefix through managed fields.
            owner = root_type
            for seg in prefix:
                fld = self.managed_fields(owner).get(seg)
                if fld is not None:
                    owner = fld.type
            fld = self.managed_fields(owner).get(last) or self.find_field(owner, last)
            path = prefix + tuple(fld.managed_resource or ()) if fld is not None else prefix

    def target_covers(self, declared: MutationTarget, t: MutationTarget,
                      method: MethodSpec) -> bool:
        """Whether `declared` accounts for mutation `t`, both named in
        `method`: same object (or an any(T) generalization of it) and an
        ancestor-or-equal resource."""
        t_type = self.target_root_type(t, method)
        d_type = self.target_root_type(declared, method)
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
        return declared.path in self.path_ancestors(t_type, t.path)

    def summary_covers(self, declared: frozenset[MutationTarget],
                       inferred: frozenset[MutationTarget],
                       method: MethodSpec) -> list[MutationTarget]:
        """Targets of `inferred`, named in `method`, that none declared covers."""
        missing = []
        for t in sorted(inferred, key=lambda x: x.text()):
            if not any(self.target_covers(d, t, method) for d in declared):
                missing.append(t)
        return missing

    # -- labels and protocols -------------------------------------------------

    def label_decl_sites(self, name: str) -> list[LabelAtom]:
        """Every declaration site of a label called `name` in the program."""
        if self.label_sites is None:
            table: dict[str, tuple[str, ...]] = {}
            for tname in sorted(self.units):
                for ld in self.units[tname].labels:
                    for n in set(ld.names):
                        table[n] = table.get(n, ()) + (tname,)
            self.label_sites = table
        return [LabelAtom(owner, name) for owner in self.label_sites.get(name, ())]

    def goal_residence(self, goal: Atom) -> tuple[ResourcePath, ...]:
        """Residence of a goal established by unknown means: the union of the
        residences declared on corpus effects that achieve the goal, in
        first-seen order over every method in unit order."""
        if self.goal_residences is None:
            # dict keys keep insertion order, so each bucket is an ordered set.
            table: dict[Atom, dict[ResourcePath, None]] = {}
            for cname in sorted(self.units):
                for m in self.units[cname].methods:
                    for g in m.group_choices():
                        for atom, residence in m.result_atoms(g) + \
                                [(a, r) for _, a, r, _ in m.subject_effects(g)]:
                            table.setdefault(atom, {}).update(dict.fromkeys(residence))
            self.goal_residences = {atom: tuple(paths) for atom, paths in table.items()}
        return self.goal_residences.get(goal, ())

    def resolve_label(self, name: str, scope_type: Optional[str]) -> list[LabelAtom]:
        """Label candidates for `name`, preferring the scope's own
        declarations and its supertypes, then program-global lookup."""
        if "." in name:
            owner, simple = name.rsplit(".", 1)
            u = self.units.get(owner)
            if u is not None:
                for t in self.lookup_order(owner):
                    tu = self.units.get(t)
                    if tu is None:
                        continue
                    for ld in tu.labels:
                        if simple in ld.names:
                            return [LabelAtom(t, simple)]
            return []
        if scope_type is not None:
            found = []
            for t in self.lookup_order(scope_type):
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
            for t in self.lookup_order(scope_type):
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
