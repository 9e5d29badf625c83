"""Brute-force planning oracle.

Forward breadth-first enumeration of ground action sequences, entirely
independent of the backward partial-order search: states are explicit value
sets, actions fire only when their preconditions hold in the current state,
and the first depth at which the goal holds is the minimal solution length.

Used to pin expected plan lengths and solvability for every corpus query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from poplar.effects import QueryContext, SpanObligation, paths_comparable
from poplar.model import (
    Atom, ClassModel, FieldDecl, MethodSpec, PRIMITIVES, Program,
    UniquenessKind,
)

KIND = UniquenessKind


@dataclass(frozen=True)
class OValue:
    name: Optional[str]  # context variable name, None for created values
    type: str
    labels: frozenset
    kind: UniquenessKind
    fresh: bool


@dataclass(frozen=True)
class OAction:
    kind: str  # "ctor" | "invoke" | "fieldread"
    owner: str
    member: str
    group: Optional[int]
    method: Optional[MethodSpec] = None
    field: Optional[FieldDecl] = None

    def label(self) -> str:
        g = f"+g{self.group}" if self.group is not None else ""
        return f"{self.owner}.{self.member}{g}"


def action_universe(program: Program) -> list[OAction]:
    out: list[OAction] = []
    for cname in sorted(program.units):
        unit = program.units[cname]
        for m in unit.methods:
            groups: list[Optional[int]] = [None]
            groups.extend(range(len(m.optional_groups)))
            for g in groups:
                if m.is_constructor:
                    if not _is_abstract_class(unit):
                        out.append(OAction("ctor", cname, cname, g, method=m))
                else:
                    out.append(OAction("invoke", cname, m.name, g, method=m))
        for f in unit.fields:
            if f.is_static:
                out.append(OAction("fieldread", cname, f.name, None, field=f))
    return out


def _is_abstract_class(unit: ClassModel) -> bool:
    return unit.is_abstract or unit.is_interface


State = tuple  # canonical tuple of OValue


def _canon(values: list[OValue]) -> State:
    return tuple(sorted(values, key=lambda v: (v.name or "~", v.type,
                                               sorted(str(a) for a in v.labels),
                                               v.kind.value, v.fresh)))


def initial_state(ctx: QueryContext) -> State:
    values = []
    for name, st in sorted(ctx.values.items()):
        if st.variable == "this" and st.fresh:
            continue
        values.append(OValue(name, st.type, frozenset(st.facts), st.kind, st.fresh))
    return _canon(values)


def _relevant_actions(program: Program, universe: list[OAction],
                      goal: Atom, goal_type: Optional[str]) -> list[OAction]:
    """Backward closure over needed atoms and types; keeps the search narrow
    without affecting solvability or minimal length."""
    needed_atoms = {goal}
    needed_types = set()
    if goal_type:
        needed_types.add(goal_type)
    relevant: list[OAction] = []
    chosen: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(universe):
            if i in chosen:
                continue
            if not _contributes(program, a, needed_atoms, needed_types):
                continue
            chosen.add(i)
            relevant.append(a)
            changed = True
            m = a.method
            if m is not None:
                for s, atom in m.subject_preconditions(a.group):
                    needed_atoms.add(atom)
                if not m.is_constructor and not m.is_static:
                    needed_types.add(m.declared_in)
                for arg in m.args:
                    needed_types.add(arg.type)
    return relevant


def _produced_atoms(program: Program, a: OAction) -> list[Atom]:
    if a.kind == "fieldread":
        return list(a.field.labels)
    m = a.method
    atoms = [atom for atom, _ in m.result_atoms(a.group)]
    atoms.extend(atom for _, atom, _, _ in m.subject_effects(a.group))
    return atoms


def _result_type(program: Program, a: OAction) -> Optional[str]:
    if a.kind == "fieldread":
        return a.field.type
    if a.method.is_constructor:
        return a.method.declared_in
    rt = a.method.return_type
    return None if rt == "void" else rt


def _contributes(program: Program, a: OAction, needed_atoms: set,
                 needed_types: set) -> bool:
    for atom in _produced_atoms(program, a):
        if atom in needed_atoms:
            return True
    rt = _result_type(program, a)
    if rt is not None:
        for t in needed_types:
            if program.is_subtype(rt, t):
                return True
    return False


def _bindings(program: Program, state: State, a: OAction):
    """All ways to fire `a` in `state`: (receiver index or None, arg indices)."""
    if a.kind == "fieldread":
        yield (None, ())
        return
    m = a.method
    pre = m.subject_preconditions(a.group)

    def ok(subject: str, idx: int) -> bool:
        v = state[idx]
        want = {atom for s, atom in pre if s == subject}
        return want <= v.labels

    recv_choices: list[Optional[int]]
    if m.is_constructor or m.is_static:
        recv_choices = [None]
    else:
        recv_choices = [i for i, v in enumerate(state)
                        if program.is_subtype(v.type, m.declared_in) and ok("this", i)]
    arg_choices: list[list[int]] = []
    for arg in m.args:
        options = [i for i, v in enumerate(state)
                   if program.is_subtype(v.type, arg.type) and ok(arg.name, i)]
        arg_choices.append(options)

    def expand(recv, chosen, rest):
        if not rest:
            yield (recv, tuple(chosen))
            return
        for i in rest[0]:
            yield from expand(recv, chosen + [i], rest[1:])

    for recv in recv_choices:
        yield from expand(recv, [], arg_choices)


def _violates_span(program: Program, state: State, a: OAction,
                   recv: Optional[int], args: tuple,
                   spans: list[SpanObligation], ctx: QueryContext) -> bool:
    if a.kind == "fieldread" or not spans:
        return False
    m = a.method
    summary = program.effective_summary(m)
    if not summary:
        return False
    by_name = {arg.name: i for i, arg in enumerate(m.args)}
    for t in summary:
        if t.root_kind == "this":
            idx = recv
        elif t.root_kind == "var" and t.root_name in by_name:
            idx = args[by_name[t.root_name]] if by_name[t.root_name] < len(args) else None
        else:
            idx = None  # any(T): may alias anything of that type
        for span in spans:
            if not span.protected_resource:
                continue
            protected = None
            for v in state:
                if v.name == span.protected_variable:
                    protected = v
                    break
            if protected is None:
                continue
            if idx is not None:
                v = state[idx]
                if v.name != span.protected_variable:
                    # Distinct operand: only an alias can reach the protected
                    # object, which unsharedness on either side rules out.
                    if v.kind.unshared or v.fresh:
                        continue
                    if protected.kind.unshared:
                        continue
                    if not (program.is_subtype(v.type, protected.type)
                            or program.is_subtype(protected.type, v.type)):
                        continue
            else:
                if t.root_kind != "any":
                    continue
                if protected.kind.unshared:
                    continue
                if not program.is_subtype(protected.type, t.root_name):
                    continue
            if paths_comparable(program, protected.type, t.path, span.protected_resource):
                return True
    return False


def _apply(program: Program, state: State, a: OAction, recv: Optional[int],
           args: tuple) -> State:
    values = list(state)
    if a.kind == "fieldread":
        values.append(OValue(None, a.field.type, frozenset(a.field.labels),
                             KIND.NORMAL, False))
        return _canon(values)
    m = a.method

    def update(idx: int, added: Atom, removed: Optional[Atom]) -> None:
        v = values[idx]
        labels = set(v.labels)
        if removed is not None:
            labels.discard(removed)
        labels.add(added)
        values[idx] = OValue(v.name, v.type, frozenset(labels), v.kind, v.fresh)

    by_name = {arg.name: i for i, arg in enumerate(m.args)}
    for subject, atom, _, removed in m.subject_effects(a.group):
        if subject == "this" and recv is not None:
            update(recv, atom, removed)
        elif subject in by_name and by_name[subject] < len(args):
            update(args[by_name[subject]], atom, removed)
    rt = _result_type(program, a)
    if rt is not None:
        labels = frozenset(atom for atom, _ in m.result_atoms(a.group))
        values.append(OValue(None, rt, labels, KIND.UNIQUE, True))
    return _canon(values)


def _satisfied(program: Program, state: State, goal: Atom,
               goal_type: Optional[str], target_var: Optional[str]) -> bool:
    for v in state:
        if target_var is not None and v.name != target_var:
            continue
        if goal_type is not None and not program.is_subtype(v.type, goal_type):
            continue
        if goal in v.labels:
            return True
    return False


def _mentions(program: Program, a: OAction, names: tuple[str, ...]) -> set[str]:
    got = set()
    for n in names:
        if a.owner == n or a.member == n:
            got.add(n)
            continue
        if a.kind != "fieldread" and a.method is not None:
            if a.method.is_constructor and a.method.declared_in == n:
                got.add(n)
                continue
            for atom in _produced_atoms(program, a):
                if getattr(atom, "name", None) == n:
                    got.add(n)
    return got


def solve(program: Program, ctx: QueryContext, max_len: int = 6):
    """Minimal solution length within `max_len`, or None if unsolvable.

    Returns (length, action labels of one shortest witness).
    """
    query = ctx.query
    if query.kind == "produce":
        goal_type: Optional[str] = query.produce_type
        target_var = None
        subject_type = query.produce_type
    else:
        target_var = query.target_var
        st = ctx.values.get(target_var or "")
        subject_type = st.type if st else None
        goal_type = None
    goal = program.normalize_goal(query.goal_text, subject_type, ctx.unit)
    universe = action_universe(program)
    actions = _relevant_actions(program, universe, goal, goal_type)
    spans = [s for s in ctx.spans if s.protected_resource]
    with_names = query.with_names

    start = initial_state(ctx)
    if _satisfied(program, start, goal, goal_type, target_var) and not with_names:
        return 0, []
    frontier: list[tuple[State, list[str], frozenset]] = [(start, [], frozenset())]
    seen = {(start, frozenset())}
    for depth in range(1, max_len + 1):
        nxt = []
        for state, path, mentioned in frontier:
            for a in actions:
                for recv, args in _bindings(program, state, a):
                    if _violates_span(program, state, a, recv, args, spans, ctx):
                        continue
                    new_state = _apply(program, state, a, recv, args)
                    new_mentioned = mentioned | frozenset(_mentions(program, a, with_names))
                    key = (new_state, new_mentioned)
                    if key in seen:
                        continue
                    seen.add(key)
                    new_path = path + [a.label()]
                    if _satisfied(program, new_state, goal, goal_type, target_var) \
                            and set(with_names) <= new_mentioned:
                        return depth, new_path
                    nxt.append((new_state, new_path, new_mentioned))
        frontier = nxt
        if not frontier:
            break
    return None
