"""Backward partial-order planning over corpus operations.

A plan is refined from the pair of pseudo-actions start/finish by repeatedly
picking an open precondition, enumerating achievers (existing values first,
then in-plan effects, then fresh corpus actions), adding causal links and
ordering constraints, and resolving threats by promotion or demotion.
Iterative deepening over the real-action count makes the first solution a
shortest one; all tie-breaks are total orders, so planning is deterministic.
What the search reads about corpus actions comes from an `ActionIndex`
built once per Program.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import Frozen, setfield
from .config import SearchConfig
from .effects import QueryContext, name_mutation, paths_comparable, span_hits
from .model import (
    Atom, FieldDecl, MethodSpec, MutationTarget, Program,
    ResourcePath, StateAtom, UniquenessKind,
)

KIND = UniquenessKind

START = 0
FINISH = 1


class PlanFailure(Exception):
    """A query without a plan, with the search's counters and lower bound."""

    def __init__(self, message: str, explored: int = 0, rejected_threats: int = 0,
                 bound: Optional[int] = None):
        super().__init__(message)
        self.message = message
        self.explored = explored
        self.rejected_threats = rejected_threats
        self.bound = bound


class NoSolution(PlanFailure):
    pass


class BudgetExhausted(PlanFailure):
    pass


class WithUnsatisfiable(PlanFailure):
    pass


class CyclicOrder(Exception):
    """Internal invariant breach: the ordering relation acquired a cycle."""


class ActionSpec(Frozen):
    """A corpus operation the planner may add: a constructor, a method call
    or a static field read, with one choice of optional group. It carries
    everything the search reads about it, computed once when
    `action_universe` builds it: the result type and atoms, the subject
    effects and preconditions, the effective summary and its any(T)
    targets, the owner's precedence, the names a with-clause may use to
    select it, and its parameter slots."""

    def __init__(self, program: Program, kind: str,  # "ctor" | "invoke" | "fieldread"
                 owner: str, member: str, group: Optional[int],
                 method: Optional[MethodSpec] = None, fld: Optional[FieldDecl] = None):
        setfield(self, "kind", kind)
        setfield(self, "owner", owner)
        setfield(self, "member", member)
        setfield(self, "group", group)
        setfield(self, "method", method)
        setfield(self, "fld", fld)
        setfield(self, "key", (owner, member, kind, -1 if group is None else group))
        if method is None:
            result_type, atoms, effects = fld.type, [(a, ()) for a in fld.labels], []
            preconditions, summary, slots = (), frozenset(), {}
        else:
            result_type = method.declared_in if method.is_constructor else \
                None if method.return_type == "void" else method.return_type
            atoms = method.result_atoms(group)
            effects = method.subject_effects(group)
            preconditions = tuple(method.subject_preconditions(group))
            summary = program.effective_summary(method)
            slots = {a.name: i for i, a in enumerate(method.args)}
        setfield(self, "result_type", result_type)
        setfield(self, "result_atoms", tuple(atoms))
        setfield(self, "result_atom_set", frozenset(a for a, _ in atoms))
        setfield(self, "effects", tuple(effects))  # (subject, added, residence, removed)
        setfield(self, "preconditions", preconditions)  # (subject, atom)
        setfield(self, "summary", summary)
        # The summary targets rooted at any(T).
        setfield(self, "any_targets", tuple(t for t in summary if t.root_kind == "any"))
        unit = program.units.get(owner)
        setfield(self, "precedence", unit.precedence if unit else 0)
        # A with-clause selects an action by its owner, its member or a
        # label it establishes.
        labels = [a for a, _ in atoms] + [a for _, a, _, _ in effects]
        setfield(self, "names", frozenset({owner, member} |
                                          {a.name for a in labels if hasattr(a, "name")}))
        setfield(self, "slots", slots)  # parameter name -> argument position

    def label(self) -> str:
        g = f" (option {self.group + 1})" if self.group is not None else ""
        if self.kind == "ctor":
            return f"new {self.owner}(){g}"
        if self.kind == "fieldread":
            return f"read {self.owner}.{self.member}"
        return f"{self.owner}.{self.member}(){g}"


class PlanObject:
    """A value in a plan, shared by the plans that do not change it."""

    __slots__ = ("oid", "need_type", "ctx_name", "producer", "actual_type", "kind", "fresh")

    def __init__(self, oid: int, need_type: str, ctx_name: Optional[str] = None,
                 producer: Optional[int] = None,  # aid of the creating action
                 actual_type: Optional[str] = None, kind: UniquenessKind = KIND.UNIQUE,
                 fresh: bool = True):
        self.oid = oid
        self.need_type = need_type
        self.ctx_name = ctx_name
        self.producer = producer
        self.actual_type = actual_type
        self.kind = kind
        self.fresh = fresh

    @property
    def bound(self) -> bool:
        return self.ctx_name is not None or self.producer is not None

    @property
    def type(self) -> str:
        return self.actual_type or self.need_type


class PCond(Frozen):
    """A condition on a plan object; a None atom asks only that it exist."""

    def __init__(self, oid: int, atom: Optional[Atom]):
        setfield(self, "oid", oid)
        setfield(self, "atom", atom)

    def text(self) -> str:
        return self.atom.text() if self.atom is not None else "<exists>"


class CausalLink(Frozen):
    """The producer action establishes the consumer's condition."""

    def __init__(self, producer: int, cond: PCond, consumer: int,
                 residence: tuple[ResourcePath, ...] = ()):
        setfield(self, "producer", producer)
        setfield(self, "cond", cond)
        setfield(self, "consumer", consumer)
        setfield(self, "residence", residence)

    @property
    def threatenable(self) -> bool:
        """Only a state or a residence can be undone by another action."""
        return self.residence != () or isinstance(self.cond.atom, StateAtom)


class PlanAction:
    """A step of a plan, shared by the plans that do not change it."""

    __slots__ = ("aid", "spec", "receiver", "args", "result")

    def __init__(self, aid: int, spec: Optional[ActionSpec], receiver: Optional[int] = None,
                 args: tuple[int, ...] = (), result: Optional[int] = None):
        self.aid = aid
        self.spec = spec
        self.receiver = receiver
        self.args = args
        self.result = result


class Plan:
    """A partial-order plan: actions, objects, orderings, causal links and
    the conditions still open. A clone shares its parent's actions and
    objects; a plan changes one only through a copy put in its place."""

    def __init__(self, actions: Optional[dict[int, PlanAction]] = None,
                 objects: Optional[dict[int, PlanObject]] = None,
                 orderings: Optional[set] = None,
                 later: Optional[dict[int, int]] = None,  # aid -> bitmask of later aids
                 links: Optional[list[CausalLink]] = None,
                 open_conds: Optional[list[tuple[PCond, int]]] = None,
                 next_oid: int = 0, next_aid: int = 2, goal_oid: int = -1):
        self.actions = {} if actions is None else actions
        self.objects = {} if objects is None else objects
        self.orderings = set() if orderings is None else orderings
        self.later = {} if later is None else later
        self.links = [] if links is None else links
        self.open_conds = [] if open_conds is None else open_conds
        self.next_oid = next_oid
        self.next_aid = next_aid
        self.goal_oid = goal_oid

    def clone(self) -> "Plan":
        return Plan(dict(self.actions), dict(self.objects), set(self.orderings),
                    dict(self.later), list(self.links), list(self.open_conds),
                    self.next_oid, self.next_aid, self.goal_oid)

    def real_actions(self) -> list[PlanAction]:
        return [a for aid, a in sorted(self.actions.items())
                if aid not in (START, FINISH)]

    def new_object(self, need_type: str) -> PlanObject:
        obj = PlanObject(self.next_oid, need_type)
        self.objects[self.next_oid] = obj
        self.next_oid += 1
        return obj

    def edit(self, oid: int) -> PlanObject:
        """Object `oid`, copied into this plan so that it may be changed."""
        o = self.objects[oid]
        o = self.objects[oid] = PlanObject(oid, o.need_type, o.ctx_name, o.producer,
                                           o.actual_type, o.kind, o.fresh)
        return o

    def add_ordering(self, before: int, after: int) -> bool:
        """Insert a strict ordering; False, leaving the orderings unchanged,
        when it would close a cycle. The orderings stay acyclic, so only a
        path from `after` back to `before` can close one."""
        if before == after or self.ordered(after, before):
            return False
        self.orderings.add((before, after))
        mask = (1 << after) | self.later.get(after, 0)
        bit = 1 << before
        for aid, m in self.later.items():
            if m & bit:
                self.later[aid] = m | mask
        self.later[before] = self.later.get(before, 0) | mask
        return True

    def ordered(self, before: int, after: int) -> bool:
        """Whether `before` must precede `after` (transitively)."""
        return self.later.get(before, 0) >> after & 1 == 1

    def linearize(self) -> list[PlanAction]:
        """The real actions in topological order, lexicographically least by
        action id."""
        aids = sorted(self.actions)
        preds: dict[int, set[int]] = {aid: set() for aid in aids}
        for a, b in self.orderings:
            if a in preds and b in preds:
                preds[b].add(a)
        out: list[int] = []
        ready = [aid for aid in aids if not preds[aid]]
        while ready:
            ready.sort()
            n = ready.pop(0)
            out.append(n)
            for aid in aids:
                if n in preds[aid]:
                    preds[aid].discard(n)
                    if not preds[aid] and aid not in out and aid not in ready:
                        ready.append(aid)
        if len(out) != len(aids):
            raise CyclicOrder("ordering constraints contain a cycle")
        return [self.actions[aid] for aid in out if aid not in (START, FINISH)]

    def fingerprint(self) -> tuple:
        """Search-progress signature: which operations are in the plan and
        which conditions are still open (with multiplicity)."""
        specs = frozenset(a.spec.key for a in self.actions.values() if a.spec)
        opens = tuple(sorted((c.text(), self.objects[c.oid].need_type)
                             for c, _ in self.open_conds))
        return (specs, opens)


class PlanResult:
    """A closed plan for one query, with its search counters."""

    def __init__(self, plan: Plan, ctx: QueryContext, goal: Atom, bound: int,
                 explored: int, rejected_threats: int, chosen_groups: dict[int, int],
                 solution_targets: frozenset = frozenset()):
        self.plan = plan
        self.ctx = ctx
        self.goal = goal
        self.bound = bound
        self.explored = explored
        self.rejected_threats = rejected_threats
        self.chosen_groups = chosen_groups
        self.solution_targets = solution_targets

    def action_count(self) -> int:
        return len(self.plan.real_actions())


# ---------------------------------------------------------------------------
# Achiever enumeration
# ---------------------------------------------------------------------------

class Candidate(Frozen):
    """One way to achieve an open condition."""

    def __init__(self, kind: str,  # "ctx" | "link" | "merge" | "new"
                 ctx_name: str = "", producer: int = -1, spec: Optional[ActionSpec] = None,
                 via: str = "result",  # how a new action achieves: "result" | "this" | arg name
                 sort_key: tuple = ()):
        setfield(self, "kind", kind)
        setfield(self, "ctx_name", ctx_name)
        setfield(self, "producer", producer)
        setfield(self, "spec", spec)
        setfield(self, "via", via)
        setfield(self, "sort_key", sort_key)


def action_universe(program: Program) -> list[ActionSpec]:
    out: list[ActionSpec] = []
    for cname in sorted(program.units):
        unit = program.units[cname]
        for m in unit.methods:
            for g in m.group_choices():
                if m.is_constructor:
                    if not unit.is_abstract and not unit.is_interface:
                        out.append(ActionSpec(program, "ctor", cname, cname, g, method=m))
                else:
                    # Abstract methods stay callable through a receiver.
                    out.append(ActionSpec(program, "invoke", cname, m.name, g, method=m))
        for f in unit.fields:
            if f.is_static:
                out.append(ActionSpec(program, "fieldread", cname, f.name, None, fld=f))
    return out


class ActionIndex:
    """The action universe of one Program and the search's two lookups
    over it, computed once: atom -> achievers and need type -> producers.
    Each action carries its own facts. Valid because a Program does not
    change once resolution has ended. Type facts (supertypes, lookup
    order) live on the Program, and the search asks `Program.is_subtype`."""

    def __init__(self, program: Program):
        self.program = program
        self.universe = action_universe(program)
        # atom -> (spec, via) in universe order; per spec, "result" comes
        # before its subject effects, as in a scan of the universe.
        self.achievers: dict[Atom, list[tuple[ActionSpec, str]]] = {}
        # need type -> the specs whose result is a subtype, in universe order
        self.producers: dict[str, list[ActionSpec]] = {}
        self.names: set[str] = set(program.units)
        for spec in self.universe:
            self.names |= spec.names
            if spec.result_type is not None:
                for t in program.supertypes(spec.result_type):
                    self.producers.setdefault(t, []).append(spec)
                for atom in spec.result_atom_set:
                    self.achievers.setdefault(atom, []).append((spec, "result"))
            for subject, atom, _, _ in spec.effects:
                self.achievers.setdefault(atom, []).append((spec, subject))
        self._cones: dict[Atom, list] = {}

    def cone(self, goal: Atom) -> list[tuple[object, list]]:
        """The backward cone of `goal` in the delete relaxation, breadth
        first from the goal at 0: (fact, [(spec, the positions of the facts
        it needs)]). A fact is a type name for `exists T` or an atom for
        `holds a`, on whichever object. An action needs the conditions
        `_add_action` opens, but for those on the object it achieves on."""
        cone = self._cones.get(goal)
        if cone is None:
            cone = self._cones[goal] = []
            where = {goal: 0}
            facts: list = [goal]
            for fact in facts:  # grows while it is read
                pairs = [(s, "result") for s in self.producers.get(fact, ())] \
                    if isinstance(fact, str) else self.achievers.get(fact, ())
                ways = []
                for spec, via in pairs:
                    m = spec.method
                    recv = m is not None and not m.is_constructor and not m.is_static
                    needs = [m.declared_in] if recv and via != "this" else []
                    needs += [a.type for a in m.args if a.name != via] if m else []
                    needs += [atom for subject, atom in spec.preconditions
                              if subject == "this" and recv or subject in spec.slots]
                    for n in needs:
                        if n not in where:
                            where[n] = len(facts)
                            facts.append(n)
                    ways.append((spec, tuple(where[n] for n in needs)))
                cone.append((fact, ways))
        return cone

    @classmethod
    def of(cls, program: Program) -> "ActionIndex":
        if program.action_index is None:
            program.action_index = cls(program)
        return program.action_index


def can_substitute(program: Program, value_type: str, value_labels: set,
                   need_type: str, need_labels: set) -> bool:
    """An existing value stands in for a requirement when its type is a
    subtype and its labels are a superset."""
    return program.is_subtype(value_type, need_type) and need_labels <= set(value_labels)


# Uniqueness kinds from the weakest promise to the strongest.
KIND_STRENGTH = {KIND.NORMAL: 0, KIND.MAINTAIN_RETAINS: 1, KIND.MAINTAIN: 2,
                 KIND.UNIQUE_RETAINS: 3, KIND.UNIQUE: 4}


def useful(candidate: tuple[str, frozenset, UniquenessKind, frozenset],
           existing: list[tuple[str, frozenset, UniquenessKind, frozenset]]) -> bool:
    """Whether a new value offers anything over the existing ones: a new
    type, a new type/label combination, a stronger uniqueness kind, or a
    residence set other than the combination's (a first, smaller or
    different one)."""
    ctype, clabels, ckind, cres = candidate
    if not any(e[0] == ctype for e in existing):
        return True
    for etype, elabels, ekind, eres in existing:
        if etype == ctype and clabels <= elabels:
            if KIND_STRENGTH[ckind] > KIND_STRENGTH[ekind]:
                return True  # stronger kind for an existing combination
            return bool(cres) and cres != eres
    return True  # new type/label combination


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class Planner:
    def __init__(self, program: Program, ctx: QueryContext, cfg: SearchConfig):
        self.program = program
        self.ctx = ctx
        self.cfg = cfg
        self.index = ActionIndex.of(program)
        self.explored = 0
        self.rejected_threats = 0
        self.bound: Optional[int] = None  # set by `_solve`
        self.enclosing_summary = program.effective_summary(ctx.method)
        self.enclosing_var_types = {a.name: a.type for a in ctx.method.args}
        self.spans = [s for s in ctx.spans if s.protected_resource]
        self.goal = ctx.query.goal
        self._check_with_names()
        # Candidates keyed by everything they depend on that is not fixed
        # for the query (`_context_candidates`, `_fresh_candidates`).
        self._context: dict[tuple, list[Candidate]] = {}
        self._fresh: dict[tuple, list[Candidate]] = {}
        self._existing = [
            (st.type, frozenset(st.labels), st.kind,
             frozenset(p for paths in st.residence.values() for p in paths))
            for st in ctx.values.values() if not st.consumed]

    # -- setup -------------------------------------------------------------

    def _check_with_names(self) -> None:
        for name in self.ctx.query.with_names:
            if name in self.index.names:
                continue
            raise WithUnsatisfiable(
                f"with-clause element '{name}' matches nothing in the corpus")

    def initial_plan(self) -> Plan:
        plan = Plan()
        plan.actions[START] = PlanAction(START, None)
        plan.actions[FINISH] = PlanAction(FINISH, None)
        plan.add_ordering(START, FINISH)
        query = self.ctx.query
        if query.kind == "produce":
            goal_obj = plan.new_object(query.produce_type or "Object")
        else:
            goal_obj = plan.new_object("Object")
            self._bind_ctx(plan, goal_obj.oid, query.target_var or "")
        plan.goal_oid = goal_obj.oid
        plan.open_conds.append((PCond(goal_obj.oid, self.goal), FINISH))
        return plan

    def _bind_ctx(self, plan: Plan, oid: int, name: str) -> None:
        st = self.ctx.values.get(name)
        obj = plan.edit(oid)
        obj.ctx_name = name
        obj.actual_type = st.type if st else obj.need_type
        obj.kind = st.kind if st else KIND.NORMAL
        obj.fresh = False

    # -- public entry -----------------------------------------------------------

    def plan(self) -> PlanResult:
        plan = self._solve()
        groups = {a.aid: a.spec.group for a in plan.real_actions()
                  if a.spec and a.spec.group is not None}
        return PlanResult(plan, self.ctx, self.goal, self.bound,
                          self.explored, self.rejected_threats, groups,
                          frozenset(self.visible_targets(plan)))

    def _solve(self) -> Plan:
        """The first solution of the shallowest depth that has one. No
        solution is shorter than the lower bound, so deepening starts
        there; each depth's search does not depend on the ones before."""
        limit = self.cfg.max_plan_length
        self.bound = self.lower_bound()
        if self.bound is None:
            reason = f"no solution: '{self.goal.text()}' is unreachable"
        elif self.bound > limit:
            reason = f"no solution within length {limit}: needs at least {self.bound} new actions"
        else:
            for depth in range(self.bound, limit + 1):
                for solution in self._dfs(self.initial_plan(), depth, frozenset()):
                    return solution
            reason = f"no solution within length {limit}"
        raise NoSolution(f"{reason} (explored {self.explored} plans)",
                         self.explored, self.rejected_threats, self.bound)

    def lower_bound(self) -> Optional[int]:
        """At least how many new actions any solution needs, or None when
        the goal is unreachable, over `ActionIndex.cone` with the in-scope
        values' supertypes and labels at cost 0. It is the larger of `h_max`
        (Bonet and Geffner, 2001), the costliest chain of achievers, and the
        number of landmarks with pairwise disjoint achievers, each of which
        needs an action of its own. The relaxation leaves out only what can
        stop the search, so neither exceeds a solution's length."""
        zero: set = set()
        for st in self.ctx.values.values():
            zero |= self.program.supertypes(st.type)
            zero |= st.labels
        cone = self.index.cone(self.goal)
        inf = float("inf")
        cost = [0 if fact in zero else inf for fact, _ in cone]
        changed = True
        while changed:  # a fixpoint, so that a cycle cannot fix a cost too high
            changed = False
            for i in reversed(range(len(cone))):  # the goal's needs first
                if cost[i]:
                    best = min((1 + max(map(cost.__getitem__, needs), default=0)
                                for _, needs in cone[i][1]), default=inf)
                    if best < cost[i]:
                        cost[i], changed = best, True
        if cost[0] == inf:
            return None
        # A fact that no in-scope value gives, and that the goal needs through
        # every achiever it may have, is a landmark: some action achieves it.
        landmarks: dict[int, frozenset] = {}
        work = [0]
        while work:
            i = work.pop()
            if i in landmarks or cost[i] == 0:
                continue
            live = [(s, needs) for s, needs in cone[i][1]
                    if all(cost[n] < inf for n in needs)]
            landmarks[i] = frozenset(s for s, _ in live)
            work.extend(set(live[0][1]).intersection(*(needs for _, needs in live)))
        taken: set = set()
        count = 0
        # Fewest achievers first, ties by the fact's text: never set order.
        for i in sorted(landmarks, key=lambda i: (len(landmarks[i]), repr(cone[i][0]))):
            if taken.isdisjoint(landmarks[i]):
                taken |= landmarks[i]
                count += 1
        return max(cost[0], count)

    # -- search ------------------------------------------------------------------

    def choose_precondition(self, plan: Plan, depth_left: int):
        """Pick the open precondition to work on: zero-candidate conditions
        first (to fail fast), then fewest candidates, ties broken by the
        deterministic condition ordering. Only the chosen condition's
        candidates are built and ranked."""
        best = None
        for i, (cond, consumer) in enumerate(plan.open_conds):
            ways = self._ways(plan, cond, depth_left)
            n = len(ways[0]) + len(ways[1]) + len(ways[2])
            key = (n != 0, n, cond.text(), cond.oid, consumer)
            if best is None or key < best[0]:
                best = (key, i, ways)
        return best[1], self._ranked(*best[2])

    def _dfs(self, plan: Plan, depth_left: int, branch: frozenset) -> Iterator[Plan]:
        if not plan.open_conds:
            if self._solution_ok(plan):
                yield plan
            return
        idx, cands = self.choose_precondition(plan, depth_left)
        if not cands:
            return  # fail quickly and backtrack
        cond, consumer = plan.open_conds[idx]
        for cand in cands:
            if self.explored >= self.cfg.plan_budget:
                raise BudgetExhausted(
                    f"budget of {self.cfg.plan_budget} explored plans exhausted",
                    self.explored, self.rejected_threats, self.bound)
            successor = self._apply(plan, idx, cond, consumer, cand)
            if successor is None:
                continue
            self.explored += 1
            fp = successor.fingerprint()
            if detect_stagnation(branch, fp):
                continue
            spent = 1 if cand.kind == "new" else 0
            yield from self._dfs(successor, depth_left - spent, branch | {fp})

    # -- candidate enumeration ---------------------------------------------------

    def _candidates(self, plan: Plan, cond: PCond, consumer: int,
                    depth_left: int) -> list[Candidate]:
        return self._ranked(*self._ways(plan, cond, depth_left))

    def _ways(self, plan: Plan, cond: PCond, depth_left: int) -> tuple:
        """The achievers of `cond`, unranked: the memoised context
        candidates, (kind, ctx_name, producer) of those found in the plan,
        and the memoised fresh candidates."""
        obj = plan.objects[cond.oid]
        context: list[Candidate] = []
        found: list[tuple[str, str, int]] = []

        if obj.ctx_name is not None:
            st = self.ctx.values.get(obj.ctx_name)
            if cond.atom is None or (st is not None and cond.atom in st.labels):
                found.append(("ctx", obj.ctx_name, -1))
        elif obj.producer is not None:
            atoms = plan.actions[obj.producer].spec.result_atom_set
            if cond.atom is None or cond.atom in atoms:
                found.append(("link", "", obj.producer))
        else:
            context = self._context_candidates(obj.need_type, cond.atom)

        merge, atom = not obj.bound, cond.atom
        if not merge and atom is None:
            return context, found, []  # nothing else achieves a bound value's existence
        fresh = self._fresh_candidates(obj, atom) if depth_left > 0 else []
        # Merges and links rank apart, so one pass in aid order (the order
        # actions are added in) finds both in their ranked order.
        for aid, a in plan.actions.items():
            spec = a.spec
            if spec is None:
                continue
            # Reuse a value the plan already creates.
            if merge and a.result is not None and spec.result_type is not None and \
                    self.program.is_subtype(spec.result_type, obj.need_type) and \
                    (atom is None or atom in spec.result_atom_set):
                found.append(("merge", "", aid))
            # In-plan actions adding the atom to this very object.
            if atom is not None:
                for subject, added, _, _ in spec.effects:
                    if added == atom and cond.oid == (
                            a.receiver if subject == "this" else self._arg_oid(a, subject)):
                        found.append(("link", "", aid))
        return context, found, fresh

    def _ranked(self, context: list[Candidate], found: list[tuple[str, str, int]],
                fresh: list[Candidate]) -> list[Candidate]:
        out = context + [self._mk(Candidate(*way)) for way in found] + fresh
        out.sort(key=lambda c: c.sort_key)
        return out

    def _context_candidates(self, need_type: str, atom: Optional[Atom]) -> list[Candidate]:
        """The "ctx" candidates for an unbound object: in-scope values that
        can stand in for it. They depend only on the key and the query, so
        they are computed once per key."""
        key = (need_type, atom)
        hit = self._context.get(key)
        if hit is None:
            hit = self._context[key] = []
            need_labels = {atom} if atom is not None else set()
            offered: list[tuple[str, frozenset]] = []
            for name, st in sorted(self.ctx.values.items(),
                                   key=lambda kv: kv[1].declared_order):
                if st.consumed or (st.variable == "this" and st.fresh):
                    continue
                if not can_substitute(self.program, st.type, st.labels,
                                      need_type, need_labels):
                    continue
                sig = (st.type, frozenset(st.labels))
                if sig in offered:
                    continue  # equivalent values: earliest declaration wins
                offered.append(sig)
                hit.append(self._mk(Candidate("ctx", ctx_name=name)))
        return hit

    def _fresh_candidates(self, obj: PlanObject, atom: Optional[Atom]) -> list[Candidate]:
        """The "new" candidates for `atom` on `obj`: corpus actions that
        achieve it, in universe order, kept when span, summary policy and
        precedence admit them. All else they depend on is fixed for the
        query, so they are computed once per key."""
        key = (obj.bound, obj.need_type, obj.type, atom)
        hit = self._fresh.get(key)
        if hit is None:
            hit = self._fresh[key] = self._filter_precedence(
                [self._mk(Candidate("new", spec=spec, via=via))
                 for spec, via in self._achievers(obj, atom)
                 if self._span_admits(spec) and self._policy_admits(spec)])
        return hit

    def _arg_oid(self, action: PlanAction, subject: str) -> Optional[int]:
        i = action.spec.slots.get(subject)
        return action.args[i] if i is not None and i < len(action.args) else None

    def _achievers(self, obj: PlanObject, atom: Optional[Atom]) -> list[tuple[ActionSpec, str]]:
        """(spec, via) pairs by which a new action achieves `atom` on `obj`
        (its existence when `atom` is None), in universe order: via
        "result" for the returned value, "this" or an argument name for a
        subject effect."""
        index = self.index
        if atom is None:
            if obj.bound:
                return []
            return [(s, "result") for s in index.producers.get(obj.need_type, ())
                    if self._useful_result(s)]
        is_subtype = self.program.is_subtype
        ways: list[tuple[ActionSpec, str]] = []
        for spec, via in index.achievers.get(atom, ()):
            if via == "result":
                ok = not obj.bound and is_subtype(spec.result_type, obj.need_type) \
                    and self._useful_result(spec)
            elif via == "this" or via in spec.slots:
                formal = spec.method.declared_in if via == "this" else \
                    spec.method.args[spec.slots[via]].type
                ok = is_subtype(obj.type, formal) or is_subtype(formal, obj.type)
            else:
                ok = False
            if ok:
                ways.append((spec, via))
        return ways

    def _useful_result(self, spec: ActionSpec) -> bool:
        residence: list[ResourcePath] = []
        for _, res in spec.result_atoms:
            residence.extend(res)
        return useful((spec.result_type, spec.result_atom_set, KIND.UNIQUE,
                       frozenset(residence)), self._existing)

    def _filter_precedence(self, cands: list[Candidate]) -> list[Candidate]:
        """Keep the fresh actions of the highest precedence tier."""
        def prec(c: Candidate) -> int:
            return max(c.spec.precedence,
                       self.cfg.api_precedence.get(c.spec.owner, 0))

        if not cands:
            return cands
        top = max(prec(c) for c in cands)
        return [c for c in cands if prec(c) == top]

    def _mk(self, c: Candidate) -> Candidate:
        with_names = self.ctx.query.with_names
        mentions = 1
        if with_names and c.spec is not None:
            names = {c.spec.owner, c.spec.member}
            names.update(a.name for a in c.spec.result_atom_set if hasattr(a, "name"))
            if any(n in names for n in with_names):
                mentions = 0
        kind_rank = {"ctx": 0, "link": 0, "merge": 1, "new": 2}[c.kind]
        if c.kind == "new":
            locality = self._locality(c.spec)
            detail = (locality, c.spec.key, c.via)
        elif c.kind == "ctx":
            st = self.ctx.values.get(c.ctx_name)
            detail = (st.declared_order if st else 0, c.ctx_name, "")
        else:
            detail = (c.producer, "", "")
        return Candidate(c.kind, c.ctx_name, c.producer, c.spec, c.via,
                         (mentions, kind_rank, detail))

    def _locality(self, spec: ActionSpec) -> int:
        if spec.owner == self.ctx.unit:
            return 0 if spec.kind == "fieldread" else 1
        return 2

    # -- span and summary-policy filters (candidate level) --------------------------

    def _span_admits(self, spec: ActionSpec) -> bool:
        """Whether an action's any(T) mutations spare every span. Targets
        rooted at plan objects are checked once the plan is closed."""
        if not self.spans:
            return True
        return not any(self._target_hits_span(t)
                       for t in spec.any_targets)

    def _policy_admits(self, spec: ActionSpec) -> bool:
        if self.cfg.summary_rewrite_policy == "rewrite":
            return True
        for t in spec.any_targets:
            if not any(self.program.target_covers(d, t, self.ctx.unit,
                                                  self.enclosing_var_types)
                       for d in self.enclosing_summary):
                return False
        return True

    # -- successor construction ------------------------------------------------------

    def _apply(self, plan: Plan, open_idx: int, cond: PCond, consumer: int,
               cand: Candidate) -> Optional[Plan]:
        p = plan.clone()
        del p.open_conds[open_idx]
        if cand.kind == "ctx":
            if p.objects[cond.oid].ctx_name is None:
                self._bind_ctx(p, cond.oid, cand.ctx_name)
            st = self.ctx.values.get(cand.ctx_name)
            residence = tuple(st.residence.get(cond.atom, ())) if st and cond.atom else ()
            return self._commit_link(p, CausalLink(START, cond, consumer, residence))
        if cand.kind == "link":
            residence = self._effect_residence(p.actions[cand.producer].spec, cond.atom)
            if not p.add_ordering(cand.producer, consumer):
                return None
            return self._commit_link(p, CausalLink(cand.producer, cond, consumer, residence))
        if cand.kind == "merge":
            producer = p.actions[cand.producer]
            keep = producer.result
            self._merge_objects(p, cond.oid, keep)
            cond = PCond(keep, cond.atom)
            residence = self._effect_residence(producer.spec, cond.atom)
            if not p.add_ordering(cand.producer, consumer):
                return None
            return self._commit_link(p, CausalLink(cand.producer, cond, consumer, residence))
        return self._add_action(p, cond, consumer, cand)

    def _effect_residence(self, spec: Optional[ActionSpec],
                          atom: Optional[Atom]) -> tuple[ResourcePath, ...]:
        if spec is None or atom is None:
            return ()
        for a, res in spec.result_atoms:
            if a == atom:
                return tuple(res)
        for _, a, res, _ in spec.effects:
            if a == atom:
                return tuple(res)
        return ()

    def _merge_objects(self, p: Plan, old: int, keep: int) -> None:
        def swap(oid: Optional[int]) -> Optional[int]:
            return keep if oid == old else oid

        for aid, a in p.actions.items():
            if old == a.receiver or old == a.result or old in a.args:
                p.actions[aid] = PlanAction(aid, a.spec, swap(a.receiver),
                                            tuple(swap(o) for o in a.args), swap(a.result))
        p.links = [CausalLink(l.producer, PCond(swap(l.cond.oid), l.cond.atom),
                              l.consumer, l.residence) for l in p.links]
        p.open_conds = [(PCond(swap(c.oid), c.atom), consumer)
                        for c, consumer in p.open_conds]
        if p.goal_oid == old:
            p.goal_oid = keep
        del p.objects[old]

    def _add_action(self, p: Plan, cond: PCond, consumer: int,
                    cand: Candidate) -> Optional[Plan]:
        spec = cand.spec
        aid = p.next_aid
        p.next_aid += 1
        action = PlanAction(aid, spec)
        p.actions[aid] = action
        if not (p.add_ordering(START, aid) and p.add_ordering(aid, FINISH)):
            return None

        m = spec.method
        if spec.kind == "fieldread":
            result_obj = p.edit(cond.oid)
            result_obj.producer = aid
            result_obj.actual_type = spec.fld.type
            result_obj.kind = KIND.NORMAL
            result_obj.fresh = False
            action.result = cond.oid
        else:
            # Slot objects: receiver, args, result.
            recv_obj: Optional[PlanObject] = None
            if not m.is_constructor and not m.is_static:
                if cand.via == "this":
                    recv_obj = p.objects[cond.oid]
                    if self.program.is_subtype(m.declared_in, recv_obj.need_type):
                        recv_obj = p.edit(cond.oid)
                        recv_obj.need_type = m.declared_in
                else:
                    recv_obj = p.new_object(m.declared_in)
                action.receiver = recv_obj.oid
            arg_objs: list[PlanObject] = []
            for a in m.args:
                if cand.via == a.name:
                    obj = p.objects[cond.oid]
                    if self.program.is_subtype(a.type, obj.need_type):
                        obj = p.edit(cond.oid)
                        obj.need_type = a.type
                    arg_objs.append(obj)
                else:
                    arg_objs.append(p.new_object(a.type))
            action.args = tuple(o.oid for o in arg_objs)
            rt = spec.result_type
            if rt is not None:
                if cand.via == "result":
                    result_obj = p.edit(cond.oid)
                    result_obj.producer = aid
                    result_obj.actual_type = rt
                    result_obj.kind = KIND.UNIQUE
                    result_obj.fresh = True
                    action.result = result_obj.oid
                else:
                    result_obj = p.new_object(rt)
                    result_obj.producer = aid
                    result_obj.actual_type = rt
                    action.result = result_obj.oid
            # New open preconditions: existence plus invariant atoms.
            if recv_obj is not None:
                p.open_conds.append((PCond(recv_obj.oid, None), aid))
            for obj in arg_objs:
                p.open_conds.append((PCond(obj.oid, None), aid))
            for subject, atom in spec.preconditions:
                if subject == "this" and recv_obj is not None:
                    p.open_conds.append((PCond(recv_obj.oid, atom), aid))
                elif subject in spec.slots:
                    p.open_conds.append((PCond(arg_objs[spec.slots[subject]].oid, atom), aid))

        if not p.add_ordering(aid, consumer):
            return None
        residence = self._effect_residence(spec, cond.atom)
        return self._commit_link(p, CausalLink(aid, cond, consumer, residence),
                                 new_action=aid)

    # -- threats -----------------------------------------------------------------

    def _commit_link(self, p: Plan, link: CausalLink,
                     new_action: Optional[int] = None) -> Optional[Plan]:
        p.links.append(link)
        # The new link against every action, and the new action (if any)
        # against every link.
        if link.threatenable:
            for a in p.actions.values():
                if a.spec is not None and not self._resolve_threat(p, a, link):
                    self.rejected_threats += 1
                    return None
        if new_action is not None:
            b = p.actions[new_action]
            for other in p.links:
                if other.threatenable and not self._resolve_threat(p, b, other):
                    self.rejected_threats += 1
                    return None
        return p

    def _resolve_threat(self, p: Plan, b: PlanAction, link: CausalLink) -> bool:
        if b.aid in (link.producer, link.consumer):
            return True
        if not self._threatens(p, b, link):
            return True
        # Promotion: B before the producer; demotion: B after the consumer.
        return p.add_ordering(b.aid, link.producer) or \
            p.add_ordering(link.consumer, b.aid)

    def _threatens(self, p: Plan, b: PlanAction, link: CausalLink) -> bool:
        spec = b.spec
        cond = link.cond
        # State removal: a transition out of the condition's state on the
        # same object.
        if isinstance(cond.atom, StateAtom):
            for subject, _, _, removed in spec.effects:
                if removed != cond.atom:
                    continue
                soid = b.receiver if subject == "this" else self._arg_oid(b, subject)
                if soid == cond.oid:
                    return True
        # Residence mutation.
        if not link.residence:
            return False
        holder = p.objects.get(cond.oid)
        if holder is None:
            return False
        for t in spec.summary:
            toid: Optional[int] = None
            if t.root_kind == "this":
                toid = b.receiver
            elif t.root_kind == "var":
                toid = self._arg_oid(b, t.root_name)
            if toid is None and t.root_kind != "any":
                continue
            if t.root_kind == "any":
                if holder.fresh or holder.kind.unshared:
                    continue
                if not self.program.is_subtype(holder.type, t.root_name):
                    continue
            elif toid != cond.oid:
                tobj = p.objects.get(toid)
                if tobj is None:
                    continue
                if tobj.fresh or tobj.kind.unshared or holder.fresh or holder.kind.unshared:
                    continue
                if not (self.program.is_subtype(tobj.type, holder.type)
                        or self.program.is_subtype(holder.type, tobj.type)):
                    continue
            for res in link.residence:
                if paths_comparable(self.program, holder.type, t.path, res):
                    return True
        return False

    # -- solution validation -------------------------------------------------------

    def _solution_ok(self, plan: Plan) -> bool:
        for obj in plan.objects.values():
            if not obj.bound:
                return False
        if not self._with_satisfied(plan):
            return False
        visible = self.visible_targets(plan)
        if self.cfg.summary_rewrite_policy == "reject":
            var_types = dict(self.enclosing_var_types)
            missing = self.program.summary_covers(
                self.enclosing_summary, frozenset(visible), self.ctx.unit, var_types)
            if missing:
                return False
        for action in plan.real_actions():
            for t in self._action_targets(plan, action, for_span=True):
                if self._target_hits_span(t):
                    return False
        try:
            plan.linearize()
        except CyclicOrder:
            return False
        return True

    def _with_satisfied(self, plan: Plan) -> bool:
        wanted = set(self.ctx.query.with_names)
        return not wanted or wanted <= set().union(
            *(a.spec.names for a in plan.real_actions()))

    def visible_targets(self, plan: Plan) -> set[MutationTarget]:
        out: set[MutationTarget] = set()
        for action in plan.real_actions():
            out.update(self._action_targets(plan, action))
        return out

    def _action_targets(self, plan: Plan, action: PlanAction,
                        for_span: bool = False) -> set[MutationTarget]:
        """Mutations of one plan step, named from the enclosing method by
        `effects.name_mutation`, as the checker names the same call written
        by hand. Plan-created values are brand new and alias nothing, so
        they are left out; a context value is named from its state at the
        query site."""
        out: set[MutationTarget] = set()
        spec = action.spec
        for t in spec.summary:
            if t.root_kind == "this":
                oid, formal_type = action.receiver, None
            elif t.root_kind == "var" and t.root_name in spec.slots:
                idx = spec.slots[t.root_name]
                oid = action.args[idx] if idx < len(action.args) else None
                formal_type = spec.method.args[idx].type
            else:
                out.add(t)
                continue
            obj = plan.objects.get(oid)
            if obj is None or obj.ctx_name is None:
                continue
            st = self.ctx.values.get(obj.ctx_name)
            target = None if st is None else name_mutation(
                self.ctx.method, st, t.path, formal_type, for_span)
            if target is not None:
                out.add(target)
        return out

    def _target_hits_span(self, t: MutationTarget) -> bool:
        return any(span_hits(self.program, self.ctx.unit, self.ctx.values,
                             self.spans, t))


def detect_stagnation(branch: frozenset, fingerprint: tuple) -> bool:
    """A repeat of an earlier fingerprint on the same branch means the search
    is re-creating conditions without progress."""
    return fingerprint in branch


def plan_query(program: Program, ctx: QueryContext, cfg: SearchConfig) -> PlanResult:
    return Planner(program, ctx, cfg).plan()


# ---------------------------------------------------------------------------
# Plan explanation
# ---------------------------------------------------------------------------

def object_name(result: PlanResult, oid: Optional[int]) -> str:
    if oid is None:
        return "-"
    obj = result.plan.objects[oid]
    if obj.ctx_name:
        return obj.ctx_name
    return f"o{obj.oid}:{obj.type}"


def action_title(result: PlanResult, aid: int) -> str:
    if aid == START:
        return "start"
    if aid == FINISH:
        return "finish"
    a = result.plan.actions[aid]
    return a.spec.label()


def render_plan(result: PlanResult) -> str:
    plan = result.plan
    lines = [f"goal: {result.goal.text()}"]
    lines.append(f"actions ({len(plan.real_actions())}):")
    for a in plan.linearize():
        recv = object_name(result, a.receiver)
        args = ", ".join(object_name(result, o) for o in a.args)
        res = object_name(result, a.result)
        extra = f" -> {res}" if a.result is not None else ""
        grp = ""
        if a.spec.group is not None:
            grp = f" [option {a.spec.group + 1}]"
        lines.append(f"  [{a.aid}] {a.spec.label()}{grp} recv={recv} args=({args}){extra}")
    lines.append("causal links:")
    for l in sorted(plan.links, key=lambda l: (l.producer, l.consumer, l.cond.text())):
        lines.append(f"  {action_title(result, l.producer)} --{l.cond.text()}--> "
                     f"{action_title(result, l.consumer)}")
    lines.append("orderings:")
    for a, b in sorted(plan.orderings):
        lines.append(f"  {action_title(result, a)} < {action_title(result, b)}")
    lines.append(f"lower bound: {result.bound}")
    lines.append(f"explored plans: {result.explored}")
    lines.append(f"rejected threats: {result.rejected_threats}")
    return "\n".join(lines)


def render_dot(result: PlanResult) -> str:
    """Graph description: square action nodes, rounded condition nodes,
    dashed edges for the sequential constraints."""
    plan = result.plan
    lines = ["digraph plan {"]
    for aid in sorted(plan.actions):
        lines.append(f'  a{aid} [shape=box label="{action_title(result, aid)}"];')
    cond_ids: dict[str, str] = {}
    for l in sorted(plan.links,
                    key=lambda l: (l.producer, l.consumer, l.cond.text())):
        label = f"{l.cond.text()} @ {object_name(result, l.cond.oid)}"
        cond_ids.setdefault(label, f"c{len(cond_ids)}")
    for label, cid in cond_ids.items():
        lines.append(f'  {cid} [shape=box style=rounded label="{label}"];')
    for l in sorted(plan.links, key=lambda l: (l.producer, l.consumer, l.cond.text())):
        label = f"{l.cond.text()} @ {object_name(result, l.cond.oid)}"
        cid = cond_ids[label]
        lines.append(f"  a{l.producer} -> {cid};")
        lines.append(f"  {cid} -> a{l.consumer};")
    for a, b in sorted(plan.orderings):
        lines.append(f"  a{a} -> a{b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
