"""The per-call walks that `Program`'s type lookups replaced, the member
scans that `Program.declared_method` replaced, and the derivation of the
facts an `ActionSpec` now carries, kept as the reference for the
equivalence tests. Each reads only `program.units` (and the action) and
walks again on every call; they must not be used outside the tests."""

from poplar.model import OBJECT, PRIMITIVES, this_target


def supertype_chain(program, name):
    chain = []
    cur = name
    seen = set()
    while cur is not None and cur not in seen:
        seen.add(cur)
        chain.append(cur)
        u = program.units.get(cur)
        cur = u.superclass if u else None
    return chain


def all_supertypes(program, name):
    out = set()
    work = [name]
    while work:
        t = work.pop()
        if t in out:
            continue
        out.add(t)
        u = program.units.get(t)
        if u is not None:
            if u.superclass:
                work.append(u.superclass)
            work.extend(u.interfaces)
    if name not in PRIMITIVES:
        out.add(OBJECT)
    return out


def is_subtype(program, sub, sup):
    if sub == sup:
        return True
    if sub in PRIMITIVES or sup in PRIMITIVES:
        return False
    if sub == "null":
        return True
    return sup in all_supertypes(program, sub)


def visible_scopes(program, type_name):
    ordered = supertype_chain(program, type_name)
    rest = sorted(all_supertypes(program, type_name) - set(ordered))
    return ordered + rest


def find_field(program, type_name, field_name):
    for t in supertype_chain(program, type_name):
        u = program.units.get(t)
        if u is None:
            continue
        for f in u.fields:
            if f.name == field_name:
                return f
    return None


def find_method(program, type_name, method_name, argc):
    for t in supertype_chain(program, type_name):
        u = program.units.get(t)
        if u is None:
            continue
        for m in u.methods:
            if m.name == method_name and not m.is_constructor and len(m.args) == argc:
                return m
    for t in sorted(all_supertypes(program, type_name)):
        u = program.units.get(t)
        if u is None or not u.is_interface:
            continue
        for m in u.methods:
            if m.name == method_name and len(m.args) == argc:
                return m
    return None


def overridden_method(program, method):
    u = program.units.get(method.declared_in)
    if u is None or method.is_constructor:
        return None
    start = u.superclass
    candidates = [] if start is None else supertype_chain(program, start)
    for t in candidates:
        sup = program.units.get(t)
        if sup is None:
            continue
        for m in sup.methods:
            if m.name == method.name and len(m.args) == len(method.args) \
                    and not m.is_constructor:
                return m
    return None


def resource_nodes(program, type_name):
    out = {}

    def walk(prefix, node):
        path = prefix + (node.name,)
        out.setdefault(path, node)
        for c in node.children:
            walk(path, c)

    for t in reversed(supertype_chain(program, type_name)):
        u = program.units.get(t)
        if u is None:
            continue
        for node in u.resources:
            walk((), node)
    for t in sorted(all_supertypes(program, type_name)):
        u = program.units.get(t)
        if u is not None and u.is_interface:
            for node in u.resources:
                walk((), node)
    return out


def managed_fields(program, type_name):
    out = {}
    for t in reversed(supertype_chain(program, type_name)):
        u = program.units.get(t)
        if u is None:
            continue
        for f in u.fields:
            if f.managed:
                out[f.name] = f
    return out


def resolve_resource_path(program, type_name, path):
    if not path:
        return True
    if path in resource_nodes(program, type_name):
        return True
    fields = managed_fields(program, type_name)
    if path[0] in fields:
        return resolve_resource_path(program, fields[path[0]].type, path[1:])
    return False


def target_parent(program, target, root_type):
    if not target.path:
        return None
    prefix = target.path[:-1]
    last = target.path[-1]
    owner = root_type
    for seg in prefix:
        fields = managed_fields(program, owner)
        if seg in fields:
            owner = fields[seg].type
    fld = managed_fields(program, owner).get(last)
    if fld is None:
        fld = find_field(program, owner, last)
    if fld is not None:
        return target.with_path(prefix + tuple(fld.managed_resource or ()))
    return target.with_path(prefix)


def path_ancestors(program, root_type, path):
    """The paths `target_ancestors` walked: `path`, then each ancestor."""
    out = []
    seen = set()
    cur = this_target(path)
    while cur is not None and cur not in seen:
        seen.add(cur)
        out.append(cur.path)
        cur = target_parent(program, cur, root_type)
    return out


def find_member(program, rec):
    """The method `verify-upgrade` checked an assumption record against:
    the first of the record's kind whose signature text is the record's."""
    unit = program.units.get(rec.type)
    if unit is None:
        return None
    for m in unit.methods:
        if rec.kind == "ctor" and not m.is_constructor:
            continue
        if rec.kind == "invoke" and (m.is_constructor or m.name != rec.member):
            continue
        if m.signature() == rec.signature:
            return m
    return None


def find_target_method(program, ex):
    """The method an external overlays: the first of its kind and name
    with exactly its parameter types."""
    unit = program.units[ex.method.declared_in]
    want = [a.type for a in ex.method.args]
    pool = [m for m in unit.methods
            if m.is_constructor == ex.method.is_constructor
            and (m.is_constructor or m.name == ex.method.name)]
    for m in pool:
        if [a.type for a in m.args] == want:
            return m
    return None


def spec_result_type(spec):
    if spec.kind == "fieldread":
        return spec.fld.type
    if spec.method.is_constructor:
        return spec.method.declared_in
    rt = spec.method.return_type
    return None if rt == "void" else rt


def spec_result_atoms(spec):
    if spec.kind == "fieldread":
        return [(a, ()) for a in spec.fld.labels]
    return spec.method.result_atoms(spec.group)


def spec_subject_effects(spec):
    if spec.kind == "fieldread":
        return []
    return spec.method.subject_effects(spec.group)


def spec_facts(program, spec):
    """What the search reads about one action, by field name, derived as
    the planner derived it before an action carried its own facts."""
    m = spec.method
    atoms = tuple(spec_result_atoms(spec))
    effects = tuple(spec_subject_effects(spec))
    summary = program.effective_summary(m) if m else frozenset()
    unit = program.units.get(spec.owner)
    labels = [a for a, _ in atoms] + [a for _, a, _, _ in effects]
    return {
        "key": (spec.owner, spec.member, spec.kind, -1 if spec.group is None else spec.group),
        "result_type": spec_result_type(spec),
        "result_atoms": atoms,
        "result_atom_set": frozenset(a for a, _ in atoms),
        "effects": effects,
        "preconditions": tuple(m.subject_preconditions(spec.group)) if m else (),
        "summary": summary,
        "any_targets": tuple(t for t in summary if t.root_kind == "any"),
        "precedence": unit.precedence if unit else 0,
        "names": frozenset({spec.owner, spec.member} |
                           {a.name for a in labels if hasattr(a, "name")}),
        "slots": {a.name: i for i, a in enumerate(m.args)} if m else {},
    }
