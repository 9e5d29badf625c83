"""The per-call walks that `Program`'s type lookups replaced, kept as the
reference for the equivalence test. Each reads only `program.units` and
walks the hierarchy again on every call; they must not be used outside
the tests."""

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
