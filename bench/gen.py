"""Seeded workload generator with known answers.

Every workload is a source tree (relative path -> text) plus the CLI
invocations to run on it and, for each invocation, the answer it must give:
exit code, diagnostic set, plan length per query, classes present in the
`synth` output and the `verify-upgrade` verdict per query.  The answers come
from how the generator built the tree, never from running the toolchain.

The seed only draws names and the order of families; the amount of work is
the same for every seed, so timings from different seeds are comparable.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

DEFAULT_MAX_LEN = 12


@dataclass
class Expect:
    """One CLI invocation and the answer it must give.

    `diagnostics` holds (path, line, code, rule) tuples, where rule is the
    first word of the message (`NoSolution`, `SummaryTooNarrow`, `B6`...).
    `plans` maps a query id to its minimal plan length.  `upgrade` maps a
    query id to the set of (member, rule) incompatibilities; empty means ok.
    """
    command: str
    args: tuple[str, ...]
    exit_code: int
    out: Optional[str] = None
    diagnostics: frozenset = frozenset()
    plans: dict = field(default_factory=dict)
    classes: frozenset = frozenset()
    upgrade: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        if self.command == "synth":
            return ["synth", *self.args, "--out", self.out]
        if self.command == "verify-upgrade":
            return ["verify-upgrade", "--assumptions", self.out, *self.args]
        return [self.command, *self.args]


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    setup: list[Expect]
    passes: list[Expect]


class Lines:
    """Source text built line by line, so the generator knows line numbers."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, *lines: str) -> int:
        """Append lines; returns the 1-based number of the first one."""
        first = len(self.lines) + 1
        self.lines.extend(lines)
        return first

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _tags(rng: random.Random, n: int) -> list[str]:
    """n distinct lowercase tags of equal length."""
    seen: set[str] = set()
    out = []
    while len(out) < n:
        t = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


CLASS_RE = re.compile(r"^\s*(?:abstract\s+)?(?:class|interface)\s+(\w+)", re.M)


def class_names(text: str) -> set[str]:
    return set(CLASS_RE.findall(text))


# ---------------------------------------------------------------------------
# paper_corpora: the paper's own scenarios, answers written by hand
# ---------------------------------------------------------------------------

PAPER_SCENARIOS = {
    # name: (paths, {query id: minimal plan length})
    "td14": (("common", "timedate14", "client"), {"client/timeutils.pop:3": 2}),
    "socket": (("socket",), {"socket/server.pop:17": 3, "socket/server.pop:19": 1,
                             "socket/server.pop:21": 1}),
    "swing": (("swing/toolkit.pop", "swing/widgets.pop", "swing_query/frames.pop"),
              {"swing_query/frames.pop:55": 6, "swing_query/frames.pop:69": 6}),
    "recordset": (("recordset",), {"recordset/records.pop:48": 1}),
    "witness": (("witness",), {"witness/witness.pop:25": 1,
                               "witness/witness.pop:28": 2}),
}


def paper_corpora(corpus: Path) -> Workload:
    files = {str(p.relative_to(corpus)): p.read_text()
             for p in sorted(corpus.rglob("*.pop"))}

    def classes_of(paths) -> frozenset:
        names: set[str] = set()
        for rel, text in files.items():
            if any(rel == p or rel.startswith(p + "/") for p in paths):
                names |= class_names(text)
        return frozenset(names)

    passes = [Expect("check", paths, 0) for paths, _ in PAPER_SCENARIOS.values()]
    for name, (paths, plans) in PAPER_SCENARIOS.items():
        passes.append(Expect("synth", paths, 0, out=f"out/{name}", plans=plans,
                             classes=classes_of(paths)))
    paths, plans = PAPER_SCENARIOS["td14"]
    setup = [Expect("synth", paths, 0, out="assume/td14", plans=plans,
                    classes=classes_of(paths))]
    qid = "client/timeutils.pop:3"
    passes.append(Expect("verify-upgrade", ("common", "upgrade_renamed"), 1,
                         out="assume/td14",
                         upgrade={qid: frozenset({("Date.getHour", "member-missing")})}))
    passes.append(Expect("verify-upgrade", ("common", "upgrade_stronger"), 0,
                         out="assume/td14", upgrade={qid: frozenset()}))
    return Workload("paper_corpora", files, setup, passes)


# ---------------------------------------------------------------------------
# deep_queries: producer chains, threats and spans that make the planner work
# ---------------------------------------------------------------------------

@dataclass
class Family:
    """Library text for one family plus the queries a client makes of it."""
    lib: str
    client: str
    client_name: str
    # (line, minimal plan length or None for NoSolution)
    queries: list[tuple[int, Optional[int]]]


def chain_family(tag: str, depth: int, width: int,
                 max_len: int = DEFAULT_MAX_LEN) -> Family:
    """A producer chain of `depth` levels above a constructible base value.

    Each level is one factory constructor plus one `make` call, so the plan
    has 2*depth+1 actions.  Each level also has `width` distractor producers
    whose precondition label is never produced by anything.
    """
    T = tag.capitalize()
    lib = Lines()
    for k in range(depth + 1):
        labels = [f"{tag}a{k}"] + [f"{tag}d{k + 1}y{j}" for j in range(width)]
        lib.add(f"class {T}V{k} {{", f"    labels {', '.join(labels)};")
        if k == 0:
            lib.add("", f"    {T}V0()", f"        result: +{tag}a0;")
        lib.add("}", "")
    for k in range(1, depth + 1):
        lib.add(f"class {T}M{k} {{", f"    {T}M{k}();")
        for j in range(width):
            lib.add("", f"    {T}V{k} alt{j}({T}V{k - 1} p)",
                    f"        p: {tag}d{k}y{j},", f"        result: +{tag}a{k};")
        lib.add("", f"    {T}V{k} make({T}V{k - 1} p)",
                f"        p: {tag}a{k - 1},", f"        result: +{tag}a{k};", "}", "")
    client = Lines()
    client.add(f"class {T}Use {{", "    void run() {")
    line = client.add(f"        {T}V{depth} v = #produce({T}V{depth}, {tag}a{depth});")
    client.add("    }", "}")
    length = 2 * depth + 1
    return Family(lib.text(), client.text(), f"{T}Use",
                  [(line, length if length <= max_len else None)])


def protocol_family(tag: str, steps: int, max_len: int = DEFAULT_MAX_LEN) -> Family:
    """A typestate object whose states reside in a resource that every
    transition mutates: `steps` transitions after the constructor, ordered
    by threat resolution."""
    T = tag.capitalize()
    lib = Lines()
    lib.add(f"class {T}P {{", f"    protocols {tag}st;", "    resources conn;", "",
            f"    {T}P()", f"        result: +{tag}st@s0;")
    for i in range(1, steps + 1):
        lib.add("", f"    void step{i}() [!conn]",
                f"        this: {tag}st@s{i - 1}->s{i} [*conn];")
    lib.add("}")
    client = Lines()
    client.add(f"class {T}Walk {{", "    void run() {")
    line = client.add(f"        {T}P v = #produce({T}P, {tag}st.s{steps});")
    client.add("    }", "}")
    length = steps + 1
    return Family(lib.text(), client.text(), f"{T}Walk",
                  [(line, length if length <= max_len else None)])


def rearm_family(tag: str) -> Family:
    """`arm` mutates the resource `ready` resides in, so `ready` must be
    established again after it: five actions, not four.  The query sits in
    an explicit protect span over an unrelated argument."""
    T = tag.capitalize()
    lib = Lines()
    lib.add(f"class {T}R {{", "}", "",
            f"class {T}K {{", f"    labels {tag}ready, {tag}armed;",
            f"    labels({T}R) {tag}done;", "    resources r;", "",
            f"    {T}K();", "",
            "    void prime()", f"        this: +{tag}ready [*r];", "",
            "    void arm() [!r]", f"        this: {tag}ready, +{tag}armed;", "",
            f"    {T}R fire()", f"        this: {tag}ready, {tag}armed,",
            f"        result: +{tag}done;", "}")
    client = Lines()
    client.add(f"class {T}Fire {{", f"    void run(maintain {T}K keep) {{",
               "        protect keep.r {")
    line = client.add(f"            {T}R v = #produce({T}R, {tag}done);")
    client.add("        }", "    }", "}")
    return Family(lib.text(), client.text(), f"{T}Fire", [(line, 5)])


def clobber_family(tag: str) -> Family:
    """Two labels reside in one resource and each producer mutates it, so
    no plan of any length holds both: NoSolution."""
    T = tag.capitalize()
    lib = Lines()
    lib.add(f"class {T}U {{", "}", "",
            f"class {T}C {{", f"    labels {tag}left, {tag}right;",
            f"    labels({T}U) {tag}used;", "    resources r;", "",
            f"    {T}C();", "",
            "    void setLeft() [!r]", f"        this: +{tag}left [*r];", "",
            "    void setRight() [!r]", f"        this: +{tag}right [*r];", "",
            f"    {T}U use()", f"        this: {tag}left, {tag}right,",
            f"        result: +{tag}used;", "}")
    client = Lines()
    client.add(f"class {T}Both {{", "    void run() {")
    line = client.add(f"        {T}U v = #produce({T}U, {tag}used);")
    client.add("    }", "}")
    return Family(lib.text(), client.text(), f"{T}Both", [(line, None)])


def span_family(tag: str) -> Family:
    """The only producer of the inner query's label may mutate the resource
    the outer query's state resides in, inside the outer query's span:
    outer solvable in two actions, inner NoSolution."""
    T = tag.capitalize()
    lib = Lines()
    lib.add(f"class {T}Z {{", "}", "",
            f"class {T}G {{", f"    labels({T}Z) {tag}got;", "    resources pending;", "",
            f"    {T}G();", "",
            f"    {T}Z fetch() [!pending]", f"        mutates any({T}S).conn:",
            f"        result: +{tag}got;", "}", "",
            f"class {T}S {{", f"    protocols {tag}st;", "    resources conn;", "",
            f"    {T}S()", f"        result: +{tag}st@raw;", "",
            "    void open() [!conn]", f"        this: {tag}st@raw->open [*conn];", "}")
    client = Lines()
    client.add(f"class {T}Hold {{", "    void run()",
               f"        mutates any({T}G).pending, any({T}S).conn: {{")
    outer = client.add(f"        {T}S s = #produce({T}S, {tag}st.open)")
    client.add("        {")
    inner = client.add(f"            {T}Z z = #produce({T}Z, {tag}got);")
    client.add("        }", "    }", "}")
    return Family(lib.text(), client.text(), f"{T}Hold",
                  [(outer, 2), (inner, None)])


# The deep_queries mix.  Chains of depth 6 need 13 actions and are
# NoSolution under the default max-len of 12.
DEEP_CHAINS = [(1, 0), (2, 4), (3, 4), (4, 4), (4, 6), (5, 4), (2, 8), (3, 2),
               (6, 2)]
DEEP_PROTOCOLS = [2, 3, 4, 5]
DEEP_REARMS = 2
DEEP_CLOBBERS = 2
DEEP_SPANS = 2


def deep_families(rng: random.Random) -> list[Family]:
    n = (len(DEEP_CHAINS) + len(DEEP_PROTOCOLS) + DEEP_REARMS + DEEP_CLOBBERS
         + DEEP_SPANS)
    tags = iter(_tags(rng, n))
    fams = [chain_family(next(tags), d, w) for d, w in DEEP_CHAINS]
    fams += [protocol_family(next(tags), k) for k in DEEP_PROTOCOLS]
    fams += [rearm_family(next(tags)) for _ in range(DEEP_REARMS)]
    fams += [clobber_family(next(tags)) for _ in range(DEEP_CLOBBERS)]
    fams += [span_family(next(tags)) for _ in range(DEEP_SPANS)]
    rng.shuffle(fams)
    return fams


def deep_queries(seed: int) -> Workload:
    """The library in lib/, the clients whose queries all solve in ok/, the
    clients with a NoSolution query in none/.  A failed query makes `synth`
    write nothing, so the two client sets run as two `synth` processes over
    the same library.  Each directory is one file, so that writing the tree
    costs three file creations, not one per family."""
    rng = random.Random(seed)
    lib, clients = Lines(), {"ok": Lines(), "none": Lines()}
    classes: set[str] = set()
    plans: dict[str, int] = {}
    failures: set = set()
    for fam in deep_families(rng):
        lib.add(*fam.lib.splitlines(), "")
        solvable = all(n is not None for _, n in fam.queries)
        where = "ok" if solvable else "none"
        path = f"{where}/clients.pop"
        offset = clients[where].add(*fam.client.splitlines(), "") - 1
        if solvable:
            classes.add(fam.client_name)
            plans.update({f"{path}:{offset + line}": n for line, n in fam.queries})
        else:
            failures |= {(path, offset + line, "E-PLAN", "NoSolution")
                         for line, n in fam.queries if n is None}
    files = {"lib/library.pop": lib.text(),
             **{f"{where}/clients.pop": c.text() for where, c in clients.items()}}
    passes = [
        Expect("synth", ("lib", "ok"), 0, out="out/ok", plans=plans,
               classes=frozenset(classes | class_names(files["lib/library.pop"]))),
        Expect("synth", ("lib", "none"), 1, out="out/none",
               diagnostics=frozenset(failures)),
    ]
    return Workload("deep_queries", files, [], passes)


# ---------------------------------------------------------------------------
# wide_tree: many components, one directory each
# ---------------------------------------------------------------------------

WIDE_COMPONENTS = 400   # every fourth is a base, the other three extend it
WIDE_QUERY_EVERY = 6    # one query in every sixth leaf
WIDE_VIOLATIONS = {"sum": 4, "span": 4, "uniq": 4, "ovr": 4}
WIDE_UPGRADES = {"rename": 6, "strengthen": 6, "widen": 6}


def _doc(s: Lines, owner: str, member: str) -> None:
    """A documentation comment of fixed shape, as real components carry."""
    s.add("    /**",
          f"     * {member} of component {owner}.",
          "     *",
          "     * See the component contract for the states in which the call is",
          "     * allowed, the resources it may touch and the labels it establishes",
          "     * on its receiver or its result.  Callers outside the component rely",
          "     * only on the annotations below; the body may change between versions",
          "     * as long as the annotations still hold, and verify-upgrade checks that.",
          "     *",
          "     * @see the component overview for the protocol and its states",
          "     */")


def _base_component(name: str, tag: str, peer: str, bad: Optional[str],
                    path: str, violations: set) -> str:
    s = Lines()
    s.add(f"class {name} {{", f"    labels(int) {tag}v, {tag}w;", f"    labels {tag}ok;",
          "    resources state, cache;", f"    protocols {tag}life;", "    Object slot;", "")
    _doc(s, name, "Constructor")
    s.add(f"    {name}()", f"        result: +{tag}ok, +{tag}life@fresh;", "")
    _doc(s, name, "touch")
    s.add("    void touch() [!state];", "")
    _doc(s, name, "poke")
    s.add("    void poke() [!cache];", "")
    _doc(s, name, "start")
    s.add("    void start() [!state]", f"        this: {tag}life@fresh->live [*state];", "")
    _doc(s, name, "setSlot")
    s.add("    void setSlot(maintainr Object value) {", "        slot = value;", "    }", "")
    _doc(s, name, "sync")
    line = s.add(f"    void sync(maintain {peer} other)", "        mutates other.state: {",
                 "        other.touch();")
    if bad == "sum":
        s.add("        other.poke();")
        violations.add((path, line, "E-SUM", "SummaryTooNarrow"))
    s.add("    }", "")
    _doc(s, name, "guard")
    s.add(f"    void guard(maintain {peer} other)",
          "        mutates other.state, other.cache: {", "        protect other.cache {")
    line = s.add("            other.poke();" if bad == "span" else "            other.touch();")
    if bad == "span":
        violations.add((path, line, "E-SPAN", "SpanViolation"))
    s.add("        }", "    }", "")
    _doc(s, name, "store")
    s.add("    void store(maintainr Object thing) {", "        setSlot(thing);")
    if bad == "uniq":
        line = s.add("        setSlot(thing);")
        violations.add((path, line, "E-UNIQ", "UseAfterConsume"))
    s.add("    }", "}")
    return s.text()


def _leaf_component(name: str, tag: str, base: str, bad: Optional[str],
                    query_tag: Optional[str], upgrade: Optional[str], path: str,
                    violations: set) -> tuple[str, str, Optional[int]]:
    """Returns (text, upgraded text, query line)."""
    def build(upgraded: bool) -> tuple[str, Optional[int]]:
        s = Lines()
        s.add(f"class {name} extends {base} {{", f"    labels(int) {tag}v, {tag}w;",
              f"    labels {tag}ok;", "")
        _doc(s, name, "Constructor")
        s.add(f"    {name}()", f"        result: +{tag}ok;", "")
        _doc(s, name, "touch")
        line = s.add("    void touch() [!state, cache];" if bad == "ovr"
                     else "    void touch() [!state];")
        if bad == "ovr" and not upgraded:
            violations.add((path, line, "E-OVR", "B2"))
            violations.add((path, line, "E-OVR", "B6"))
        op = upgrade if upgraded else None
        head = "    int valueOf()" if op == "rename" else "    int value()"
        if op == "widen":
            head += " [!cache]"
        post = f"+{tag}v, +{tag}w" if op == "strengthen" else f"+{tag}v"
        s.add("")
        _doc(s, name, "value")
        s.add(head, f"        this: {tag}ok,", f"        result: {post};")
        qline = None
        if query_tag is not None:
            s.add("")
            _doc(s, name, "fetch")
            s.add("    int fetch() {")
            qline = s.add(f"        int x = #produce(int, {query_tag}v);")
            s.add("        return x;", "    }")
        s.add("}")
        return s.text(), qline

    text, qline = build(False)
    upgraded, _ = build(True)
    return text, upgraded, qline


def wide_tree(seed: int, components: int = WIDE_COMPONENTS) -> Workload:
    """Components under v1/<dir>/<Class>.pop, the upgraded copy under v2/.

    Set-up runs `synth v1` once; each pass runs one `check v1` (the seeded
    violations, exit 1) and one `verify-upgrade` of the set-up assumptions
    against v2.  Every query produces a label of another leaf with two
    actions (its constructor and `value`); the upgrade renames, strengthens
    or widens `value` on a known set of those leaves.
    """
    rng = random.Random(seed)
    tags = _tags(rng, components)
    names = [f"{t.capitalize()}{i:03d}" for i, t in enumerate(tags)]
    bases = [i for i in range(components) if i % 4 == 0]
    leaves = [i for i in range(components) if i % 4 != 0]

    bad: dict[int, str] = {}
    order = rng.sample(range(components), components)
    for kind, count in WIDE_VIOLATIONS.items():
        pool = [i for i in order if i not in bad and
                ((i % 4 == 0) != (kind == "ovr"))]
        for i in pool[:count]:
            bad[i] = kind

    hosts = leaves[::WIDE_QUERY_EVERY]
    pool = rng.sample(leaves, len(leaves))
    targets = []
    for host in hosts:  # distinct targets, none queried by itself
        targets.append(next(t for t in pool if t != host))
        pool.remove(targets[-1])
    target_of = dict(zip(hosts, targets))
    ops = [op for op, n in WIDE_UPGRADES.items() for _ in range(n)][:len(targets)]
    upgrade_of = dict(zip(rng.sample(targets, len(ops)), ops))

    v1: dict[str, str] = {}
    v2: dict[str, str] = {}
    violations: set = set()
    query_line: dict[int, int] = {}
    for i, (name, tag) in enumerate(zip(names, tags)):
        rel = f"{name.lower()}/{name}.pop"
        path = f"v1/{rel}"
        if i % 4 == 0:
            peer = names[bases[(bases.index(i) + 1) % len(bases)]]
            text = _base_component(name, tag, peer, bad.get(i), path, violations)
            upgraded = text
        else:
            t = target_of.get(i)
            text, upgraded, qline = _leaf_component(
                name, tag, names[i - i % 4], bad.get(i),
                tags[t] if t is not None else None, upgrade_of.get(i), path,
                violations)
            if qline is not None:
                query_line[i] = qline
        v1[path] = text
        v2[f"v2/{rel}"] = upgraded

    plans: dict[str, int] = {}
    verdicts: dict[str, frozenset] = {}
    for host, target in target_of.items():
        qid = f"v1/{names[host].lower()}/{names[host]}.pop:{query_line[host]}"
        plans[qid] = 2
        op = upgrade_of.get(target)
        member = f"{names[target]}.value"
        verdicts[qid] = frozenset(
            {(member, {"rename": "member-missing",
                       "widen": "mutations-grew"}[op])}
            if op in ("rename", "widen") else ())
    setup = [Expect("synth", ("v1",), 0, out="out", plans=plans,
                    classes=frozenset(names))]
    passes = [
        Expect("check", ("v1",), 1, diagnostics=frozenset(violations)),
        Expect("verify-upgrade", ("v2",), 1, out="out", upgrade=verdicts),
    ]
    return Workload("wide_tree", {**v1, **v2}, setup, passes)


def build(name: str, seed: int, corpus: Path) -> Workload:
    if name == "paper_corpora":
        return paper_corpora(corpus)
    if name == "deep_queries":
        return deep_queries(seed)
    if name == "wide_tree":
        return wide_tree(seed)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("paper_corpora", "deep_queries", "wide_tree")
