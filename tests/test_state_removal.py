"""The state-removal threat: a transition out of a state on the same plan
object as a causal link on that state. (A causal link records that one
action supplies a condition another action needs.) Each tree pins its plan,
its search counters and its `synth` bytes; with the check of this threat
removed from `Planner._threatens`, each would change."""

import hashlib
from pathlib import Path

import pytest

from poplar.cli import main
from poplar.config import SearchConfig
from poplar.planner import Planner, render_plan
from poplar.resolver import load_program

from conftest import all_query_contexts

# `light` leaves p@1, which `log` needs on the same lamp. The two are
# otherwise unordered, and least-id order would run `light` first: only
# demotion, `log` before `light`, keeps the link.
DEMOTION = """class Lamp {
    protocols p, q;
    labels done;

    Lamp()
        result: +p@1, +q@1;

    void light()
        this: p@1->2;

    void log()
        this: p@1, q@1->2;

    void finish()
        this: p@2, q@2, +done;
}

class Client {
    void run() {
        Lamp x = #produce(Lamp, done);
    }
}
"""

# `open` leaves p@1 and gives `opened`, and `finish` needs both. `open`
# cannot run before the constructor that gives p@1, nor after `finish`
# that needs `opened`: no ordering resolves the threat, so the search
# rejects it and returns p@1 by `reset`.
REJECTION = """class Gate {
    protocols p;
    labels opened, done;

    Gate()
        result: +p@1;

    void open()
        this: p@1->2, +opened;

    void reset()
        this: p@2->1;

    void finish()
        this: p@1, opened, +done;
}

class Client {
    void run() {
        Gate g = #produce(Gate, done);
    }
}
"""

# name -> (source, linearized actions, the ordering that resolves the
# threat or None, explored plans, rejected threats, spliced body, sha256
# over the name and bytes of each file `synth` writes, in name order)
TREES = {
    "lamp": (DEMOTION,
             ["new Lamp()", "Lamp.log()", "Lamp.light()", "Lamp.finish()"],
             "Lamp.log() < Lamp.light()", 9, 0,
             ["Lamp x = new Lamp();", "x.log();", "x.light();", "x.finish();"],
             "f8bccd457a9fa2d506b52b31a109d3c408d0343df9ba94281f69150f29491a33"),
    "gate": (REJECTION,
             ["new Gate()", "Gate.open()", "Gate.reset()", "Gate.finish()"],
             None, 12, 2,
             ["Gate g = new Gate();", "g.open();", "g.reset();", "g.finish();"],
             "64a2d40c28c1d7dae27b75587c7ce5bc0055429f57f9d7df05e14b967c9e6b2a"),
}


def plan_of(name):
    source = TREES[name][0]
    program = load_program([(f"{name}.pop", source)])
    assert not program.diagnostics.has_errors, program.diagnostics.render()
    (ctx,) = all_query_contexts(program)
    return Planner(program, ctx, SearchConfig()).plan()


@pytest.mark.parametrize("name", sorted(TREES))
def test_a_state_removal_threat_orders_or_rejects_the_transition(name):
    _, actions, ordering, explored, rejected, _, _ = TREES[name]
    result = plan_of(name)
    assert [a.spec.label() for a in result.plan.linearize()] == actions
    assert (result.explored, result.rejected_threats) == (explored, rejected)
    if ordering is not None:
        assert f"  {ordering}" in render_plan(result).splitlines()


@pytest.mark.parametrize("name", sorted(TREES))
def test_a_state_removal_threat_keeps_synth_sound_and_its_bytes(name, tmp_path,
                                                               monkeypatch, capsys):
    source, _, _, _, _, body, digest = TREES[name]
    monkeypatch.chdir(tmp_path)
    Path(name).mkdir()
    Path(name, f"{name}.pop").write_text(source)
    assert main(["synth", name, "--out", "out"]) == 0
    spliced = Path("out", f"{name}.pop").read_text()
    assert [line.strip() for line in spliced.splitlines()[-len(body) - 2:-2]] == body
    h = hashlib.sha256()
    for f in sorted(Path("out").iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    assert h.hexdigest() == digest
    # The spliced calls keep every protocol: the output checks clean.
    assert main(["check", "out"]) == 0
    assert capsys.readouterr() == ("", "")


# The lamp with `logged` for q: the label's condition sorts before p@2, so
# `log` joins the plan before `light` does. `light` then threatens the link
# into `log` while it is still unordered with the constructor, and the
# threat is settled by promotion, `light` before `new Lamp()`, with no
# branch for demotion. `light`'s own p@1 then has no achiever, though
# `new Lamp(); log(); light(); finish()` is a plan.
PROMOTION_FIRST = """class Lamp {
    protocols p;
    labels logged, done;

    Lamp()
        result: +p@1;

    void light()
        this: p@1->2;

    void log()
        this: p@1, +logged;

    void finish()
        this: logged, p@2, +done;
}

class Client {
    void run() {
        Lamp x = #produce(Lamp, done);
    }
}
"""


@pytest.mark.xfail(strict=True, reason="a threat is resolved by the first ordering that "
                   "fits, not searched over promotion and demotion")
def test_a_threat_settled_by_promotion_does_not_hide_the_demoted_plan():
    program = load_program([("lamp.pop", PROMOTION_FIRST)])
    (ctx,) = all_query_contexts(program)
    result = Planner(program, ctx, SearchConfig()).plan()
    assert [a.spec.label() for a in result.plan.linearize()] == \
        ["new Lamp()", "Lamp.log()", "Lamp.light()", "Lamp.finish()"]
