"""Tests of the benchmark's own parts: the generator's known answers against
the brute-force oracle in tests/oracle.py, and the correctness gate.

    PYTHONPATH=src python -m pytest -q bench
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import gen  # noqa: E402
import oracle  # noqa: E402
from poplar.cli import main as cli_main  # noqa: E402
from poplar.effects import query_contexts  # noqa: E402
from poplar.resolver import load_program  # noqa: E402
from verdicts import Gate  # noqa: E402

MAX_LEN = 4  # keeps the oracle cheap


def queries_by_line(files: dict[str, str]):
    program = load_program(sorted(files.items()))
    assert not program.diagnostics.items, program.diagnostics.render()
    out = {}
    for cname in sorted(program.units):
        unit = program.units[cname]
        for m in unit.methods:
            if m.body is None:
                continue
            for ctx in query_contexts(program, unit, m):
                out[(program.unit_paths[cname], ctx.pos.line)] = ctx
    return program, out


def oracle_lengths(fam: gen.Family):
    files = {"lib.pop": fam.lib, "client.pop": fam.client}
    program, ctxs = queries_by_line(files)
    got = {}
    for line, _ in fam.queries:
        found = oracle.solve(program, ctxs[("client.pop", line)], max_len=MAX_LEN)
        got[line] = found[0] if found else None
    return got


def known(fam: gen.Family):
    return {line: n if n is not None and n <= MAX_LEN else None
            for line, n in fam.queries}


@pytest.mark.parametrize("depth,width", [(1, 0), (1, 3), (2, 0), (2, 2)])
def test_chain_answers_match_oracle(depth, width):
    fam = gen.chain_family("qzxw", depth, width, max_len=MAX_LEN)
    assert oracle_lengths(fam) == known(fam)


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_protocol_answers_match_oracle(steps):
    fam = gen.protocol_family("qzxw", steps, max_len=MAX_LEN)
    assert oracle_lengths(fam) == known(fam)


def test_span_answers_match_oracle():
    fam = gen.span_family("qzxw")
    assert oracle_lengths(fam) == known(fam)


@pytest.mark.xfail(strict=True, reason="the oracle does not drop a label when "
                   "the resource it resides in ([*r]) is mutated ([!r])")
@pytest.mark.parametrize("family", [gen.rearm_family, gen.clobber_family])
def test_residence_answers_match_oracle(family):
    fam = family("qzxw")
    assert oracle_lengths(fam) == known(fam)


def test_wide_query_answers_match_oracle():
    work = gen.wide_tree(seed=3, components=24)
    synth = work.setup[0]
    v1 = {p: t for p, t in work.files.items() if p.startswith("v1/")}
    program, ctxs = queries_by_line(v1)
    assert synth.plans
    for qid, n in synth.plans.items():
        path, _, line = qid.rpartition(":")
        found = oracle.solve(program, ctxs[(path, int(line))], max_len=MAX_LEN)
        assert found and found[0] == n, qid


def test_every_seed_gives_the_same_amount_of_work():
    for build in (gen.deep_queries, gen.wide_tree):
        a, b = build(1), build(2)
        assert a.files != b.files
        assert build(1).files == a.files
        assert sum(map(len, a.files.values())) == sum(map(len, b.files.values()))


def run_in(tree: Path, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tree)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def always_clean(texts):
    return True


def test_gate_counts_units_lost_to_output_name_collisions(tmp_path):
    # `synth` names each output file after its input file's stem, so two
    # inputs called x.pop overwrite each other and one class is lost.
    for d, cls in (("a", "Alpha"), ("b", "Beta")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.pop").write_text(f"class {cls} {{\n    {cls}();\n}}\n")
    exp = gen.Expect("synth", ("a", "b"), 0, out="out",
                     classes=frozenset({"Alpha", "Beta"}))
    gate = Gate(always_clean)
    gate.check(exp, *run_in(tmp_path, exp.argv()), tmp_path)
    assert gate.tally.failed == 1
    assert "missing from the output" in gate.tally.wrong[0]


def test_gate_counts_wrong_exit_codes_and_diagnostics(tmp_path):
    (tmp_path / "t").mkdir()
    (tmp_path / "t" / "t.pop").write_text("class T {\n    T()\n}\n")
    exp = gen.Expect("check", ("t",), 0)
    gate = Gate(always_clean)
    gate.check(exp, *run_in(tmp_path, exp.argv()), tmp_path)
    # the exit code and the unexpected E-SYN line
    assert gate.tally.failed == 2


def test_paper_answers_hold_in_process(tmp_path):
    work = gen.paper_corpora(ROOT / "tests" / "corpus")
    for rel, text in work.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    gate = Gate(always_clean)
    for exp in work.setup + work.passes:
        gate.check(exp, *run_in(tmp_path, exp.argv()), tmp_path)
    assert gate.tally.failed == 0, gate.tally.wrong
