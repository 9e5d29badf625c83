"""Per-pass correctness gate: compares what one CLI invocation did with the
answer the generator knows.

Every comparison is one verdict.  A crash, a traceback, an unparsable output
line, a wrong exit code, a missing or extra diagnostic, a wrong plan length,
a class missing from the `synth` output or a wrong upgrade verdict is one
wrong verdict.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from gen import Expect, class_names

DIAG_RE = re.compile(r"^(.+?):(\d+):(\d+): error: (E-[A-Z]+): (\w+)")
OK_RE = re.compile(r"^ok (\S+)$")
BAD_RE = re.compile(r"^incompatible (\S+): (\S+): ([\w-]+): ")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.wrong) < 20:
                self.wrong.append(what)


def output_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file `synth` wrote."""
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def read_assumptions(out_dir: Path) -> dict[str, int]:
    """Query id -> number of plan-step records, read straight from the text."""
    steps: dict[str, int] = {}
    for f in sorted(out_dir.glob("*.assume")):
        for block in f.read_text().strip().split("\n\n\n"):
            sections = block.split("\n\n")
            head = sections[0].splitlines()
            if not head or not head[0].startswith("query="):
                continue
            steps[head[0][len("query="):]] = len(sections) - 1
    return steps


class Gate:
    """Checks invocations against their known answers.  `reparse` is the
    in-process check that a `synth` output directory loads and checks clean;
    its verdict is remembered per output digest, since identical bytes give
    an identical verdict."""

    def __init__(self, reparse) -> None:
        self.tally = Tally()
        self.reparse = reparse
        self.clean: dict[str, bool] = {}
        self.digests: dict[str, str] = {}

    def check(self, exp: Expect, code: int, stdout: str, stderr: str,
              cwd: Path) -> None:
        v = self.tally.verdict
        where = " ".join(exp.argv())
        v(code == exp.exit_code, f"{where}: exit {code}, expected {exp.exit_code}")
        v(not stderr.strip() and "Traceback" not in stdout,
          f"{where}: crashed: {(stderr or stdout).strip()[-200:]}")
        if exp.command == "verify-upgrade":
            self._upgrade(exp, stdout, where)
        else:
            self._diagnostics(exp, stdout, where)
        if exp.command == "synth" and exp.exit_code == 0 and code == 0:
            self._synth_output(exp, cwd / exp.out, where)

    def _diagnostics(self, exp: Expect, stdout: str, where: str) -> None:
        got = set()
        for line in stdout.splitlines():
            m = DIAG_RE.match(line)
            if m is None:
                self.tally.verdict(False, f"{where}: unexpected output {line!r}")
                continue
            got.add((m[1], int(m[2]), m[4], m[5]))
        for d in sorted(exp.diagnostics):
            self.tally.verdict(d in got, f"{where}: missing {d}")
        for d in sorted(got - exp.diagnostics):
            self.tally.verdict(False, f"{where}: unexpected {d}")

    def _upgrade(self, exp: Expect, stdout: str, where: str) -> None:
        got: dict[str, set] = {}
        for line in stdout.splitlines():
            if m := OK_RE.match(line):
                got.setdefault(m[1], set())
            elif m := BAD_RE.match(line):
                got.setdefault(m[1], set()).add((m[2], m[3]))
            else:
                self.tally.verdict(False, f"{where}: unexpected output {line!r}")
        for qid, want in sorted(exp.upgrade.items()):
            self.tally.verdict(got.get(qid) == set(want),
                               f"{where}: {qid}: {got.get(qid)} != {set(want)}")
        for qid in sorted(set(got) - set(exp.upgrade)):
            self.tally.verdict(False, f"{where}: unexpected query {qid}")

    def _synth_output(self, exp: Expect, out_dir: Path, where: str) -> None:
        v = self.tally.verdict
        if not out_dir.is_dir():
            v(False, f"{where}: no output directory")
            return
        steps = read_assumptions(out_dir)
        for qid, n in sorted(exp.plans.items()):
            v(steps.get(qid) == n, f"{where}: {qid}: plan length {steps.get(qid)}, expected {n}")
        for qid in sorted(set(steps) - set(exp.plans)):
            v(False, f"{where}: unexpected query {qid}")
        texts = {f.name: f.read_text() for f in sorted(out_dir.glob("*.pop"))}
        present = set().union(*map(class_names, texts.values()))
        for name in sorted(exp.classes):
            v(name in present, f"{where}: class {name} missing from the output")
        digest = output_digest(out_dir)
        if digest not in self.clean:
            self.clean[digest] = self.reparse(texts)
        v(self.clean[digest], f"{where}: spliced output does not reparse and check clean")
        first = self.digests.setdefault(exp.out, digest)
        v(first == digest, f"{where}: output bytes differ from the first pass")
