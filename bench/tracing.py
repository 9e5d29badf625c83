"""In-process tracing of one pass: spans at the layer boundaries of the
toolchain, recorded by wrapping public functions at the names where the
toolchain looks them up.  Spans stay in memory with their parent; self times
are derived from them once the pass ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import poplar.cli
import poplar.parser
import poplar.planner
import poplar.resolver
import poplar.synth

LAYERS = ("lexer", "parser", "resolver", "effects.check", "effects.contexts",
          "planner", "synth.emit", "synth.splice", "printer",
          "synth.assume_write", "synth.assume_read", "synth.compat")


class Tracer:
    def __init__(self) -> None:
        # [layer, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query_ms: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(result, args)
            return result
        return traced

    def _patch(self, owner, name: str, layer: str, count=None) -> None:
        fn = getattr(owner, name)
        self._saved.append((owner, name, fn))
        setattr(owner, name, self.span(layer, fn, count))

    def _plan_query(self, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except poplar.planner.PlanFailure as e:
                self.counts["planner.failed"] += 1
                self.counts["planner.explored"] += e.explored
                self.counts["planner.explored_failed"] += e.explored
                raise
            finally:
                self.query_ms.append((time.perf_counter() - start) * 1000)
            self.counts["planner.solved"] += 1
            self.counts["planner.explored"] += result.explored
            self.counts["planner.rejected_threats"] += result.rejected_threats
            self.counts["planner.plan_actions"] += result.action_count()
            return result
        return self.span("planner", traced)

    def _universe(self, fn):
        def counted(*args, **kwargs):
            specs = fn(*args, **kwargs)
            c = self.counts
            c["planner.universe_specs"] = max(c["planner.universe_specs"], len(specs))
            return specs
        return counted

    def __enter__(self) -> "Tracer":
        c = self.counts

        def add(key, n):
            c[key] += n

        self._patch(poplar.parser, "tokenize", "lexer",
                    lambda r, a: add("lexer.tokens", len(r)))
        self._patch(poplar.parser, "parse_unit", "parser",
                    lambda r, a: add("parser.classes", len(r)))
        self._patch(poplar.resolver.Resolver, "resolve", "resolver",
                    lambda r, a: add("resolver.units", len(r.unit_paths)))
        self._patch(poplar.resolver, "overlay_externals", "resolver")
        def checked(violations, args):
            add("effects.violations", len(violations))
            add("effects.methods", sum(len(u.methods) for u in args[0].units.values()))

        self._patch(poplar.cli, "check_program", "effects.check", checked)
        self._patch(poplar.cli, "query_contexts", "effects.contexts")
        for owner, name, wrap in ((poplar.cli, "plan_query", self._plan_query),
                                  (poplar.planner, "action_universe", self._universe)):
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, wrap(fn))
        self._patch(poplar.synth, "emit_statements", "synth.emit")
        self._patch(poplar.synth, "splice_program", "synth.splice")
        self._patch(poplar.synth, "render_plain", "printer",
                    lambda r, a: add("printer.bytes", sum(len(t) for t in r.values())))
        self._patch(poplar.synth, "emit_assumptions", "synth.assume_write")
        self._patch(poplar.synth, "serialize_assumptions", "synth.assume_write")
        self._patch(poplar.synth, "parse_assumptions", "synth.assume_read",
                    lambda r, a: add("synth.records", sum(len(x.records) for x in r)))
        self._patch(poplar.synth, "check_compat", "synth.compat")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def command(self, argv: list[str]) -> int:
        """Run one CLI command as the root span."""
        return self.span("cli", poplar.cli.main)(argv)

    def self_ms(self) -> dict[str, float]:
        """Self time per layer in ms: a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in ("cli",) + LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += (end - start - inner) * 1000
        return out

    def record(self) -> list[dict]:
        """The spans as written out: layer, start and end in ms from the
        first span, and the index of the parent span (-1 for a command)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"layer": layer, "start_ms": (start - origin) * 1000,
                 "end_ms": (end - origin) * 1000, "parent": parent}
                for layer, start, end, parent in self.spans]

    def wall_ms(self) -> float:
        return sum(end - start for layer, start, end, parent in self.spans
                   if parent < 0) * 1000
