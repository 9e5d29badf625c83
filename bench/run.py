"""Benchmark of the poplar build-time toolchain.

Times `check`, `synth` and `verify-upgrade` the way a user runs them: each
command is one cold `python -m poplar.cli` process, timed from spawn to exit,
one child at a time.  Every verdict is checked against the answer the
workload generator knows.  With `--trace 1` the same pass runs in process,
once plain and once with spans at each layer boundary, for the per-layer
numbers.

    python3 bench/run.py --workload deep_queries --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
WORK = ROOT / ".bench_work"

# Set up in at least SETUP_MIN_BLOCKS blocks and until SETUP_SECONDS have
# been spent, so that even a set-up of a few ms is reported as a steady
# median.
SETUP_MIN_BLOCKS, SETUP_BLOCK_S, SETUP_SECONDS = 3, 0.2, 1.0
# Timings are reported in calibrated seconds: wall seconds scaled to a
# machine on which bench/calibrate.py takes NOMINAL_CAL_S.  It runs before
# the first set-up, after every set-up block and after every pass; each block
# and pass is scaled by the calibrations just before and just after it.
NOMINAL_CAL_S = 0.2
MIN_PASSES = 3
STARTUP_SPAWNS = 7
CHILD_LIMIT_S = 60

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from verdicts import Gate  # noqa: E402


@dataclass
class Child:
    """One finished child process."""
    wall: float
    code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: Path, logs: Path) -> Child:
    """Run one child to its end; the wall time runs from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    out_path, err_path = logs / "stdout", logs / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def cli(argv: list[str], cwd: Path, logs: Path) -> Child:
    return spawn([sys.executable, "-m", "poplar.cli", *argv], cwd, logs)


def reparse_clean(texts: dict[str, str]) -> bool:
    """The spliced plain output must load and check without a diagnostic."""
    from poplar.effects import check_program
    from poplar.resolver import load_program
    try:
        program = load_program(sorted(texts.items()))
        return not program.diagnostics.items and not check_program(program)
    except Exception:  # a crash on the output is a wrong verdict
        traceback.print_exc()
        return False


def clear_outputs(exp: gen.Expect, tree: Path) -> None:
    if exp.command == "synth":
        shutil.rmtree(tree / exp.out, ignore_errors=True)


def set_up(name: str, seed: int, tree: Path, logs: Path, gate: Gate) -> tuple[gen.Workload, float]:
    """Generate, write and prepare one tree; returns it with its wall seconds
    (the gate's checks of the set-up output are not timed)."""
    start = time.perf_counter()
    work = gen.build(name, seed, CORPUS)
    for rel, text in work.files.items():
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    children = [cli(exp.argv(), tree, logs) for exp in work.setup]
    elapsed = time.perf_counter() - start
    for exp, child in zip(work.setup, children):
        gate.check(exp, child.code, child.stdout, child.stderr, tree)
    return work, elapsed


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (percentile, value, sample count); the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return 100.0 * (k + 1) / n, ordered[k], n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed(name: str, seed: int, seconds: float, root: Path) -> tuple[Gate, dict]:
    logs = root / "logs"
    gate = Gate(reparse_clean)

    def calibrate() -> float:
        return spawn([sys.executable, str(HERE / "calibrate.py")], ROOT, logs).wall

    def scale(before: float, after: float) -> float:
        return NOMINAL_CAL_S / ((before + after) / 2)

    cal = [calibrate()]
    setups: list[float] = []
    blocks: list[float] = []
    # Set-ups run in blocks of at least SETUP_BLOCK_S, each block scaled by
    # the calibrations around it.  Every set-up writes over the same tree:
    # creating and removing hundreds of trees per run made file creation
    # slower from one run to the next on the same machine.
    tree = root / "tree"
    while len(blocks) < SETUP_MIN_BLOCKS or sum(setups) < SETUP_SECONDS:
        block: list[float] = []
        while not block or sum(block) < SETUP_BLOCK_S:
            work, elapsed = set_up(name, seed, tree, logs, gate)
            block.append(elapsed)
            setups.append(elapsed)
        cal.append(calibrate())
        blocks.append(statistics.median(block) * scale(cal[-2], cal[-1]))

    raw: list[float] = []
    per_pass: list[float] = []
    per_command: dict[str, list[float]] = {}
    peak_rss = 0.0
    deadline = time.perf_counter() + seconds
    while len(per_pass) < MIN_PASSES or time.perf_counter() < deadline:
        for exp in work.passes:
            clear_outputs(exp, tree)
        children = [cli(exp.argv(), tree, logs) for exp in work.passes]
        cal.append(calibrate())
        factor = scale(cal[-2], cal[-1])
        walls: dict[str, float] = {}
        for exp, child in zip(work.passes, children):
            walls[exp.command] = walls.get(exp.command, 0.0) + child.wall
            peak_rss = max(peak_rss, child.maxrss_mb)
            gate.check(exp, child.code, child.stdout, child.stderr, tree)
        raw.append(sum(walls.values()))
        per_pass.append(raw[-1] * factor)
        for command, wall in walls.items():
            per_command.setdefault(command, []).append(wall * factor)

    print(f"workload={name} seed={seed} passes={len(per_pass)} "
          f"processes_per_pass={len(work.passes)} setups={len(setups)} "
          f"calibration_median_s={statistics.median(cal):.4f}")
    print(f"wall: setup_s={statistics.median(setups):.4f} "
          f"pass_s={statistics.median(raw):.4f}")
    for command, values in sorted(per_command.items()):
        pct, value, n = tail(values)
        print(f"calibrated {command.replace('verify-upgrade', 'upgrade')}_s "
              f"median={statistics.median(values):.4f} "
              f"tail=p{pct:.0f}:{value:.4f} (n={n} passes)")
    for out, digest in sorted(gate.digests.items()):
        print(f"synth_sha256 {out} {digest}")
    return gate, {
        "setup_s": metric(statistics.median(blocks), "s"),
        "pass_s": metric(statistics.median(per_pass), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }


def startup_ms(logs: Path) -> tuple[float, float]:
    """Median cold start of a bare interpreter, and what `import poplar.cli`
    adds to it."""
    bare, loaded = [], []
    for _ in range(STARTUP_SPAWNS):
        bare.append(spawn([sys.executable, "-c", "pass"], ROOT, logs).wall)
        loaded.append(spawn([sys.executable, "-c", "import poplar.cli"], ROOT, logs).wall)
    python = statistics.median(bare) * 1000
    return python, statistics.median(loaded) * 1000 - python


def in_process(work: gen.Workload, tree: Path, gate: Gate, run) -> float:
    """One pass with every command run by `run(argv)` inside this process;
    returns the ms spent in the commands."""
    spent = 0.0
    for exp in work.passes:
        clear_outputs(exp, tree)
    gc.collect()  # every pass starts from the same heap, as a cold process does
    for exp in work.passes:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tree)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = run(exp.argv())
                except Exception:  # a crash is a wrong verdict, not the end
                    traceback.print_exc()
                    code = -1
                spent += time.perf_counter() - start
        finally:
            os.chdir(cwd)
        gate.check(exp, code, out.getvalue(), err.getvalue(), tree)
    return spent * 1000


def traced(name: str, seed: int, seconds: float, root: Path) -> tuple[Gate, dict]:
    import poplar.cli
    from tracing import LAYERS, Tracer

    logs = root / "logs"
    gate = Gate(reparse_clean)
    tree = root / "tree"
    work, _ = set_up(name, seed, tree, logs, gate)
    python_ms, import_ms = startup_ms(logs)

    overheads, tracers = [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_PASSES or time.perf_counter() < deadline:
        # Pair each traced pass with a plain one, alternating which goes
        # first, and compare within the pair: the machine's speed drifts.
        plain_first = len(tracers) % 2 == 0
        if plain_first:
            plain = in_process(work, tree, gate, poplar.cli.main)
        with Tracer() as tracer:
            in_process(work, tree, gate, tracer.command)
        if not plain_first:
            plain = in_process(work, tree, gate, poplar.cli.main)
        tracers.append(tracer)
        overheads.append(tracer.wall_ms() / plain)

    selfs = [t.self_ms() for t in tracers]
    layer = {key: statistics.median(s[key] for s in selfs) for key in selfs[0]}
    wall = statistics.median(t.wall_ms() for t in tracers)
    counts = tracers[-1].counts
    queries = [ms for t in tracers for ms in t.query_ms]
    n_queries = counts["planner.solved"] + counts["planner.failed"]
    pct, query_tail, n_samples = tail(queries) if queries else (0.0, 0.0, 0)
    processes = len(work.passes)
    cold = processes * (python_ms + import_ms) + wall

    print(f"workload={name} seed={seed} traced_passes={len(tracers)} "
          f"processes_per_pass={processes}")
    print(f"planner.query_ms_tail is p{pct:.0f} of n={n_samples} query timings; "
          f"planner.rejected_threats counts solved queries only")
    middle = sorted(tracers, key=Tracer.wall_ms)[len(tracers) // 2]
    selfs_mid = middle.self_ms()
    trace_file = WORK / f"trace-{name}-{seed}.json"
    trace_file.write_text(json.dumps(middle.record()))
    print(f"spans of the median traced pass written to {trace_file.relative_to(ROOT)}")
    print(f"median traced pass: wall {middle.wall_ms():.2f} ms; layer self times "
          f"{sum(selfs_mid[k] for k in LAYERS):.2f} ms + cli.other_ms "
          f"{selfs_mid['cli']:.2f} ms")
    shares = {
        "share.startup": processes * (python_ms + import_ms) / cold,
        "share.lexer_parser": (layer["lexer"] + layer["parser"]) / cold,
        "share.planner": layer["planner"] / cold,
    }
    print("shares of a modelled cold pass (processes x startup + traced wall): " +
          " ".join(f"{k}={v:.3f}" for k, v in shares.items()))

    ms = lambda key: metric(layer[key], "ms")  # noqa: E731
    count = lambda key: metric(counts[key], "count")  # noqa: E731
    metrics = {
        "startup.python_ms": metric(python_ms, "ms"),
        "startup.import_ms": metric(import_ms, "ms"),
        "lexer.ms": ms("lexer"),
        "lexer.tokens": count("lexer.tokens"),
        "lexer.tokens_per_ms": metric(
            counts["lexer.tokens"] / layer["lexer"] if layer["lexer"] else 0.0, "tokens/ms"),
        "parser.ms": ms("parser"),
        "parser.classes": count("parser.classes"),
        "resolver.ms": ms("resolver"),
        "resolver.units": count("resolver.units"),
        "effects.check_ms": ms("effects.check"),
        "effects.methods": count("effects.methods"),
        "effects.violations": count("effects.violations"),
        "effects.contexts_ms": ms("effects.contexts"),
        "planner.ms": ms("planner"),
        "planner.queries": metric(n_queries, "count"),
        "planner.solved": count("planner.solved"),
        "planner.failed": count("planner.failed"),
        "planner.explored": count("planner.explored"),
        "planner.explored_failed": count("planner.explored_failed"),
        "planner.explored_per_query": metric(
            counts["planner.explored"] / n_queries if n_queries else 0.0, "plans"),
        "planner.rejected_threats": count("planner.rejected_threats"),
        "planner.universe_specs": count("planner.universe_specs"),
        "planner.plan_actions": count("planner.plan_actions"),
        "planner.query_ms_p50": metric(statistics.median(queries) if queries else 0.0, "ms"),
        "planner.query_ms_tail": metric(query_tail, "ms"),
        "synth.emit_ms": ms("synth.emit"),
        "synth.splice_ms": ms("synth.splice"),
        "printer.ms": ms("printer"),
        "printer.bytes": metric(counts["printer.bytes"], "bytes"),
        "synth.assume_write_ms": ms("synth.assume_write"),
        "synth.assume_read_ms": ms("synth.assume_read"),
        "synth.compat_ms": ms("synth.compat"),
        "synth.records": count("synth.records"),
        "cli.other_ms": ms("cli"),
        "trace.wall_ms": metric(wall, "ms"),
        "trace.overhead_ratio": metric(statistics.median(overheads), "ratio"),
    }
    metrics.update({k: metric(v, "ratio") for k, v in shares.items()})
    return gate, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = WORK / f"{os.getpid()}-{name}-{int(trace)}"
    shutil.rmtree(root, ignore_errors=True)
    (root / "logs").mkdir(parents=True)
    try:
        gate, metrics = (traced if trace else timed)(name, seed, seconds, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    t = gate.tally
    print(f"error_ratio={t.failed}/{t.attempted} (wrong verdicts / verdicts checked)")
    for line in t.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    return {"correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminate through the `finally` blocks, which stop the child and
    # remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in (SRC / "poplar" / "cli.py", CORPUS) if not p.exists()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        results = {f"{name}/trace{trace}": run_one(name, args.seed, args.seconds, bool(trace))
                   for name in gen.WORKLOADS for trace in (0, 1)}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
