"""Fixed reference work for calibrating timings to the machine's current speed.

On a shared machine the speed of a core drifts by tens of percent within
minutes.  Running this script in a child process next to each timed pass and
dividing by its time cancels that drift.  It does the kind of work the
toolchain does (dicts, sets, tuples, sorting, strings, calls) and imports
nothing from it, so a faster toolchain cannot make the reference faster.
"""


def work() -> int:
    counts: dict = {}
    for i in range(40000):
        key = ("k", i % 997, str(i % 5003))
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.items(), key=lambda kv: (kv[0][1], -kv[1]))
    spans = [frozenset(range(i, i + 16)) for i in range(12000)]
    shared = sum(len(a & b) for a, b in zip(spans, spans[1:]))
    words = " ".join(f"w{i % 311}" for i in range(120000)).split()
    return len(ordered) + shared + len(set(words))


if __name__ == "__main__":
    work()
