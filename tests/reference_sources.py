"""The `pathlib` reads that `poplar.cli` and `poplar.config` replaced with
`os.scandir`, `os.stat` and one binary read, kept as the reference for the
equivalence tests. They name, order and read files as the replacements must,
and must not be used outside the tests."""

from pathlib import Path


def find_sources(top: str) -> list[str]:
    """The `.pop` files under directory `top`, in `Path` order. A link to a
    file counts; a linked directory is not entered."""
    def walk(d: Path):
        for p in d.iterdir():
            if p.is_dir() and not p.is_symlink():
                yield from walk(p)
            elif p.name.endswith(".pop") and p.is_file():
                yield p
    return [str(p) for p in sorted(walk(Path(top)))]


def list_assumptions(directory: str) -> list[str]:
    """The `*.assume` files in `directory`, as `verify-upgrade` listed them."""
    return [str(f) for f in sorted(Path(directory).glob("*.assume")) if f.is_file()]


def read_text(path: str) -> str:
    """The text of a file as text mode reads it: UTF-8, universal newlines."""
    return Path(path).read_text(encoding="utf-8")
