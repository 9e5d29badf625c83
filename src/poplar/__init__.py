"""Compiler toolchain for an object language with declarative integration
queries: label/protocol/resource/uniqueness checking, plan-based query
resolution, statement splicing, and upgrade-compatibility verification."""

__version__ = "0.1.0"

# Stores a field of a `Frozen` instance; its `__init__` is the one writer.
setfield = object.__setattr__


def replace(record, **changes):
    """A copy of `record`, a plain class instance, that holds `changes` in
    place of those fields and shares every other field's value."""
    new = object.__new__(record.__class__)
    vars(new).update(vars(record), **changes)
    return new


class Frozen:
    """A record whose fields are fixed once `__init__` has stored them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
