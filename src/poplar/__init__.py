"""Compiler toolchain for an object language with declarative integration
queries: label/protocol/resource/uniqueness checking, plan-based query
resolution, statement splicing, and upgrade-compatibility verification."""

__version__ = "0.1.0"

# Stores a field of a `Frozen` instance; its `__init__` is the one writer.
setfield = object.__setattr__


class Frozen:
    """A record whose fields are fixed once `__init__` has stored them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
