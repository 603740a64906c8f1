"""Immutable records, the value types that the pipeline passes between stages.

A subclass of ``Record`` declares its fields as class annotations, in order,
and a class-level value is that field's default.  A record is compared,
hashed and printed by its tuple of fields, as a frozen dataclass is, and a
variant is made with ``replace(**changes)`` (``copy.replace`` on Python
3.13+), which runs ``__post_init__`` again.  Building the classes this way
execs no generated code, so ``import wildcv`` does not pay for it.
"""

from __future__ import annotations


class Record:
    """Base of the immutable records; see the module docstring."""

    _fields = ()      # the field names, in declaration order
    _defaults = {}    # {name: default} of the fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, "
                            f"{len(args)} given")
        state = self.__dict__
        state.update(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated field "
                            f"{next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def _astuple(self) -> tuple:
        state = self.__dict__
        return tuple([state[name] for name in self._fields])

    def __reduce__(self):
        # a copy or an unpickled record is built anew, without cached values
        return type(self), self._astuple()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
                + ")")

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new record is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})

    __replace__ = replace
