"""Frozen record classes, made without the ``dataclasses`` module.

``@record`` gives a class with annotated fields what
``@dataclass(frozen=True)`` gives it: a constructor taking the fields
positionally or by keyword (a class attribute is the field's default) that
calls ``__post_init__`` when the class has one; the dataclass ``repr``;
equality and hashing over the field tuple, equal only to the same class; and
an ``AttributeError`` on assigning or deleting any attribute. The methods are
plain closures over the field names. ``dataclasses`` imports ``inspect`` and
builds each method with ``exec``, which roughly tripled the time it took to
import the package, and every ``qalg`` command pays its import.
"""

from __future__ import annotations

from operator import attrgetter


def _names(names: list[str]) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own call errors
    list missing arguments."""
    quoted = [repr(n) for n in names]
    if len(quoted) == 1:
        return quoted[0]
    if len(quoted) == 2:
        return f"{quoted[0]} and {quoted[1]}"
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _bind(qualname: str, fields: tuple[str, ...], defaults: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of a call that is not exactly one positional argument
    per field, with the TypeError an ``__init__(self, *fields)`` with these
    defaults would raise."""
    where = f"{qualname}.__init__()"
    n = len(fields)
    values = list(args[:n])
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(values):
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    if len(args) > n:
        if defaults:
            sig, plural = f"from {n - len(defaults) + 1} to {n + 1}", "s"
        else:
            sig, plural = str(n + 1), "s" if n else ""
        raise TypeError(f"{where} takes {sig} positional argument{plural} but {len(args) + 1} were given")
    first_default = n - len(defaults)
    missing = []
    for i in range(len(values), n):
        name = fields[i]
        if name in kwargs:
            values.append(kwargs[name])
        elif i >= first_default:
            values.append(defaults[i - first_default])
        else:
            missing.append(name)
            values.append(None)
    if missing:
        raise TypeError(
            f"{where} missing {len(missing)} required positional argument{'s' if len(missing) > 1 else ''}: {_names(missing)}"
        )
    return values


def record(cls):
    """Make cls a frozen record over its annotated fields, in order."""
    fields = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults) :]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    n = len(fields)
    qualname = cls.__qualname__
    post_init = getattr(cls, "__post_init__", None)
    setattr_ = object.__setattr__
    getter = attrgetter(*fields) if n > 1 else lambda self: tuple(getattr(self, f) for f in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(qualname, fields, defaults, args, kwargs)
        # One object.__setattr__ per field, as dataclasses does: filling
        # self.__dict__ in one update measured about four times slower on
        # every later attribute read.
        for name, value in zip(fields, args):
            setattr_(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return getter(self) == getter(other)
        return NotImplemented

    def __hash__(self):
        return hash(getter(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls
