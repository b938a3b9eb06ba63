"""Frozen record classes, made without the ``dataclasses`` module, and the
rules they share with the immutable value classes.

``Frozen`` states once how an immutable value is filled in, compared and
hashed: a constructor writes its fields with ``_set``, the one way past the
guard that refuses assignment and deletion; values of the same class are
equal when their ``_key()`` tuples are; the hash is that of ``_key()``, kept
in the ``_hash`` slot on first use. Each value class gives only ``_key()``.

``@record`` gives a class with annotated fields what
``@dataclass(frozen=True)`` gives it: a constructor taking the fields
positionally or by keyword (a class attribute is the field's default) that
calls ``__post_init__`` when the class has one; the dataclass ``repr``;
equality and hashing over the field tuple, equal only to the same class; and
an ``AttributeError`` on assigning or deleting any attribute. The guard,
``_set`` and ``__eq__`` are ``Frozen``'s, with the field tuple as key; the
hash is not kept, as a record has no slot for it. Only ``__init__`` is
generated, one ``def`` per class, so that Python binds each call, raises its
own ``TypeError`` for a bad one and shows the fields in
``inspect.signature``; it costs about 50 microseconds a class.
``dataclasses`` imports ``inspect`` and builds about six methods per class
with ``exec``, which roughly tripled the time it took to import the package,
and every ``qalg`` command pays it.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Base of the immutable value classes; a subclass gives ``_key()``."""

    __slots__ = ("_hash",)

    def _set(self, **fields):
        """Write fields past the guard, for a constructor; returns self."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return self._set(_hash=hash(self._key()))._hash

    def __setstate__(self, state):
        """Fill a copy from (None, slot values) through _set. A kept hash is
        left out: an unpickled one may come from another platform's hash."""
        self._set(**{name: value for name, value in state[1].items() if name != "_hash"})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record over its annotated fields, in order."""
    fields = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults) :]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    qualname = cls.__qualname__
    post_init = getattr(cls, "__post_init__", None)
    setattr_ = object.__setattr__
    getter = attrgetter(*fields) if len(fields) > 1 else lambda self: tuple(getattr(self, f) for f in fields)

    def fill(self, values):
        # One object.__setattr__ per field, as dataclasses does: filling
        # self.__dict__ in one update measured about four times slower on
        # every later attribute read.
        for name, value in zip(fields, values):
            setattr_(self, name, value)
        if post_init is not None:
            post_init(self)

    # One line of body: a line per field would take about twice as long to
    # compile.
    params = ", ".join(fields)
    namespace = {"__name__": __name__, "_fill": fill}
    exec(f"def __init__(self, {params}):\n    _fill(self, [{params}])", namespace)
    __init__ = namespace["__init__"]
    __init__.__defaults__ = defaults

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({inner})"

    def _key(self):
        return getter(self)

    def __hash__(self):
        return hash(getter(self))

    for method in (__init__, __repr__, _key, __hash__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    for name in ("_set", "__eq__", "__setattr__", "__delattr__"):
        setattr(cls, name, getattr(Frozen, name))
    cls.__match_args__ = fields
    return cls
