"""Immutable record classes, built without generating code.

A subclass of `Record` lists its fields as annotations, in order, with
optional defaults; a field without a default is required, and a default
is shared by every instance, so it must be immutable.  It gets an
``__init__`` that takes the fields by position or by name, fills the
missing ones from their defaults and then calls ``__post_init__`` if the
class defines one; a ``__repr__`` naming the class and its fields; and,
unless it is declared with ``eq=False``, ``__eq__`` and ``__hash__`` over
the tuple of its field values (an ``eq=False`` record compares and hashes
by identity).  Assignment and deletion raise `AttributeError`;
``__post_init__`` may still normalize a field with ``object.__setattr__``,
and `functools.cached_property` works, as instances keep a ``__dict__``.

These are the semantics of a frozen dataclass, but ``__init__``,
``__eq__`` and ``__hash__`` are closures made once per class, and the rest
is shared by the base: nothing is compiled with ``exec``, which is most of
what defining a dataclass costs at import.  A subclass of a record that
adds no fields keeps its record's methods.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the package's immutable value and result records."""

    _fields = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        if not names:  # a subclass that adds no fields keeps its record's methods
            return
        if cls._fields:
            raise TypeError(f"{cls.__qualname__} cannot add fields to a record")
        fields = frozenset(names)
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        post_init = getattr(cls, "__post_init__", None)
        title = cls.__qualname__

        def refuse(given: dict) -> None:
            for name in given.keys() - fields:
                raise TypeError(f"{title}() got an unexpected field {name!r}")
            missing = next(name for name in names if name not in given)
            raise TypeError(f"{title}() missing field {missing!r}")

        def __init__(self, *args, **values):
            given = self.__dict__
            given.update(defaults)
            if args:
                if len(args) > len(names):
                    raise TypeError(f"{title}() takes {len(names)} fields, "
                                    f"got {len(args)} positional values")
                given.update(zip(names, args))
                if values and not values.keys().isdisjoint(names[:len(args)]):
                    raise TypeError(f"{title}() got two values for a field")
            given.update(values)
            if given.keys() != fields:
                refuse(given)
            if post_init is not None:
                post_init(self)

        cls._fields = names
        cls.__init__ = __init__
        if eq:
            get = attrgetter(*names)
            key = get if len(names) > 1 else lambda self: (get(self),)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return key(self) == key(other)
                return NotImplemented

            cls.__eq__ = __eq__
            cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
