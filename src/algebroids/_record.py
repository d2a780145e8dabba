"""The base of the package's value classes, in place of frozen dataclasses.

A subclass names its fields in _fields; the constructor takes them in
that order, by position or by name, unless the subclass validates them
in its own __init__ and stores them with _set.  Equality, hash and repr
go by the fields, and assigning to an instance raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls):
        # The fields as one C-level getter: equality is the hot path.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        try:
            values += tuple(named.pop(name) for name in self._fields[len(values) :])
        except KeyError as err:
            raise TypeError("%s() missing argument %s" % (type(self).__name__, err)) from None
        if named or len(values) > len(self._fields):
            raise TypeError("%s() got unexpected arguments" % type(self).__name__)
        self._set(*values)

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._fields),
        )
