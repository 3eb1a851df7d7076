"""Frozen records: the one base of the package's value classes.

A record lists its fields, in order, in _fields, and as its __slots__
unless it keeps an instance dict; its __init__ validates and sets them
with object.__setattr__.  Records compare, hash, print, copy and pickle
by their fields, as frozen dataclasses do, without importing dataclasses.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # a tuple: every record has two fields or more

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        # a dict-backed record's dict holds its fields and what it keeps
        return getattr(self, "__dict__", None) or dict(zip(self._fields, self._key(self)))

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
