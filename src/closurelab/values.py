"""Value types written out: field-wise equality, hash and repr.

A Record subclass names its fields in `__slots__` and sets them in an
explicit `__init__`.  Two records of one class are equal when the fields
in `_fields` are (every slot, unless the class lists fewer), and a record
prints as `Class(field=value, ...)` over the same fields.  A Record can
be changed and has no hash; a Frozen one refuses assignment and hashes by
its fields.

These are the methods a dataclass would generate.  A dataclass compiles
them from source text each time its class is created, that is at every
import; for the package's value types that, with the import of
`dataclasses` itself, took about a fifth of `import closurelab`.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if cls._fields:
            # _key(record): the value of its one field, or a tuple of them
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def _set_slots(self, *values):
        """Set the slots, in their order, to values (in `__init__`)."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy hand back (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
