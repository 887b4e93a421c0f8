"""Plain record classes: what the package's data classes share.

A record's class names its fields, in constructor order, in _fields. Records
of one class compare equal when their fields do, and repr lists the fields.
A Frozen record is set once, by its constructor, and hashes by its fields.
These take no decorator, so defining them costs no more than any class.
"""


class Record:
    """Equality, repr and pickling by the fields in _fields; unhashable, as it is mutable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild a record through its constructor
        return type(self), self._values()


class Frozen(Record):
    """A record whose constructor sets its fields once, with _set; hashable by its fields."""

    __slots__ = ()

    def _set(self, *values):
        # through object.__setattr__, never __dict__: reading an instance's __dict__ would turn
        # its attributes into a plain dict, and reading them, as _walk does, 3x slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
