"""The base of the package's immutable records.

A record class names the fields that equality and hashing read
(_compared) and those its repr shows (_shown), and writes its own
__init__, which sets the fields by object.__setattr__, as the __init__
of a frozen dataclass does, and runs its checks.  Equality holds
between instances of the same class with equal compared fields, as a
tuple; the hash is that tuple's; the repr is Class(field=value, ...)
over the shown fields.  Assigning or deleting an attribute raises
dataclasses.FrozenInstanceError; cached properties and the records' own
lazy fields write the instance dict directly.  dataclasses, whose import
loads inspect and ast, is imported only to raise.
"""


class Record:
    __slots__ = ()
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
