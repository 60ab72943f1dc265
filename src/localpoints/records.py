"""The base of the package's immutable records."""


class Record:
    """Equality, hash and repr over the fields a subclass names in _fields.

    A record is built by its own __init__ and is treated as immutable, as
    FieldElement is: nothing guards its attributes, so building one costs no
    more than setting them.  Records of different classes are never equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
