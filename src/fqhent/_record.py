"""The immutable base of the value records, written out by hand: generated
frozen records load inspect, ast, dis and tokenize, a fifth of a cold CLI start."""


class Record:
    """Immutable value whose fields are its __slots__, in __init__ order, set
    there with object.__setattr__.  Records equal only records of their own
    class, and hash, print and pickle by their field values.  A subclass
    whose slots are not its constructor's arguments overrides all four."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
