"""The immutable base of the value records, written out by hand: generated
frozen records load inspect, ast, dis and tokenize, a fifth of a cold CLI start."""


class Record:
    """Immutable value whose fields are the __slots__ along its MRO, the
    bases' first, collected per class into _fields; Record.__init__(*values)
    is the one writer, and sets them in that order.  Records equal only
    records of their own class, and hash, print and pickle by their field
    values, so a subclass that declares no slots keeps its base's fields.
    A dict field calls for its own __hash__, fields that are not the
    constructor's arguments for __reduce__ and __repr__; OneBodyDensityMatrix
    also has __eq__, as it is equal to itself over any denominator."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values: object) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, not {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
