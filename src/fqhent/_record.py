"""The immutable base of the value records, written out by hand: generated
frozen records load inspect, ast, dis and tokenize, a fifth of a cold CLI start."""

from operator import attrgetter
from types import MappingProxyType


class Record:
    """Immutable value whose fields are the __slots__ along its MRO, the
    bases' first, collected per class into _fields and read by one getter,
    _get; Record.__init__(*values) is the one writer and takes them in that
    order, so a subclass defines __init__ only to check or to default its
    fields.  Records equal only records of their own class, and hash, print
    and pickle by their field values, a dict field hashing by its items, so
    a subclass that declares no slots keeps its base's fields.  A record
    overrides only __reduce__ and __repr__: FockVector and
    OneBodyDensityMatrix, whose constructors do not take their fields, and
    _TermMap's repr, whose terms are sorted."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _get = staticmethod(lambda record: ())  # the field values, as a tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())  # a str is one slot name
        cls._fields = fields = cls._fields + ((slots,) if isinstance(slots, str) else tuple(slots))
        if len(fields) > 1:
            cls._get = staticmethod(attrgetter(*fields))
        elif fields:  # attrgetter of one name gives a bare value
            get = attrgetter(*fields)
            cls._get = staticmethod(lambda record: (get(record),))

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

    def __eq__(self, other: object) -> bool:
        return self._get(self) == other._get(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([
            frozenset(value.items()) if isinstance(value, (dict, MappingProxyType)) else value
            for value in self._get(self)
        ]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._get(self)
