"""The value records: construction, checks, immutability, equality, hash, repr, pickle."""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import pickle
import pkgutil
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

import fqhent
from fqhent import FockVector, MultiPoly, SlaterExpansion, family_expansion, laughlin
from fqhent._record import Record
from fqhent.entangle import SlaterPairing
from fqhent.figures import FigureSpec, SweepPoint
from fqhent.lll import Amplitude
from fqhent.measure import EntanglementReport, OneBodyDensityMatrix
from fqhent.quasihole import CondensateKernel, ScaledPoly
from fqhent.states import KMatrix, filling_fraction, hierarchical_phi_k
from fqhent.verify import CheckResult

HALF = Fraction(1, 2)


class One(Record):
    __slots__ = "value"  # a string names one slot, as Python reads it


class Empty(Record):
    __slots__ = ()


POLY = MultiPoly(2, {(1, 0): 3})

# class -> (parameter names, a value for each, other values that make an
# unequal record, their defaults, argument tuples its checks refuse with
# ValueError and the message they match)
RECORDS = {
    FigureSpec: (
        ("id", "series", "t_values"),
        (2, (("laughlin", 3),), (0, 1, 2)),
        (3, (("chi", 5),), (0,)),
        {},
        [((6, (), ()), "figure id"), ((1, (), (0, -1)), "non-negative")],
    ),
    SweepPoint: (
        ("family", "n_electrons", "m", "measure_bits"),
        ("chi", 4, 5, None),
        ("laughlin", 2, 3, 1.0),
        {},
        [],
    ),
    Amplitude: (("sign", "magnitude_sq"), (-1, Fraction(1, 3)), (1, Fraction(2, 3)), {}, []),
    OneBodyDensityMatrix: (
        ("dim", "numerators", "denominator", "off_diagonal"),
        (2, (1, 1), 2, {(0, 1): Fraction(1, 4)}),
        (2, (1, 2), 3, {}),
        {"off_diagonal": {}},
        [
            ((3, (1, 1), 2), "not dim"),
            ((2.0, (1, 1), 2), "dim must be a Python int"),
            ((2, (1, 1), 2.0), "denominator must be a Python int"),
            ((2, (1, 1), 2, {(1, 0): HALF}), "sparsely"),
            ((2, (1, 1), 2, {(0, 1): 0}), "sparsely"),
            ((2, (1, 1), 2, {(0, 1): math.nan}), "not finite"),
            ((2, (1, 1), 2, {(0, 1): math.inf}), "not finite"),
            ((2, (1, 1), 2, {(0, 1): -math.inf}), "not finite"),
            ((2, (1, 1), 2, {(0, 1): np.float64("inf")}), "not finite"),
            ((2, (3, 2), 6), "trace is 5/6"),
            ((2, (0, 0), 0), "trace is 0/0"),
            ((2, (3, -1), 2), "numerator -1 is not a non-negative Python int"),
            ((2, (True, False), 1), "numerator True is not a non-negative Python int"),
            ((2, (np.int64(1), np.int64(0)), 1), "not a non-negative Python int"),
            ((2, (Decimal("0.5"), Decimal("0.5")), 1), "not a non-negative Python int"),
            ((2, ("1", "0"), 1), "not a non-negative Python int"),
        ],
    ),
    EntanglementReport: (
        ("n_particles", "entropy_nats", "measure_nats", "measure_bits", "family", "m"),
        (2, 1.0, 0.25, 0.5, "laughlin", 3),
        (3, 2.0, 0.5, 0.75, None, None),
        {},
        [],
    ),
    CondensateKernel: (
        ("n_electrons", "p"), (3, 2), (4, 0), {}, [((0, 2), "electron"), ((3, -1), "exponent")]
    ),
    ScaledPoly: (
        ("scale", "poly"),
        (Fraction(-2, 3), POLY),
        (Fraction(1), MultiPoly(2, {(0, 1): 1})),
        {},
        [((Fraction(0), POLY), "scale"), ((Fraction(1), MultiPoly(2)), "scale")],
    ),
    KMatrix: (
        ("entries", "charge"),
        (((3, 1), (1, -2)), (1, 1)),
        (((1, 0), (0, 1)), (0, 1)),
        {"charge": (1, 0)},
        [
            ((((3, 1), (1, -2)), (1, 0, 0)), "2 entries"),
            ((((3, 1), (1, -2)), (1.5, 0)), "integers: 1.5 is not an integer"),
            ((((3, 1), (1, -2)), 1), "must be integers: 'int' object is not iterable"),
            ((((3, 1), (2, -2)),), "symmetric"),
            ((((1, 1), (1, 1)),), "invertible"),
        ],
    ),
    SlaterPairing: (
        ("pairs", "residual", "basis"),
        (((0, 1, 1.0),), 2, "orbital"),
        (((0, 1, 0.6), (2, 3, 0.8)), 0, "rotated"),
        {},
        [
            ((((0, 1, 1.0),), 0, "spectral"), "basis"),
            ((((0, 1, 0.5),), 0, "rotated"), "squared sum"),
        ],
    ),
    CheckResult: (
        ("name", "status", "detail"), ("anchor", "info", "3 points"), ("dyson", "pass", ""), {}, []
    ),
}

# class -> (arguments, other arguments that build an equal value: terms in
# another order, a zero term, repeated keys or weights with a common factor)
TERM_MAPS_AND_FOCK_VECTOR_ARGS = {
    MultiPoly: ((2, {(2, 0): 1, (0, 1): -4}), (2, {(0, 1): -4, (1, 1): 0, (2, 0): 1})),
    SlaterExpansion: ((2, {(3, 0): 5}), (2, [((3, 0), 2), ((3, 0), 3)])),
    FockVector: ((2, 4, {(0, 3): 3, (1, 2): -1}), (2, 4, {(1, 2): -2, (0, 3): 6})),
}
TERM_MAPS_AND_FOCK_VECTORS = [
    cls(*args) for cls, (args, _) in TERM_MAPS_AND_FOCK_VECTOR_ARGS.items()
]


def _type_name(value: object) -> str:
    return type(value).__name__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls, monkeypatch):
    names, values, other, defaults, refused = RECORDS[cls]
    record = cls(*values)
    if "__init__" in vars(cls):  # a constructor that checks or defaults takes names too
        assert record == cls(**dict(zip(names, values)))
    else:  # Record.__init__ takes the fields in order
        with pytest.raises(TypeError):
            cls(**dict(zip(names, values)))
    assert record != cls(*other)
    assert tuple(getattr(record, name) for name in names) == values

    # defaults, the dict one fresh for each instance
    required = values[: len(values) - len(defaults)]
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(first, name) == default
        if isinstance(default, dict):
            assert getattr(first, name) is not getattr(second, name)

    for args, message in refused:
        with pytest.raises(ValueError, match=message):
            cls(*args)

    for name in (*names, "other"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    assert record != values
    assert hash(record) == hash(cls(*values))

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record

    # a subclass that declares no slots keeps its base's fields; it is made
    # importable by its name so that pickle can find it
    class Subclass(cls):
        __slots__ = ()

    Subclass.__qualname__ = "Subclass"
    monkeypatch.setattr(sys.modules[__name__], "Subclass", Subclass, raising=False)
    sub = Subclass(*values)
    assert sub != record and record != sub
    assert sub == Subclass(*values) and sub != Subclass(*other)
    assert hash(sub) == hash(record)
    assert repr(sub) == f"Subclass({fields})"
    copy = pickle.loads(pickle.dumps(sub))
    assert type(copy) is Subclass and copy == sub


@pytest.mark.parametrize("cls", TERM_MAPS_AND_FOCK_VECTOR_ARGS, ids=lambda cls: cls.__name__)
def test_term_map_and_fock_vector_record_contract(cls, monkeypatch):
    # the contract test_record_contract checks, for the records whose
    # constructor takes a dict and normalizes it
    args, equal_args = TERM_MAPS_AND_FOCK_VECTOR_ARGS[cls]
    value, equal = cls(*args), cls(*equal_args)
    assert value == equal and equal == value
    assert hash(value) == hash(equal)

    class Subclass(cls):
        __slots__ = ()

    Subclass.__qualname__ = "Subclass"
    monkeypatch.setattr(sys.modules[__name__], "Subclass", Subclass, raising=False)
    sub = Subclass(*args)
    assert sub != value and value != sub
    assert sub == Subclass(*equal_args) and hash(sub) == hash(value)
    assert repr(value).startswith(f"{cls.__name__}(")
    assert repr(sub) == "Subclass" + repr(value)[len(cls.__name__):]
    copy = pickle.loads(pickle.dumps(sub))
    assert type(copy) is Subclass and copy == sub


@pytest.mark.parametrize("value", TERM_MAPS_AND_FOCK_VECTORS, ids=_type_name)
def test_term_maps_and_fock_vectors_refuse_del_and_pickle(value):
    with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
        del value.other
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


@pytest.mark.parametrize("value", TERM_MAPS_AND_FOCK_VECTORS, ids=_type_name)
def test_term_map_and_fock_vector_fields_are_immutable(value):
    names = ("n_particles", "dim", "total") if isinstance(value, FockVector) else ("nvars",)
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            delattr(value, name)
        assert getattr(value, name) == before


def test_fields_are_collected_along_the_mro_and_counted():
    assert MultiPoly._fields == SlaterExpansion._fields == ("nvars", "terms")
    assert FockVector._fields == ("n_particles", "dim", "weights", "total")
    assert One._fields == ("value",) and Empty._fields == ()
    with pytest.raises(TypeError, match="SweepPoint takes 4 fields, not 3"):
        SweepPoint("chi", 4, 5)


@pytest.mark.parametrize(
    "value",
    [*TERM_MAPS_AND_FOCK_VECTORS, laughlin(3, 3), family_expansion("chi", 3, 5)],
    ids=[*map(_type_name, TERM_MAPS_AND_FOCK_VECTORS), "to_fock", "family_expansion"],
)
def test_terms_and_weights_are_one_stored_read_only_view(value):
    # built by the checking constructors and by the pipeline's unchecked ones
    name = "weights" if isinstance(value, FockVector) else "terms"
    view = getattr(value, name)
    assert type(view) is MappingProxyType and getattr(value, name) is view
    key = next(iter(view))
    with pytest.raises(TypeError):
        view[key] = 1
    with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
        setattr(value, name, dict(view))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
    assert type(getattr(copy, name)) is MappingProxyType
    assert getattr(copy, name) is getattr(copy, name)


def _lists(value: object) -> object:
    """value with every tuple in it, nested ones too, made a list."""
    return [_lists(item) for item in value] if isinstance(value, tuple) else value


def _immutable(value: object) -> bool:
    """Whether value holds no list, dict or numpy integer, at any depth."""
    if isinstance(value, (list, dict, np.integer)):
        return False
    return all(map(_immutable, value)) if isinstance(value, tuple) else True


def test_records_built_from_lists_hold_their_tuple_form():
    for cls, (_, values, *_) in RECORDS.items():
        form, record = cls(*values), cls(*map(_lists, values))
        assert record == form and hash(record) == hash(form), cls.__name__
        assert pickle.loads(pickle.dumps(record)) == form, cls.__name__
        assert all(map(_immutable, record._get(record))), cls.__name__


def test_k_matrix_holds_python_ints_whatever_integers_it_is_given():
    form = KMatrix(((3, 1), (1, -2)))
    for entries, charge in (
        ([[3, 1], [1, -2]], [1, 0]),
        (np.array([[3, 1], [1, -2]]), np.array([1, 0])),
        ([[np.int64(3), np.int8(1)], (np.int32(1), np.int64(-2))], (np.int64(1), 0)),
    ):
        k = KMatrix(entries, charge)
        assert k == form == hierarchical_phi_k(3) and hash(k) == hash(form)
        assert pickle.loads(pickle.dumps(k)) == form
        assert (k.entries, k.charge) == (((3, 1), (1, -2)), (1, 0))
        assert {type(v) for row in (*k.entries, k.charge) for v in (row, *row)} == {tuple, int}
    rows = [[3, 1], [1, -2]]
    k = KMatrix(rows)
    rows[0][0] = 5
    with pytest.raises(TypeError):
        k.entries[0][0] = 5
    assert k == form and filling_fraction(k) == Fraction(2, 7)
    # int64 products overflow: 2**62 * 2**62 - 1 wrapped to -1
    assert KMatrix(np.array([[2**62, 1], [1, 2**62]])).determinant == 2**124 - 1


def _descendants(cls: type) -> set[type]:
    return {sub for child in cls.__subclasses__() for sub in (child, *_descendants(child))}


def test_every_record_is_covered_by_a_contract_test():
    for module in pkgutil.iter_modules(fqhent.__path__):
        importlib.import_module(f"fqhent.{module.name}")
    records = {cls for cls in _descendants(Record) if cls.__module__.startswith("fqhent.")}
    covered = set(RECORDS) | {type(value) for value in TERM_MAPS_AND_FOCK_VECTORS}
    for cls in records - covered:
        # a base, such as poly._TermMap, is covered through its records
        below = _descendants(cls) & records
        assert below and below <= covered, f"{cls.__qualname__} has no record-contract test"


def test_no_class_outside_record_defines_eq_or_hash():
    # Record decides every record's equality and hash from its fields
    for module in pkgutil.iter_modules(fqhent.__path__):
        name = f"fqhent.{module.name}"
        for cls in vars(importlib.import_module(name)).values():
            if isinstance(cls, type) and cls.__module__ == name != "fqhent._record":
                assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__qualname__


# the classes that print or pickle by their own methods: FockVector's
# constructor takes weights and reduces them, so it does not take its
# fields, and _TermMap prints its terms sorted
OWN_REPR_OR_REDUCE = {"FockVector": {"__repr__", "__reduce__"}, "_TermMap": {"__repr__"}}


def test_only_the_listed_classes_define_repr_or_reduce():
    # Record prints and pickles every other record by its fields
    for module in pkgutil.iter_modules(fqhent.__path__):
        name = f"fqhent.{module.name}"
        for cls in vars(importlib.import_module(name)).values():
            if isinstance(cls, type) and cls.__module__ == name != "fqhent._record":
                own = {"__repr__", "__reduce__"} & set(vars(cls))
                assert own == OWN_REPR_OR_REDUCE.get(cls.__qualname__, set()), cls.__qualname__


def _forwards_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether the body, but for a docstring, is one super().__init__ call
    that passes the method's own parameters in order."""
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "__init__"
        and isinstance(call.func.value, ast.Call)
        and isinstance(call.func.value.func, ast.Name)
        and call.func.value.func.id == "super"
        and not call.keywords
        and [getattr(arg, "id", None) for arg in call.args]
        == [arg.arg for arg in init.args.args[1:]]
    )


def test_no_record_constructor_only_forwards_its_fields():
    # Record.__init__ takes the fields in order, so a constructor whose body
    # only passes its own parameters on restates the slots, defaults or not
    for module in pkgutil.iter_modules(fqhent.__path__):
        importlib.import_module(f"fqhent.{module.name}")
    inits = {
        cls.__qualname__: vars(cls)["__init__"]
        for cls in _descendants(Record)
        if cls.__module__.startswith("fqhent.") and "__init__" in vars(cls)
    }
    forwarding = [
        name
        for name, init in sorted(inits.items())
        if _forwards_its_parameters(ast.parse(textwrap.dedent(inspect.getsource(init))).body[0])
    ]
    assert inits
    assert forwarding == []


@pytest.mark.parametrize(("cls", "values", "other"), [(One, (3,), (4,)), (Empty, (), None)])
def test_records_of_one_field_and_of_none(cls, values, other):
    record = cls(*values)
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    assert record != values and One(3) != Empty() and Empty() != One(3)
    if other is not None:
        assert record != cls(*other)
    assert repr(record) == {One: "One(value=3)", Empty: "Empty()"}[cls]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
