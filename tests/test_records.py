"""The value records: construction, checks, immutability, equality, hash, repr, pickle."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from fqhent import FockVector, MultiPoly, SlaterExpansion
from fqhent.entangle import SlaterPairing
from fqhent.figures import FigureSpec, SweepPoint
from fqhent.lll import Amplitude
from fqhent.measure import EntanglementReport, OneBodyDensityMatrix
from fqhent.quasihole import CondensateKernel, ScaledPoly
from fqhent.states import KMatrix
from fqhent.verify import CheckResult

HALF = Fraction(1, 2)
POLY = MultiPoly(2, {(1, 0): 3})

# class -> (parameter names, a value for each, their defaults, argument
# tuples its checks refuse with ValueError and the message they match)
RECORDS = {
    FigureSpec: (
        ("id", "series", "t_values"),
        (2, (("laughlin", 3),), (0, 1, 2)),
        {},
        [((6, (), ()), "figure id"), ((1, (), (0, -1)), "non-negative")],
    ),
    SweepPoint: (("family", "n_electrons", "m", "measure_bits"), ("chi", 4, 5, None), {}, []),
    Amplitude: (("sign", "magnitude_sq"), (-1, Fraction(1, 3)), {}, []),
    OneBodyDensityMatrix: (
        ("dim", "diag", "off_diagonal"),
        (2, (HALF, HALF), {(0, 1): Fraction(1, 4)}),
        {"off_diagonal": {}},
        [
            ((3, (HALF, HALF)), "not dim"),
            ((2, (HALF, HALF), {(1, 0): HALF}), "sparsely"),
            ((2, (HALF, HALF), {(0, 1): 0}), "sparsely"),
            ((2, (HALF, Fraction(1, 3))), "trace is 5/6"),
            ((2, (0.5, 0.25)), "trace is 0.75"),
            ((2, (Fraction(3, 2), -HALF)), "negative"),
            ((2, (1.5, -0.5)), "negative"),
        ],
    ),
    EntanglementReport: (
        ("n_particles", "entropy_nats", "measure_nats", "measure_bits", "family", "m"),
        (2, 1.0, 0.25, 0.5, "laughlin", 3),
        {"family": None, "m": None},
        [],
    ),
    CondensateKernel: (
        ("n_electrons", "p"), (3, 2), {}, [((0, 2), "electron"), ((3, -1), "exponent")]
    ),
    ScaledPoly: (
        ("scale", "poly"),
        (Fraction(-2, 3), POLY),
        {},
        [((Fraction(0), POLY), "scale"), ((Fraction(1), MultiPoly.zero(2)), "scale")],
    ),
    KMatrix: (
        ("entries", "charge"),
        (((3, 1), (1, -2)), (1, 1)),
        {"charge": (1, 0)},
        [
            ((((3, 1), (1, -2)), (1, 0, 0)), "2 entries"),
            ((((3, 1), (1, -2)), (1.5, 0)), "integers"),
            ((((3, 1), (2, -2)),), "symmetric"),
            ((((1, 1), (1, 1)),), "invertible"),
        ],
    ),
    SlaterPairing: (
        ("pairs", "residual", "basis"),
        (((0, 1, 1.0),), 2, "orbital"),
        {},
        [
            ((((0, 1, 1.0),), 0, "spectral"), "basis"),
            ((((0, 1, 0.5),), 0, "rotated"), "squared sum"),
        ],
    ),
    CheckResult: (("name", "status", "detail"), ("anchor", "info", "3 points"), {}, []),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    names, values, defaults, refused = RECORDS[cls]
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
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

    class Subclass(cls):
        __slots__ = ()

    assert record != Subclass(*values)
    assert record != values

    assert hash(record) == hash(cls(*values))

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


@pytest.mark.parametrize(
    "value",
    [
        MultiPoly(2, {(2, 0): 1, (0, 1): -4}),
        SlaterExpansion(2, {(3, 0): 5}),
        FockVector(2, 4, {(0, 3): 3, (1, 2): -1}),
    ],
    ids=lambda value: type(value).__name__,
)
def test_term_maps_and_fock_vectors_refuse_del_and_pickle(value):
    with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
        del value.other
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
