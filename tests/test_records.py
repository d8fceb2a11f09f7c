"""The immutable record classes: construction, equality, hashing,
immutability and the messages of their validation errors."""

import copy
import pickle
from fractions import Fraction

import pytest

from qbichromate.chordal import TreeStructure
from qbichromate.graphcore import Multigraph, _Record
from qbichromate.knotdiag import Crossing, Face, KnotPD, MedianGraph
from qbichromate.statmech import Couplings

# Each record class with the fields of two records that differ.
RECORDS = {
    Multigraph: ((2, ((1, 2),)), (2, ((1, 1),))),
    Crossing: ((1, (1, 2, 3, 4)), (-1, (1, 2, 3, 4))),
    KnotPD: (((Crossing(1, (1, 2, 3, 4)),),),
             ((Crossing(-1, (1, 2, 3, 4)),),)),
    Face: ((0, ((0, 1),), (1, 2)), (1, ((0, 1),), (1, 2))),
    MedianGraph: ((Multigraph(1, ()), (1,), (2,)),
                  (Multigraph(1, ()), (-1,), (2,))),
    TreeStructure: (((0,), (frozenset({1}),), (frozenset(),)),
                    ((0,), (frozenset({2}),), (frozenset(),))),
    Couplings: (("v", (Fraction(1, 2),)), ("v", (Fraction(1, 3),))),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_compare_by_type_and_fields(cls):
    fields, other = RECORDS[cls]
    names = cls.__slots__
    a = cls(*fields)
    b = cls(**dict(zip(names, fields)))
    assert tuple(getattr(b, name) for name in names) == fields
    assert a == b and not a != b
    # The hash of the field tuple, as the frozen dataclasses had.
    assert hash(a) == hash(b) == hash(fields)
    assert {a, b} == {a} and {a: 1}[b] == 1
    assert a != cls(*other) and len({a, cls(*other)}) == 2
    # Another type with the same fields, or the bare tuple, is not equal.
    twin = type("Twin", (_Record,), {"__slots__": names})(*fields)
    assert a != twin and twin != a and a != fields
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % pair for pair in zip(names, fields)))
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    fields, other = RECORDS[cls]
    a = cls(*fields)
    for name, value in zip(cls.__slots__, other):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*fields)


@pytest.mark.parametrize("build, message", [
    (lambda: Multigraph(-1, ()), "vertex_count must be >= 0"),
    (lambda: Multigraph(2, ((1, 3),)), "edge (1, 3) out of range 1..2"),
    (lambda: Multigraph(vertex_count=2, edges=((0, 1),)),
     "edge (0, 1) out of range 1..2"),
    (lambda: Crossing(0, (1, 2, 3, 4)), "crossing sign must be +1 or -1"),
    (lambda: Crossing(sign=1, slots=(1, 2, 3)),
     "a crossing has exactly four slots"),
    (lambda: Couplings("v", (0.5,)), "v couplings must be Fractions"),
    (lambda: Couplings("ch", ((1, 0),)), "ch couplings must be Fraction pairs"),
    (lambda: Couplings("ch", ((Fraction(2), Fraction(1)),)),
     "invalid hyperbolic pair (2, 1): need c^2 - h^2 = 1 and c > 0"),
    (lambda: Couplings("ch", ((Fraction(-5, 4), Fraction(3, 4)),)),
     "invalid hyperbolic pair (-5/4, 3/4): need c^2 - h^2 = 1 and c > 0"),
    (lambda: Couplings(kind="x", values=()),
     "coupling kind must be 'v' or 'ch', got 'x'"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
