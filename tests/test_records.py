"""The seven public records: repr, equality, immutability and hashing.

README promises that the records are frozen, that a record equals only a
record of its own type, and that all but BettiTable and LCTable (which hold
dicts) are hashable. These tests pin that, each record's repr, its
constructor by position and by keyword, copy and pickle, and positional
class patterns, without reading how the records are implemented. The
library builds records it knows to be valid through the unchecked
Cls._trusted(*fields); the last tests hold it to the constructor.
"""

import copy
import pickle

import pytest

from glinv import (
    BettiTable,
    DegreeWindow,
    InvariantIdeal,
    IrredTerm,
    LCTable,
    MatrixContext,
    ZPair,
    betti_table,
    lc_table,
    power_of_minors,
)


def _ctx():
    return MatrixContext(3, 2)


# a builder of a fresh record, its field names, its repr, whether it hashes
RECORDS = [
    (_ctx, ("m", "n"), "MatrixContext(m=3, n=2)", True),
    (lambda: power_of_minors(_ctx(), 1, 2), ("ctx", "gens"),
     "InvariantIdeal(ctx=MatrixContext(m=3, n=2), gens=((2,), (1, 1)))", True),
    (lambda: ZPair((2, 2), 1), ("z", "l"), "ZPair(z=(2, 2), l=1)", True),
    (lambda: DegreeWindow(-5, -2), ("lo", "hi"), "DegreeWindow(lo=-5, hi=-2)", True),
    (lambda: IrredTerm((1,), (1,), 1), ("wm", "wn", "degree", "multiplicity"),
     "IrredTerm(wm=(1,), wn=(1,), degree=1, multiplicity=1)", True),
    (lambda: betti_table(_ctx(), 2, 1), ("entries",),
     "BettiTable(entries={(0, 2): 3, (1, 3): 2})", False),
    (lambda: lc_table(_ctx(), 1), ("ctx", "p", "rows"),
     "LCTable(ctx=MatrixContext(m=3, n=2), p=1, rows={6: {0: 1}})", False),
]

CASES = [pytest.param(*entry, id=entry[2].split("(")[0]) for entry in RECORDS]


def test_every_record_is_listed():
    assert {type(make()) for make, *_ in RECORDS} == {
        MatrixContext, InvariantIdeal, ZPair, DegreeWindow, IrredTerm, BettiTable, LCTable}


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_repr(make, names, shown, hashable):
    assert repr(make()) == shown


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_equal_only_to_its_own_type(make, names, shown, hashable):
    record, twin = make(), make()
    assert record is not twin and record == twin
    fields = tuple(getattr(record, name) for name in names)
    assert record != fields and fields != record


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_setting_a_field_raises(make, names, shown, hashable):
    record = make()
    for name in names:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
    assert repr(record) == shown


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_hash(make, names, shown, hashable):
    if hashable:
        assert hash(make()) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(make())


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_constructor_takes_each_field_by_position_or_keyword(make, names, shown, hashable):
    record = make()
    cls, fields = type(record), tuple(getattr(record, name) for name in names)
    assert cls(*fields) == record == cls(**dict(zip(names, fields)))
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], fields[1:])))  # the first field missing
    with pytest.raises(TypeError):
        cls(*fields, fields[-1])
    with pytest.raises(TypeError):
        cls(*fields, extra=1)


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_copy_and_pickle_give_an_equal_record(make, names, shown, hashable):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == shown


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_positional_class_pattern(make, names, shown, hashable):
    record = make()
    match record:
        case MatrixContext(m, n):
            bound = (m, n)
        case InvariantIdeal(ctx, gens):
            bound = (ctx, gens)
        case ZPair(z, l):
            bound = (z, l)
        case DegreeWindow(lo, hi):
            bound = (lo, hi)
        case IrredTerm(wm, wn, degree, multiplicity):
            bound = (wm, wn, degree, multiplicity)
        case BettiTable(entries):
            bound = (entries,)
        case LCTable(ctx, p, rows):
            bound = (ctx, p, rows)
    assert bound == tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("make,names,shown,hashable", CASES)
def test_trusted_builds_the_record_the_constructor_builds(make, names, shown, hashable):
    record = make()
    cls, fields = type(record), tuple(getattr(record, name) for name in names)
    trusted = cls._trusted(*fields)
    assert type(trusted) is cls and trusted._key == record._key
    assert trusted == record and record == trusted and repr(trusted) == shown
    if hashable:
        assert hash(trusted) == hash(record)
    twin = pickle.loads(pickle.dumps(trusted))
    assert type(twin) is cls and twin == record and repr(twin) == shown


def test_trusted_skips_the_check():
    with pytest.raises(ValueError):
        ZPair((1, 2), 0)
    zp = ZPair._trusted((1, 2), 0)
    assert (zp.z, zp.l, zp._key) == ((1, 2), 0, ((1, 2), 0))
    with pytest.raises(ValueError):
        DegreeWindow(3, 2)
    assert DegreeWindow._trusted(3, 2)._key == (3, 2)
