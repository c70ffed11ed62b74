"""Every integer argument of the public functions is checked one way.

A bool, a float and a string are rejected, never coerced or passed on to a
TypeError, and so is an integer out of the argument's range. The ValueError
is one line that names the argument.
"""

import re

import pytest

from glinv import (
    DegreeWindow,
    MatrixContext,
    ZPair,
    attach,
    attainable_indices,
    betti_polynomial,
    dim_schur,
    dominant_weight,
    ds_character,
    enumerate_in_box,
    ext_min_degree,
    h_rect,
    lc_support,
    lc_table,
    make_ideal,
    partition,
    partitions_of_size_in_box,
    power_of_minors,
    qbinomial,
    saturate,
    saturated_power,
    saturation_filter,
    saturation_generators,
    strip_short_columns,
    succ_min,
    symbolic_power,
    truncate_columns,
    zset,
    zset_of_generators,
)
from glinv.partitions import pad_weight

CTX = MatrixContext(3, 3)
CUBE = power_of_minors(CTX, 1, 3)


def _zpair_in_context(l):
    # the l of a pair is checked against n where the pair meets a context
    return attainable_indices(CTX, ZPair((), l))


# function, valid arguments, and {position of an integer argument: an
# out-of-range value for it, or None where every integer is in range}
SLOTS = [
    (attach, (2, 2, (1,), (1,)), {0: 0, 1: 0}),
    (truncate_columns, ((2, 1), 1), {1: -1}),
    (enumerate_in_box, (2, 2), {0: -1, 1: -1}),
    (partitions_of_size_in_box, (2, 2, 2), {0: None, 1: -1, 2: -1}),
    (pad_weight, ((1,), 3), {1: -1}),
    (qbinomial, (4, 2), {0: -1, 1: -1}),
    (dim_schur, ((1,), 3), {1: 0}),
    (power_of_minors, (CTX, 2, 2), {1: 4, 2: -1}),
    (symbolic_power, (CTX, 2, 2), {1: 0, 2: -1}),
    (saturated_power, (CTX, 2, 2), {1: 4, 2: -1}),
    (strip_short_columns, ((2, 1), 1), {1: -1}),
    (saturation_generators, (CUBE, 1), {1: 4}),
    (saturate, (CUBE, 1), {1: -1}),
    (succ_min, (CTX, (1,), 0), {2: 3}),
    (ZPair, ((1,), 0), {1: -1}),
    (_zpair_in_context, (0,), {0: 3}),
    (saturation_filter, (zset(CUBE), 1), {1: -1}),
    (ext_min_degree, (CTX, ZPair((), 0), -9), {2: None}),
    (lc_table, (CTX, 2), {1: 4}),
    (lc_support, (CTX, 2), {1: 0}),
    (ds_character, (CTX, 0, DegreeWindow(-12, -9)), {1: 3}),
    (h_rect, (CTX, 2, 2), {1: 4, 2: 0}),
    (betti_polynomial, (CTX, 2, 1), {1: 0, 2: 0}),
    # the records keep their own range messages; only the types come here
    (MatrixContext, (3, 2), {0: None, 1: None}),
    (DegreeWindow, (-12, -9), {0: None, 1: None}),
]

CASES = [
    pytest.param(func, args, slot, bad,
                 id=f"{func.__name__.strip('_')}-{slot}-{bad!r}")
    for func, args, slots in SLOTS
    for slot, out in slots.items()
    for bad in (True, 1.5, "1", out) if bad is not None
]

HELPER_MESSAGE = re.compile(r"^[\w ]+ must be (an integer, got .+|at least -?\d+, got -?\d+"
                            r"|at most -?\d+, got -?\d+|in -?\d+\.\.-?\d+, got -?\d+)$")


def test_valid_arguments_pass():
    for func, args, _ in SLOTS:
        func(*args)


@pytest.mark.parametrize("func,args,slot,bad", CASES)
def test_integer_argument_is_checked(func, args, slot, bad):
    args = list(args)
    args[slot] = bad
    with pytest.raises(ValueError) as exc:
        func(*args)
    assert HELPER_MESSAGE.match(str(exc.value)), str(exc.value)


def test_message_names_the_argument():
    with pytest.raises(ValueError, match=r"^minor size p must be in 1\.\.3, got 4$"):
        power_of_minors(CTX, 4, 1)
    with pytest.raises(ValueError, match=r"^exponent d must be an integer, got True$"):
        power_of_minors(CTX, 1, True)
    with pytest.raises(ValueError, match=r"^j must be an integer, got 9\.0$"):
        ext_min_degree(CTX, ZPair((), 0), 9.0)
    with pytest.raises(ValueError, match=r"^N must be at least 1, got 0$"):
        dim_schur((), 0)


@pytest.mark.parametrize("func,args", [
    pytest.param(make_ideal, (CTX, [5]), id="make_ideal"),
    pytest.param(zset_of_generators, (CTX, [3]), id="zset_of_generators"),
    pytest.param(partition, (5,), id="partition"),
    pytest.param(dominant_weight, (5,), id="dominant_weight"),
    pytest.param(dim_schur, (7, 3), id="dim_schur"),
])
def test_integer_in_place_of_a_sequence_is_a_value_error(func, args):
    with pytest.raises(ValueError, match=r"^entries must be integers: 'int' object is not iterable$"):
        func(*args)


def test_index_types_are_accepted():
    class Three:
        def __index__(self):
            return 3

    assert qbinomial(Three(), 1) == qbinomial(3, 1)
    assert dim_schur((1,), Three()) == 3
    assert lc_table(CTX, Three()).rows == lc_table(CTX, 3).rows
    assert ZPair((), Three()) == ZPair((), 3)
    assert MatrixContext(Three(), Three()) == MatrixContext(3, 3)
    assert type(MatrixContext(Three(), Three()).m) is int
    assert DegreeWindow(Three(), Three()) == DegreeWindow(3, 3)
    assert type(DegreeWindow(Three(), Three()).hi) is int
