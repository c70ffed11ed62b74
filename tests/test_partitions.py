from math import comb

import pytest

from glinv import (
    attach,
    conjugate,
    dominant_weight,
    dual_weight,
    enumerate_in_box,
    leq,
    minimalize,
    part,
    partition,
    partitions_of_size_in_box,
    qbinomial,
    size,
    truncate_columns,
)
from glinv.partitions import _sized, pad_weight

from _oracles import conjugate_boxes, qbinomial_pascal, sized_partitions


def test_partition_canonicalizes():
    assert partition((4, 2, 1, 0, 0)) == (4, 2, 1)
    assert partition([]) == ()
    assert partition((0, 0)) == ()
    assert partition(iter([3, 3])) == (3, 3)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


def test_non_integer_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="integers"):
        partition([2.7, 1])
    with pytest.raises(ValueError, match="integers"):
        partition(["1"])
    with pytest.raises(ValueError, match="integers"):
        dominant_weight([1.5])


def test_boolean_entries_are_rejected():
    # bool is an int subclass, so operator.index alone would read True as 1
    with pytest.raises(ValueError, match="booleans"):
        partition([True, True])
    with pytest.raises(ValueError, match="booleans"):
        partition([2, False])
    with pytest.raises(ValueError, match="booleans"):
        dominant_weight([True])


def test_part_reads_zero_past_the_end():
    x = (4, 2, 1)
    assert [part(x, i) for i in range(1, 6)] == [4, 2, 1, 0, 0]
    assert part((), 1) == 0


def test_size():
    assert size(()) == 0
    assert size((4, 2, 1)) == 7


def test_conjugate_matches_box_oracle():
    for x in enumerate_in_box(4, 4):
        assert conjugate(x) == conjugate_boxes(x)
        assert conjugate(conjugate(x)) == x


def test_leq_is_rowwise_containment():
    assert leq((), (1,))
    assert leq((2, 1), (2, 2))
    assert not leq((2, 2), (2, 1, 1))
    assert not leq((2, 1, 1), (2, 2))
    assert not leq((1, 1, 1), (3,))


def test_truncate_columns():
    assert truncate_columns((3, 2, 1), 1) == (1, 1, 1)
    assert truncate_columns((3, 2, 1), 0) == ()
    assert truncate_columns((3, 2, 1), 5) == (3, 2, 1)
    with pytest.raises(ValueError):
        truncate_columns((1,), -1)


def test_minimalize():
    assert minimalize([(2, 2), (1, 1), (2, 1)]) == ((1, 1),)
    assert minimalize([]) == ()
    assert minimalize([(3, 1), (2, 2)]) == ((3, 1), (2, 2))
    again = minimalize(minimalize([(2, 2), (1, 1), (2, 1)]))
    assert again == ((1, 1),)


def test_minimalize_sorts_descending_lex():
    out = minimalize([(2, 2, 2), (3, 2, 1), (3, 3)])
    assert out == ((3, 3), (3, 2, 1), (2, 2, 2))


def test_enumerate_in_box_order_and_count():
    assert enumerate_in_box(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    for rows in range(5):
        for cols in range(5):
            got = enumerate_in_box(rows, cols)
            assert len(got) == comb(rows + cols, rows)
            assert len(set(got)) == len(got)
            assert all(len(x) <= rows and (not x or x[0] <= cols) for x in got)
            # every partition one box smaller than an entry comes before it,
            # as the docstring states
            seen = set()
            for x in got:
                for i, v in enumerate(x):
                    if i + 1 == len(x) or x[i + 1] < v:
                        y = x[:i] + (v - 1,) + x[i + 1:]
                        assert (y if y[-1] else y[:-1]) in seen, (x, y)
                seen.add(x)


def test_partitions_of_size_in_box():
    assert set(partitions_of_size_in_box(6, 3, 3)) == {(3, 3), (3, 2, 1), (2, 2, 2)}
    assert partitions_of_size_in_box(0, 3, 3) == [()]
    assert partitions_of_size_in_box(-1, 3, 3) == []
    assert partitions_of_size_in_box(10, 3, 3) == []
    for total in range(8):
        brute = [x for x in enumerate_in_box(3, 4) if size(x) == total]
        got = partitions_of_size_in_box(total, 3, 4)
        assert sorted(got) == sorted(brute)
        # strictly descending, the order of a canonical generating family
        assert all(a > b for a, b in zip(got, got[1:])), got


def test_sized_equals_the_recursive_oracle_in_order():
    # the one loop that lowers the rightmost row that can drop yields the
    # recursion's partitions in the recursion's order
    for total in range(25):
        for rows in range(9):
            for cap in range(12):
                got = list(_sized(total, rows, cap))
                assert got == list(sized_partitions(total, rows, cap)), (total, rows, cap)


def test_attach_examples():
    assert attach(4, 5, (4, 2, 1), (3, 2)) == (9, 7, 6, 5, 3, 2)
    assert attach(2, 2, (), (2, 1)) == (2, 2, 2, 1)
    assert attach(1, 1, (), ()) == (1,)
    assert size(attach(3, 2, (1,), (2, 2))) == 3 * 2 + 1 + 4


def test_attach_rejects_overflow():
    with pytest.raises(ValueError):
        attach(2, 2, (1, 1, 1), ())
    with pytest.raises(ValueError):
        attach(2, 2, (), (3,))
    with pytest.raises(ValueError):
        attach(0, 2, (), ())


def test_dominant_weight():
    assert dominant_weight((3, 0, -2)) == (3, 0, -2)
    with pytest.raises(ValueError):
        dominant_weight((0, 1))


def test_dual_weight():
    assert dual_weight((3, 1, 1)) == (-1, -1, -3)
    assert dual_weight((2, 0, -1)) == (1, 0, -2)
    assert dual_weight(dual_weight((5, 2, -3))) == (5, 2, -3)


def test_pad_weight():
    assert pad_weight((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad_weight((1, -1), 3)
    with pytest.raises(ValueError):
        pad_weight((1, 1, 1), 2)


def test_qbinomial_against_pascal_oracle():
    for a in range(16):
        for b in range(a + 2):
            assert tuple(enumerate(qbinomial(a, b))) == qbinomial_pascal(a, b)


def test_qbinomial_basics():
    assert qbinomial(5, 7) == ()
    assert qbinomial(5, 0) == (1,)
    assert qbinomial(5, 5) == (1,)
    assert qbinomial(4, 2) == (1, 1, 2, 1, 1)
    assert len(qbinomial(6, 3)) == 10
    assert sum(qbinomial(6, 3)) == comb(6, 3)
    with pytest.raises(ValueError):
        qbinomial(-1, 0)
