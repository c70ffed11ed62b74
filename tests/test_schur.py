from math import comb

import pytest

from glinv import (
    EquivariantCharacter,
    IrredTerm,
    dim_schur,
    dim_term,
    dual_weight,
    enumerate_in_box,
)

from _oracles import ssyt_count


def test_dim_schur_reference_values():
    assert dim_schur((2, 1), 3) == 8
    assert dim_schur((2, 1, 0), 3) == 8
    assert dim_schur((3, 3, 3), 3) == 1
    assert dim_schur((), 3) == 1
    assert dim_schur((1,), 5) == 5


def test_dim_schur_symmetric_and_exterior_powers():
    for N in range(1, 6):
        for d in range(5):
            assert dim_schur((d,), N) == comb(N + d - 1, d)
        for k in range(1, N + 1):
            assert dim_schur((1,) * k, N) == comb(N, k)


def test_dim_schur_matches_tableau_count_in_a_box():
    for N in range(1, 5):
        for shape in enumerate_in_box(3, 3):
            if len(shape) > N:
                continue
            assert dim_schur(shape, N) == ssyt_count(shape, N)


def test_dim_schur_zero_tail_matches_tableau_count():
    # the tail product is taken in closed form whenever the weight has fewer
    # nonzero entries than N, including rows whose own ratio is not integral
    for N in range(1, 8):
        for shape in enumerate_in_box(4, 3):
            if len(shape) <= N:
                assert dim_schur(shape, N) == ssyt_count(shape, N), (shape, N)


def test_dim_schur_zero_tail_at_large_N():
    N = 10 ** 5
    assert dim_schur((1,), N) == N
    assert dim_schur((2,), N) == N * (N + 1) // 2
    assert dim_schur((1, 1), N) == N * (N - 1) // 2


def test_dim_schur_negative_weights():
    # duality: the dual weight spans a representation of the same dimension
    for w in ((2, 1), (3, 0, -1), (0, -2, -2)):
        assert dim_schur(w, len(w)) == dim_schur(dual_weight(w), len(w))
    assert dim_schur((-1, -1, -1), 3) == 1
    assert dim_schur((-1, -1, -2), 3) == 3


def test_dim_schur_shift_invariance():
    for w in ((2, 1, 0), (3, 1, 1), (0, 0, 0)):
        base = dim_schur(w, 3)
        for c in (-2, -1, 1, 5):
            assert dim_schur(tuple(v + c for v in w), 3) == base


def test_dim_schur_rejects_bad_weights():
    with pytest.raises(ValueError):
        dim_schur((1, 2), 3)
    with pytest.raises(ValueError):
        dim_schur((1, -1), 3)  # cannot zero-pad past a negative tail
    with pytest.raises(ValueError):
        dim_schur((1, 1, 1, 1), 3)
    with pytest.raises(ValueError):
        dim_schur((1,), 0)
    with pytest.raises(ValueError, match="integers"):
        dim_schur([1.5], 3)


def test_dim_schur_rejects_booleans():
    with pytest.raises(ValueError, match="booleans"):
        dim_schur([True], 3)
    with pytest.raises(ValueError, match="booleans"):
        dim_schur((1, True, 0), 3)


def test_ssyt_count_small():
    assert ssyt_count((1,), 3) == 3
    assert ssyt_count((1, 1, 1), 3) == 1
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((), 4) == 1
    assert ssyt_count((2, 1), 3) == 8
    with pytest.raises(ValueError):
        ssyt_count((1, 1, 1), 2)


def test_dim_term():
    t = IrredTerm((2, 1, 0), (1, 1), degree=4, multiplicity=2)
    assert dim_term(t, 3, 2) == 2 * 8 * 1


def test_character_accumulates_multiplicity():
    ch = EquivariantCharacter()
    ch.add(3, (1, 1), (2,), 2)
    ch.add(3, (1, 1), (2,), 2, 4)
    assert ch.multiplicity(3, (1, 1), (2,), 2) == 5
    assert len(ch) == 1
    with pytest.raises(ValueError):
        ch.add(0, (1,), (1,), 1, 0)


@pytest.mark.parametrize("multiplicity", [1.5, True, "2", 0, -1])
def test_character_add_rejects_a_non_integer_or_non_positive_multiplicity(multiplicity):
    ch = EquivariantCharacter()
    with pytest.raises(ValueError, match="^multiplicity must be"):
        ch.add(0, (1,), (1,), 1, multiplicity)
    assert not ch


def test_character_item_order():
    ch = EquivariantCharacter()
    ch.add(2, (3, 1), (1,), 4)
    ch.add(1, (9,), (9,), 9)
    ch.add(2, (2, 2), (1,), 4)
    ch.add(2, (1, 1), (1,), 2)
    keys = [(j, t.degree, t.wm) for j, t in ch.items()]
    assert keys == [
        (1, 9, (9,)),
        (2, 2, (1, 1)),
        (2, 4, (2, 2)),
        (2, 4, (3, 1)),
    ]
    # mixed indices, degrees and both weights, added out of order: items()
    # is the sort by index, degree, wm, wn of the terms
    mixed = EquivariantCharacter()
    for j, wm, wn, deg, mult in [
        (3, (1, 0), (1,), 1, 2), (0, (2, 2), (4,), 4, 1), (3, (1, 0), (0,), 1, 1),
        (0, (4, 0), (2, 2), 4, 3), (0, (3, -1), (2,), 2, 1), (3, (2, 1), (3,), 3, 1),
        (-2, (0, 0), (0,), 0, 5), (0, (2, 2), (3, 1), 4, 2),
    ]:
        mixed.add(j, wm, wn, deg, mult)
    got = mixed.items()
    assert got == sorted(got, key=lambda it: (it[0], it[1].degree, it[1].wm, it[1].wn))
    assert [(j, t.degree, t.wm, t.wn, t.multiplicity) for j, t in got] == [
        (-2, 0, (0, 0), (0,), 5),
        (0, 2, (3, -1), (2,), 1),
        (0, 4, (2, 2), (3, 1), 2),
        (0, 4, (2, 2), (4,), 1),
        (0, 4, (4, 0), (2, 2), 3),
        (3, 1, (1, 0), (0,), 1),
        (3, 1, (1, 0), (1,), 2),
        (3, 3, (2, 1), (3,), 1),
    ]


def test_character_indices_and_slicing():
    ch = EquivariantCharacter()
    ch.add(0, (1,), (1,), 1)
    ch.add(4, (2,), (2,), 2)
    assert ch.indices() == [0, 4]
    assert ch.multiplicity(4, (2,), (2,), 2) == 1


@pytest.mark.parametrize("index,degree", [(0, 1.9), (0, True), (0, "1"), (0.0, 1), (False, 1)])
def test_character_multiplicity_rejects_non_integer_keys(index, degree):
    ch = EquivariantCharacter().add(0, (1,), (1,), 1)
    with pytest.raises(ValueError):
        ch.multiplicity(index, (1,), (1,), degree)
    assert ch.multiplicity(0, (1,), (1,), 1) == 1


def test_character_merge_add_eq():
    a = EquivariantCharacter().add(0, (1,), (1,), 1)
    b = EquivariantCharacter().add(0, (1,), (1,), 1)
    assert a == b
    c = a + b
    assert c.multiplicity(0, (1,), (1,), 1) == 2
    assert a != c
    assert bool(a) and not bool(EquivariantCharacter())


def test_character_dimension_table():
    ch = EquivariantCharacter()
    ch.add(1, (2, 1), (1, 1), 3)
    ch.add(1, (1, 1, 1), (2, 1), 3)
    table = ch.dimension_table(3, 3)
    assert table == {(1, 3): 8 * 3 + 1 * 8}
