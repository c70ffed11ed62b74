from math import comb

import pytest

from glinv import (
    MatrixContext,
    betti_polynomial,
    betti_table,
    dim_schur,
    dim_term,
    h_rect,
)


def test_h_rect_term_count():
    for m, n, r, s in ((3, 3, 2, 2), (4, 3, 1, 2), (5, 4, 3, 1), (4, 2, 2, 5)):
        ctx = MatrixContext(m, n)
        edge = min(r, s)
        expect = comb(edge + n - r, edge) * comb(m - r + edge, edge)
        assert len(h_rect(ctx, r, s)) == expect


def test_h_rect_square_swap_symmetry():
    ctx = MatrixContext(3, 3)
    ch = h_rect(ctx, 2, 2)
    terms = {(i, t.wm, t.wn, t.degree, t.multiplicity) for i, t in ch.items()}
    assert terms == {(i, wn, wm, d, c) for i, wm, wn, d, c in terms}


def test_h_rect_validation():
    ctx = MatrixContext(3, 3)
    with pytest.raises(ValueError):
        h_rect(ctx, 4, 2)
    with pytest.raises(ValueError):
        h_rect(ctx, 0, 2)
    with pytest.raises(ValueError):
        h_rect(ctx, 2, 0)


def test_hook_resolutions_of_one_column_powers():
    # Powers of the entries of a column resolve linearly by hook shapes.
    for N in (2, 3, 4):
        ctx = MatrixContext(N, 1)
        for d in (1, 2, 3):
            tab = betti_table(betti_polynomial(ctx, 1, d), ctx)
            expect = {
                (p, d + p): dim_schur((d,) + (1,) * p, N)
                for p in range(N)
            }
            assert tab.entries == expect


def test_betti_square_of_two_by_two_minors():
    ctx = MatrixContext(3, 3)
    tab = betti_table(betti_polynomial(ctx, 2, 2), ctx)
    assert tab.entries == {
        (0, 4): 36,
        (1, 5): 90,
        (2, 6): 84,
        (3, 7): 36,
        (3, 9): 1,
        (4, 8): 9,
        (5, 9): 1,
    }
    assert tab.totals() == {0: 36, 1: 90, 2: 84, 3: 37, 4: 9, 5: 1}
    assert tab.total(3) == 37


def test_betti_square_strand_decomposition():
    ctx = MatrixContext(3, 3)
    bp = betti_polynomial(ctx, 2, 2)
    dims = sorted(
        dim_term(t, 3, 3)
        for i, t in bp.at_index(2).items()
        if t.degree == 6
    )
    assert dims == [10, 10, 64]


def test_betti_degree_bound():
    for m, n, a, b in ((3, 3, 2, 2), (4, 3, 2, 1), (4, 4, 3, 2), (3, 2, 1, 3)):
        ctx = MatrixContext(m, n)
        tab = betti_table(betti_polynomial(ctx, a, b), ctx)
        assert all(d >= a * b + i for i, d in tab.entries)
        assert (0, a * b) in tab.entries
    sq = betti_table(betti_polynomial(MatrixContext(3, 3), 2, 2), MatrixContext(3, 3))
    assert (5, 9) in sq.entries  # top of the last strand meets the bound


def test_betti_generators_are_one_rectangle_shape():
    for m, n, a, b in ((3, 3, 2, 2), (4, 3, 2, 1), (4, 4, 2, 3), (5, 2, 2, 2)):
        ctx = MatrixContext(m, n)
        tab = betti_table(betti_polynomial(ctx, a, b), ctx)
        expect = dim_schur((b,) * a, m) * dim_schur((b,) * a, n)
        assert tab.entries[(0, a * b)] == expect


def test_betti_gulliksen_negard_shape():
    ctx = MatrixContext(3, 3)
    tab = betti_table(betti_polynomial(ctx, 2, 1), ctx)
    assert tab.entries == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}
    assert tab.totals() == {0: 9, 1: 16, 2: 9, 3: 1}


def test_betti_polynomial_validation():
    ctx = MatrixContext(3, 3)
    with pytest.raises(ValueError):
        betti_polynomial(ctx, 4, 1)
    with pytest.raises(ValueError):
        betti_polynomial(ctx, 0, 1)
    with pytest.raises(ValueError):
        betti_polynomial(ctx, 2, 0)


def test_betti_table_render_and_csv():
    ctx = MatrixContext(3, 3)
    tab = betti_table(betti_polynomial(ctx, 2, 2), ctx)
    assert tab.render() == (
        "        0  1  2  3 4 5\n"
        "total: 36 90 84 37 9 1\n"
        "    4: 36 90 84 36 9 1\n"
        "    5:  .  .  .  . . .\n"
        "    6:  .  .  .  1 . ."
    )
    assert tab.csv_rows() == [
        "i,degree,beta",
        "0,4,36",
        "1,5,90",
        "2,6,84",
        "3,7,36",
        "3,9,1",
        "4,8,9",
        "5,9,1",
    ]
