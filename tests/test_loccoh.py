from math import comb

import pytest

from glinv import (
    DegreeWindow,
    MatrixContext,
    ds_character,
    lc_support,
    lc_table,
)

from _oracles import d0_terms_brute, lc_rows_oracle


def test_lc_table_matches_pascal_oracle():
    for n in range(1, 6):
        for m in (n, n + 1, n + 3):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                table = lc_table(ctx, p)
                assert table.rows == lc_rows_oracle(m, n, p), (m, n, p)


def test_lc_table_rejects_bad_minor_size():
    ctx = MatrixContext(3, 3)
    with pytest.raises(ValueError):
        lc_table(ctx, 0)
    with pytest.raises(ValueError):
        lc_table(ctx, 4)


def test_lc_support_square():
    for n in range(1, 6):
        ctx = MatrixContext(n, n)
        for p in range(1, n + 1):
            lo = (n - p + 1) ** 2
            hi = n * n - p * p + 1
            assert lc_support(ctx, p) == (lo, hi)


def test_lc_support_rectangular():
    assert lc_support(MatrixContext(6, 5), 3) == (12, 22)
    for m, n, p in ((4, 3, 2), (5, 2, 1), (7, 4, 4)):
        ctx = MatrixContext(m, n)
        jmin = (n - p + 1) ** 2 + (n - p + 1) * (m - n)
        jmax = m * n - p * p + 1
        assert lc_support(ctx, p) == (jmin, jmax)


def test_lc_row_sums_count_lattice_paths():
    for m, n, p in ((5, 5, 3), (6, 4, 4), (5, 3, 2)):
        ctx = MatrixContext(m, n)
        rows = lc_table(ctx, p).rows
        for s in range(p):
            total = sum(row.get(s, 0) for row in rows.values())
            assert total == comb(n - s - 1, p - 1 - s)


def test_lc_bottom_row_square():
    # For square matrices every factor reaches the least index exactly once.
    for n, p in ((4, 2), (4, 3), (5, 4)):
        ctx = MatrixContext(n, n)
        rows = lc_table(ctx, p).rows
        assert rows[min(rows)] == {s: 1 for s in range(p)}


def test_lc_first_occurrence_multiplicity_one():
    for m, n, p in ((5, 3, 2), (6, 4, 3), (4, 4, 3)):
        ctx = MatrixContext(m, n)
        rows = lc_table(ctx, p).rows
        for s in range(p):
            first = min(j for j, row in rows.items() if s in row)
            assert rows[first][s] == 1


def test_lc_square_parity():
    for n, p in ((3, 2), (4, 3), (5, 2)):
        rows = lc_table(MatrixContext(n, n), p).rows
        parity = (n - p + 1) ** 2 & 1
        assert all(j & 1 == parity for j in rows)


def test_lc_maximal_minors_square():
    for n in (2, 3, 4):
        rows = lc_table(MatrixContext(n, n), n).rows
        assert rows == {1: {s: 1 for s in range(n)}}


def test_lc_whole_matrix_support():
    for n in (1, 2, 3):
        ctx = MatrixContext(n + 2, n)
        assert lc_table(ctx, 1).rows == {n * n + n * 2: {0: 1}}


def test_ds_character_square_two_by_two():
    ctx = MatrixContext(2, 2)
    ch = ds_character(ctx, 0, DegreeWindow(-8, -4))
    dims = ch.dimension_table(2, 2)
    assert dims == {
        (0, -4): 1,
        (0, -5): 4,
        (0, -6): 10,
        (0, -7): 20,
        (0, -8): 35,
    }


def test_ds_character_one_column():
    ctx = MatrixContext(4, 1)
    ch = ds_character(ctx, 0, DegreeWindow(-5, -4))
    assert len(ch) == 2
    assert ch.multiplicity(0, (-1, -1, -1, -1), (-4,), -4) == 1
    assert ch.multiplicity(0, (-1, -1, -1, -2), (-5,), -5) == 1


def test_ds_character_rectangular_spot():
    ctx = MatrixContext(3, 2)
    ch = ds_character(ctx, 0, DegreeWindow(-6, -6))
    assert len(ch) == 1
    assert ch.multiplicity(0, (-2, -2, -2), (-3, -3), -6) == 1


def test_ds_character_empty_above_top_degree():
    ctx = MatrixContext(2, 2)
    assert not ds_character(ctx, 0, DegreeWindow(-3, 0))


def test_ds_character_rejects_higher_factors():
    ctx = MatrixContext(3, 3)
    with pytest.raises(ValueError):
        ds_character(ctx, 1, DegreeWindow(-10, -5))
    with pytest.raises(ValueError):
        ds_character(ctx, 3, DegreeWindow(-10, -5))
    with pytest.raises(ValueError):
        ds_character(ctx, -1, DegreeWindow(-10, -5))


def test_ds_character_matches_brute_force_oracle():
    for n in range(1, 6):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            top = -m * n
            for lo in range(top - 11, top + 3):
                for hi in sorted({lo, lo + 1, lo + 4, top + 2}):
                    if hi < lo:
                        continue
                    ch = ds_character(ctx, 0, DegreeWindow(lo, hi))
                    got = sorted((j, term.wm, term.wn, term.degree, term.multiplicity)
                                 for j, term in ch.items())
                    want = [(0, wm, wn, deg, 1)
                            for wm, wn, deg in d0_terms_brute(m, n, lo, hi)]
                    assert got == want, (m, n, lo, hi)
