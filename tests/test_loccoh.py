from math import comb

import pytest

from glinv import (
    DegreeWindow,
    EquivariantCharacter,
    MatrixContext,
    ds_character,
    ext_quotient,
    lc_support,
    lc_table,
    power_of_minors,
    symbolic_power,
)
from glinv import loccoh

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


def _copies_at(ch, j, copies=1):
    """copies of the index-0 character ch, keyed by index j."""
    out = EquivariantCharacter()
    for _, term in ch.items():
        out.add(j, term.wm, term.wn, term.degree, term.multiplicity * copies)
    return out


def test_ext_of_powers_of_the_maximal_ideal_is_d0():
    """I_1 is the maximal ideal, and Ext(S/I_1^d, S) is the part of
    H^{mn}_{I_1}(S) = D_0 in degrees above -mn-d, at index mn: on the window
    [-mn-d+1, -mn] it equals the windowed D_0."""
    for n in range(1, 5):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for d in range(1, 7):
                window = DegreeWindow(-m * n - d + 1, -m * n)
                got = ext_quotient(power_of_minors(ctx, 1, d), window)
                assert got == _copies_at(ds_character(ctx, 0, window), m * n), (m, n, d)


@pytest.mark.parametrize("n", range(1, 6))
def test_ext_of_symbolic_powers_tends_to_local_cohomology(n):
    """Ext^j(S/I_p^(d), S) -> H^j_{I_p}(S) is injective with colimit H^j over
    d. D_0 has lam_1 <= -m and every D_s with s >= 1 has lam_1 >= s - n > -m,
    so on a fixed window and for large d the terms with wn_1 <= -m at index j
    are lc_table(ctx, p).rows[j][0] copies of D_0.

    The least such d, on the window [-mn-w, -mn], is (p-1)(n-p+1) + 1 + w
    for n <= 5, every m in n..n+2, p <= n and w <= 2. This bound is observed,
    not derived: the test pins it, with the sides unequal at every d before
    it and equal at it and at the three d after it. At n = 5 the Gauss
    coefficients of the table pass 1 (H^13 = 2*D_0 + D_1 at m = 5, p = 3),
    so equal terms of the Ext side merge into multiplicities above 1.
    """
    for m in (n, n + 1, n + 2):
        ctx = MatrixContext(m, n)
        for p in range(1, n + 1):
            rows = lc_table(ctx, p).rows
            for w in range(3):
                window = DegreeWindow(-m * n - w, -m * n)
                d0 = ds_character(ctx, 0, window)
                want = EquivariantCharacter()
                for j, row in rows.items():
                    if row.get(0, 0):
                        want = want + _copies_at(d0, j, row[0])
                least = (p - 1) * (n - p + 1) + 1 + w
                for d in range(least + 4):
                    got = EquivariantCharacter()
                    for j, term in ext_quotient(symbolic_power(ctx, p, d), window).items():
                        if term.wn[0] <= -m:
                            got.add(j, term.wm, term.wn, term.degree, term.multiplicity)
                    assert (got == want) == (d >= least), (m, n, p, w, d)


def test_ds_weight_count_is_the_number_of_weights():
    # exact against the brute-force oracle, on the windows of
    # test_ds_character_matches_brute_force_oracle and far beyond the top
    for n in range(1, 6):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            top = -m * n
            for lo in range(top - 11, top + 3):
                for hi in sorted({lo, lo + 1, lo + 4, top + 2}):
                    if hi < lo:
                        continue
                    got = loccoh._ds_weight_count(ctx, DegreeWindow(lo, hi), 0)
                    assert got == (len(d0_terms_brute(m, n, lo, hi)), True), (m, n, lo, hi)
    # n = 1 and n = 2 are closed forms at any distance from the top degree
    far = DegreeWindow(-10**12 - 5, -10**12)
    assert loccoh._ds_weight_count(MatrixContext(1, 1), far, 0) == (6, True)
    want = sum(k // 2 + 1 for k in range(10**12 - 4, 10**12 + 2))  # sizes -4 - hi..-4 - lo
    assert loccoh._ds_weight_count(MatrixContext(2, 2), far, 0) == (want, True)


def test_ds_weight_count_bound_is_a_lower_bound_past_the_cap(monkeypatch):
    monkeypatch.setattr(loccoh, "_DS_COUNT_STEPS", 0)
    for n in (3, 4, 5):
        ctx = MatrixContext(n, n)
        for lo, hi in ((-n * n - 30, -n * n), (-n * n - 30, -n * n - 30)):
            window = DegreeWindow(lo, hi)
            exact = len(ds_character(ctx, 0, window))
            b = -n * n - lo
            bound = ((b + 3) ** 2 + 6) // 12  # partitions of b into at most 3 parts
            assert bound == sum(1 for x in range(b + 1) for y in range(x + 1)
                                if 0 <= b - x - y <= y)
            assert loccoh._ds_weight_count(ctx, window, bound - 1) == (bound, False)
            assert bound <= exact
            # a cap the bound does not pass is counted exactly
            assert loccoh._ds_weight_count(ctx, window, bound) == (exact, True)
    # the 6x6 window of the README costs 164 * 6 steps and is exact
    monkeypatch.undo()
    got = loccoh._ds_weight_count(MatrixContext(6, 6), DegreeWindow(-200, -36), 0)
    assert got == (55_198_963, True)
