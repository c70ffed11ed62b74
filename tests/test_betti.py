import random
from collections import Counter
from math import comb, factorial, prod

import pytest

from glinv import (
    BettiTable,
    MatrixContext,
    betti_polynomial,
    betti_table,
    dim_schur,
    dim_term,
    h_rect,
    make_ideal,
    regularity,
)
from glinv import betti

from glinv.partitions import attach, conjugate

from _oracles import box_partitions


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
            tab = betti_table(ctx, 1, d)
            expect = {
                (p, d + p): dim_schur((d,) + (1,) * p, N)
                for p in range(N)
            }
            assert tab.entries == expect


def test_betti_square_of_two_by_two_minors():
    ctx = MatrixContext(3, 3)
    tab = betti_table(ctx, 2, 2)
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


def test_betti_square_strand_decomposition():
    ctx = MatrixContext(3, 3)
    bp = betti_polynomial(ctx, 2, 2)
    dims = sorted(
        dim_term(t, 3, 3)
        for i, t in bp.items()
        if i == 2 and t.degree == 6
    )
    assert dims == [10, 10, 64]


def test_betti_degree_bound():
    for m, n, a, b in ((3, 3, 2, 2), (4, 3, 2, 1), (4, 4, 3, 2), (3, 2, 1, 3)):
        ctx = MatrixContext(m, n)
        tab = betti_table(ctx, a, b)
        assert all(d >= a * b + i for i, d in tab.entries)
        assert (0, a * b) in tab.entries
    sq = betti_table(MatrixContext(3, 3), 2, 2)
    assert (5, 9) in sq.entries  # top of the last strand meets the bound


def test_betti_generators_are_one_rectangle_shape():
    for m, n, a, b in ((3, 3, 2, 2), (4, 3, 2, 1), (4, 4, 2, 3), (5, 2, 2, 2)):
        ctx = MatrixContext(m, n)
        tab = betti_table(ctx, a, b)
        expect = dim_schur((b,) * a, m) * dim_schur((b,) * a, n)
        assert tab.entries[(0, a * b)] == expect


def test_betti_gulliksen_negard_shape():
    ctx = MatrixContext(3, 3)
    tab = betti_table(ctx, 2, 1)
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
    tab = betti_table(ctx, 2, 2)
    assert tab.render() == (
        "        0  1  2  3 4 5\n"
        "total: 36 90 84 37 9 1\n"
        "    4: 36 90 84 36 9 1\n"
        "    5:  .  .  .  . . .\n"
        "    6:  .  .  .  1 . ."
    )
    assert BettiTable({}).render() == "(empty resolution)"
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


def _rectangle_tables(n):
    """Betti tables of the ideal of the rectangle (b^a), keyed (m, a, b),
    for m in {n, n+1}, a <= n, b <= 3."""
    tables = {}
    for m in (n, n + 1):
        ctx = MatrixContext(m, n)
        for a in range(1, n + 1):
            for b in range(1, 4):
                tables[m, a, b] = betti_table(ctx, a, b)
    return tables


def test_betti_regularity_matches_ext_regularity():
    # the regularity read off the resolution, max of degree - i, against the
    # one the Ext engine computes from the Z-set
    for n in range(1, 6):
        for (m, a, b), tab in _rectangle_tables(n).items():
            ideal = make_ideal(MatrixContext(m, n), [(b,) * a])
            assert max(d - i for i, d in tab.entries) == regularity(ideal), (m, n, a, b)


def test_betti_table_gives_hilbert_function():
    # sum_{i,d} (-1)^i beta_{i,d} C(mn-1+D-d, mn-1) is the dimension of the
    # ideal in degree D, which by the Cauchy decomposition is the sum over
    # x containing (b^a), |x| = D, of dim S_x C^m * dim S_x C^n
    cases = 0
    for n in range(1, 6):
        tables = _rectangle_tables(n)
        top = max(d for tab in tables.values() for _, d in tab.entries) + 2
        dims = {x: (dim_schur(x, n), dim_schur(x, n + 1))
                for x in box_partitions(n, top) if sum(x) <= top}
        for (m, a, b), tab in tables.items():
            last = max(d for _, d in tab.entries) + 2
            want = [0] * (last + 1)
            for x, (dn, dm) in dims.items():
                if sum(x) <= last and len(x) >= a and x[a - 1] >= b:
                    want[sum(x)] += dn * (dn if m == n else dm)
            N = m * n
            for D in range(a * b, last + 1):
                got = sum((-1) ** i * v * comb(N - 1 + D - d, N - 1)
                          for (i, d), v in tab.entries.items() if d <= D)
                assert got == want[D], (m, n, a, b, D)
                cases += 1
    assert cases == 1151


def test_dimension_table_equals_the_sum_of_term_dimensions():
    # dimension_table computes each distinct (weight, N) once per call; the
    # oracle multiplies two dim_schur calls per term, as dim_term does
    for n in range(1, 7):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for a in range(1, min(n, 3) + 1):
                for b in range(1, 4):
                    bp = betti_polynomial(ctx, a, b)
                    want = {}
                    for i, term in bp.items():
                        cell = (i, term.degree)
                        want[cell] = want.get(cell, 0) + dim_term(term, m, n)
                    assert bp.dimension_table(m, n) == want, (m, n, a, b)


def test_betti_term_count_is_the_number_of_keys():
    # _betti_terms counts the terms betti_polynomial makes, without building
    # a block; each is a key of its own, as its docstring proves
    cases = 0
    for n in range(1, 7):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for a in range(1, n + 1):
                for b in range(1, 4):
                    bp = betti_polynomial(ctx, a, b)
                    assert len(bp) == sum(betti._betti_terms(ctx, a, b)), (m, n, a, b)
                    cases += 1
    assert cases == 189


def test_block_term_count_is_the_number_of_terms_summed(monkeypatch):
    # _block_terms counts the terms _block_sums sums: each term multiplies
    # the constants of its two sides once, so the constants count the
    # products
    products = Counter()

    class Constant(int):
        def __mul__(self, other):
            products["terms"] += 1
            return int(self) * other

    side = betti._block_side

    def counted(*args):
        size, h, c, table = side(*args)
        return size, h, Constant(c), table

    monkeypatch.setattr(betti, "_block_side", counted)
    cases = 0
    for n in range(1, 7):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for a in range(1, n + 1):
                for b in range(1, 4):
                    products.clear()
                    betti_table(ctx, a, b)
                    assert products["terms"] == sum(betti._block_terms(ctx, a, b)), (m, n, a, b)
                    cases += 1
    assert cases == 189


def _flattened(ctx, a, b):
    """The oracle: the Betti polynomial's terms flattened by dimension_table."""
    return BettiTable(betti_polynomial(ctx, a, b).dimension_table(ctx.m, ctx.n))


@pytest.mark.parametrize("n", range(1, 9))
def test_betti_table_equals_the_flattened_polynomial(n):
    # the block sums against the polynomial they flatten, cells in the same
    # order; m = n up to 8x8 and m in {n+1, n+2} while n <= 5
    for m in (n, n + 1, n + 2) if n <= 5 else (n,):
        ctx = MatrixContext(m, n)
        for a in range(1, min(n, 3) + 1):
            for b in range(1, 4):
                want = _flattened(ctx, a, b)
                got = betti_table(ctx, a, b)
                assert got == want and list(got.entries) == list(want.entries), (m, n, a, b)


def test_betti_table_equals_the_flattened_polynomial_nine_by_nine():
    ctx = MatrixContext(9, 9)
    assert betti_table(ctx, 2, 2) == _flattened(ctx, 2, 2)


def test_block_term_factors_into_two_weyl_dimensions():
    # the factored Vandermonde product of one block term, over
    # sf(m) sf(n), is dim_m(wm) dim_n(wn) of the weights h_rect builds
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 9)
        m = n + rng.randint(0, 3)
        r, s = rng.randint(1, n), rng.randint(1, 5)
        edge = min(r, s)
        alpha = rng.choice(box_partitions(edge, n - r))
        beta = rng.choice(box_partitions(m - r, edge))
        k, ha, ca, qa = betti._block_side(alpha, conjugate(alpha), r, s, n - r, m)
        kb, hb, cb, pb = betti._block_side(conjugate(beta), beta, r, s, m - r, n)
        assert (k, kb) == (sum(alpha), sum(beta))
        term = ca * cb * prod(pb[x] for x in ha) * prod(qa[y] for y in hb)
        sf = prod(map(factorial, range(m))) * prod(map(factorial, range(n)))
        wm, wn = attach(r, s, alpha, beta), attach(r, s, conjugate(beta), conjugate(alpha))
        assert term == sf * dim_schur(wm, m) * dim_schur(wn, n), (m, n, r, s, alpha, beta)


def test_betti_table_validation():
    ctx = MatrixContext(3, 3)
    for a, b in ((4, 1), (0, 1), (2, 0), (True, 1), (2, 1.0)):
        with pytest.raises(ValueError):
            betti_table(ctx, a, b)
