"""Randomized invariant checks. Each property runs 1000 cases."""

from math import comb

from hypothesis import given, settings, strategies as st

from glinv import (
    DegreeWindow,
    MatrixContext,
    ZPair,
    attach,
    attainable_indices,
    conjugate,
    dim_schur,
    dual_weight,
    ext_jzl,
    ext_map_analysis,
    ext_min_degree,
    ext_quotient,
    leq,
    make_ideal,
    minimalize,
    partition,
    qbinomial,
    saturate,
    saturation_filter,
    size,
    symbolic_power,
    zset,
    zset_of_generators,
)

from _oracles import conjugate_boxes, ssyt_count

CASES = settings(max_examples=1000, deadline=None)


def partitions_in_box(rows: int, cols: int):
    return st.lists(st.integers(0, cols), max_size=rows).map(
        lambda vs: partition(sorted(vs, reverse=True))
    )


@st.composite
def square_ideals(draw, n: int = 3, cols: int = 3, max_gens: int = 3):
    gens = draw(st.lists(partitions_in_box(n, cols), min_size=1, max_size=max_gens))
    return make_ideal(MatrixContext(n, n), gens)


@st.composite
def zpairs(draw, n: int = 3, cols: int = 3):
    l = draw(st.integers(0, n - 1))
    e = draw(st.integers(0, cols))
    tail = draw(partitions_in_box(n - l - 1, e))
    return ZPair(partition((e,) * (l + 1) + tail), l)


@CASES
@given(partitions_in_box(6, 6))
def test_conjugate_is_an_involution(x):
    assert conjugate(x) == conjugate_boxes(x)
    assert conjugate(conjugate(x)) == x
    assert size(conjugate(x)) == size(x)


@CASES
@given(st.lists(partitions_in_box(4, 4), max_size=6))
def test_minimalize_returns_equivalent_antichain(family):
    kept = minimalize(family)
    assert set(kept) <= set(family)
    assert not any(x != y and leq(x, y) for x in kept for y in kept)
    assert all(any(leq(x, y) for x in kept) for y in family)
    assert minimalize(kept) == kept


@CASES
@given(st.data())
def test_attach_size_and_conjugation(data):
    r = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 4))
    alpha = data.draw(partitions_in_box(r, 5))
    beta = data.draw(partitions_in_box(4, s))
    joined = attach(r, s, alpha, beta)
    assert size(joined) == r * s + size(alpha) + size(beta)
    assert conjugate(joined) == attach(s, r, conjugate(beta), conjugate(alpha))


@CASES
@given(st.integers(0, 10), st.integers(0, 12))
def test_qbinomial_specializes_and_is_symmetric(a, b):
    coeffs = qbinomial(a, b)
    assert sum(coeffs) == comb(a, b)
    if b <= a:
        assert len(coeffs) == b * (a - b) + 1
        assert all(c > 0 for c in coeffs)
        assert coeffs == coeffs[::-1]
    else:
        assert coeffs == ()


@CASES
@given(st.data())
def test_dim_schur_counts_tableaux(data):
    N = data.draw(st.integers(1, 4))
    x = data.draw(partitions_in_box(N, 3))
    d = dim_schur(x, N)
    assert d == ssyt_count(x, N)
    shift = data.draw(st.integers(-3, 3))
    shifted = tuple(v + shift for v in x) + (shift,) * (N - len(x))
    assert dim_schur(shifted, N) == d
    assert dim_schur(dual_weight(tuple(x) + (0,) * (N - len(x))), N) == d


@CASES
@given(st.data())
def test_symbolic_zsets_grow_with_exponent(data):
    n = data.draw(st.integers(1, 4))
    m = n + data.draw(st.integers(0, 2))
    ctx = MatrixContext(m, n)
    p = data.draw(st.integers(1, n))
    d = data.draw(st.integers(2, 5))
    assert zset(symbolic_power(ctx, p, d - 1)) <= zset(symbolic_power(ctx, p, d))


@CASES
@given(st.data())
def test_ext_long_sequence_additivity(data):
    b = data.draw(square_ideals())
    extra = data.draw(partitions_in_box(3, 3))
    a = make_ideal(b.ctx, b.gens + (extra,))
    lo = data.draw(st.integers(-12, -6))
    window = DegreeWindow(lo, lo + data.draw(st.integers(0, 2)))
    kernel, image, cokernel = ext_map_analysis(a, b, window)
    assert kernel + image == ext_quotient(a, window)
    assert image + cokernel == ext_quotient(b, window)


@CASES
@given(st.data())
def test_ext_min_degree_is_sharp(data):
    ctx = MatrixContext(3, 3)
    zp = data.draw(zpairs())
    js = attainable_indices(ctx, zp)
    assert js
    j = data.draw(st.sampled_from(js))
    least = ext_min_degree(ctx, zp, j)
    assert least is not None
    window = DegreeWindow(least - 3, least)
    degrees = [t.degree for jj, t in ext_jzl(ctx, zp, window).items() if jj == j]
    assert degrees
    assert min(degrees) == least
    assert ext_min_degree(ctx, zp, j + 1) is None


@CASES
@given(square_ideals(n=4, cols=3), st.integers(0, 4))
def test_saturation_filters_zset(ideal, p):
    assert zset(saturate(ideal, p)) == saturation_filter(zset(ideal), p)


@CASES
@given(st.lists(partitions_in_box(3, 4), min_size=1, max_size=5))
def test_zset_ignores_generating_set(family):
    ctx = MatrixContext(4, 3)
    ideal = make_ideal(ctx, family)
    assert zset_of_generators(ctx, family) == zset(ideal)
