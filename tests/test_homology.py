import json
import random
import re
from collections import Counter
from itertools import accumulate
from math import inf

import pytest

from glinv import (
    DegreeWindow,
    EquivariantCharacter,
    MatrixContext,
    ZPair,
    attainable_indices,
    enumerate_in_box,
    ext_jzl,
    ext_map_analysis,
    ext_min_degree,
    ext_quotient,
    make_ideal,
    part,
    power_of_minors,
    regularity,
    saturate,
    saturated_power,
    saturation_filter,
    size,
    symbolic_power,
    zset,
    zset_of_generators,
)

import glinv.homology as homology
from glinv.cli import main
from _oracles import (
    box_partitions,
    cauchy_counts,
    ext_lambda_first,
    factor_regularity_scan,
    hilbert_excess,
    lambdas_box_brute,
    least_degrees_scan,
    st_data_scan,
    zset_box_table,
    zset_power_closed,
)


def test_zpair_validation():
    ZPair((2, 2, 1), 1)
    ZPair((), 2)
    with pytest.raises(ValueError):
        ZPair((2, 1), 1)  # rows 1..2 differ
    with pytest.raises(ValueError):
        ZPair((2, 2), 2)  # row 3 is 0, not 2
    with pytest.raises(ValueError):
        ZPair((1, 0), 0)  # not canonical
    with pytest.raises(ValueError):
        ZPair((1, 2), 0)  # not weakly decreasing
    with pytest.raises(ValueError):
        ZPair((1, -1), 0)  # negative row
    with pytest.raises(ValueError):
        ZPair((True,), 0)  # boolean row
    with pytest.raises(ValueError):
        ZPair((1,), -1)


def test_walk_pairs_equal_checked_pairs():
    # the walk builds its pairs without the constructor's checks; each must
    # pass them and be equal, with the same hash, to the checked pair
    ctx = MatrixContext(6, 6)
    for family in (power_of_minors, symbolic_power, saturated_power):
        for p in range(1, 7):
            for d in range(1, 5):
                for zp in zset(family(ctx, p, d)):
                    checked = ZPair(zp.z, zp.l)
                    assert type(zp) is ZPair and zp == checked and hash(zp) == hash(checked)


def test_degree_window():
    w = DegreeWindow(-5, -3)
    assert -4 in w and -5 in w and -3 in w
    assert -6 not in w and -2 not in w
    with pytest.raises(ValueError):
        DegreeWindow(3, 2)


@pytest.mark.parametrize("lo, hi", [(-6.5, -5), (-6, -5.0), (False, True), (-6, "-5")])
def test_degree_window_rejects_non_integer_bounds(lo, hi):
    # the message names the first bound that is not an integer
    name, value = ("hi", hi) if type(lo) is int else ("lo", lo)
    message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        DegreeWindow(lo, hi)


def test_zset_ignores_redundant_generators():
    ctx = MatrixContext(3, 3)
    lean = zset_of_generators(ctx, [(2, 1)])
    fat = zset_of_generators(ctx, [(2, 1), (2, 2), (3, 1), (2, 1, 1)])
    assert lean == fat
    assert zset(make_ideal(ctx, [(2, 1)])) == lean


def test_zset_of_generators_reads_the_ideal_of_a_raw_family():
    # (2, 1) contains (1, 1); its seed (1, 1) at c = 1 lies in the ideal,
    # and a walk over the raw family, which tests no seed, would give the
    # extra pair ((1, 1), 0)
    ctx = MatrixContext(3, 3)
    want = zset(make_ideal(ctx, [(1, 1)]))
    assert want == {ZPair((), 1)}
    assert zset_of_generators(ctx, [(2, 1), (1, 1)]) == want


def test_zset_of_trivial_ideals_is_empty():
    ctx = MatrixContext(3, 3)
    assert zset(make_ideal(ctx, [])) == frozenset()
    assert zset(make_ideal(ctx, [[]])) == frozenset()


def _plain(pairs):
    return {(zp.z, zp.l) for zp in pairs}


def test_zset_matches_closed_form_for_powers():
    for n in range(1, 9):
        for m in (n, n + 2):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                for d in range(1, 6):
                    got = _plain(zset(power_of_minors(ctx, p, d)))
                    assert got == zset_power_closed(n, p, d), (m, n, p, d)
    ctx = MatrixContext(8, 8)
    assert _plain(zset(power_of_minors(ctx, 3, 8))) == zset_power_closed(8, 3, 8)


def test_zset_satisfies_cauchy_identity_on_random_families():
    # raw families: repeated, redundant and empty generators all allowed
    rng = random.Random(20171)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.choice((n, n + 1))
        gens = [
            tuple(sorted((rng.randint(1, 5) for _ in range(rng.randint(0, n))), reverse=True))
            for _ in range(rng.randint(1, 5))
        ]
        pairs = _plain(zset_of_generators(MatrixContext(m, n), gens))
        top = max(sum(g) for g in gens) + 3
        for degree, (outside, counted) in enumerate(cauchy_counts(n, gens, pairs, top)):
            assert outside == counted, (m, n, gens, degree)


def test_zset_walk_equals_box_table_on_the_families():
    for family in (power_of_minors, symbolic_power, saturated_power):
        for n in range(1, 7):
            for m in (n, n + 1):
                ctx = MatrixContext(m, n)
                for p in range(1, n + 1):
                    for d in range(1, 7):
                        gens = family(ctx, p, d).gens
                        got = _plain(zset_of_generators(ctx, gens))
                        assert got == zset_box_table(n, gens), (family.__name__, m, n, p, d)


def test_zset_walk_finds_the_family_cells_it_tests_among_the_generators(monkeypatch):
    # every cell the walk tests on these families equals a generator, so the
    # lookup answers it and the containment index is never built
    def unused(xs):
        raise AssertionError("the walk built the containment index")

    monkeypatch.setattr(homology, "_index", unused)
    for family in (power_of_minors, symbolic_power, saturated_power):
        for n in range(1, 8):
            ctx = MatrixContext(n, n)
            for p in range(1, n + 1):
                for d in range(1, 7):
                    a = family(ctx, p, d)
                    assert _plain(zset(a)) == zset_box_table(n, a.gens), (family.__name__, n, p, d)


def test_zset_walk_equals_box_table_on_random_raw_families():
    # repeated, redundant, empty and zero-padded generators, some with x_1 <= c
    # for the smaller column counts c, so that cells inside the box are pruned
    rng = random.Random(1284)
    for _ in range(600):
        n = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, 6)):
            rows = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, n))), reverse=True)
            gens.append(tuple(rows) + (0,) * rng.randint(0, 2))
        gens += rng.sample(gens, min(len(gens), rng.randint(0, 2)))
        got = _plain(zset_of_generators(MatrixContext(n, n), gens))
        assert got == zset_box_table(n, gens), (n, gens)


@pytest.mark.parametrize("n, gens", [
    (3, []),  # the zero ideal
    (3, [(2, 1), ()]),  # the unit ideal, given redundantly
    (3, [(3, 1), (3, 1), (3, 1, 0, 0)]),  # duplicates and trailing zeros
    (3, [(2, 1), (2, 2), (3, 1), (2, 1, 1)]),  # supersets of (2, 1)
    (4, [(2, 2, 2, 2), (5, 1)]),  # a generator with exactly n parts
    (4, [(1, 1, 1), (4, 2)]),  # (1, 1, 1) prunes cells of every box c >= 1
    (4, [(2, 2), (3, 3, 1), (6,)]),  # (2, 2) prunes cells of the boxes c >= 2
    (5, [(1,), (3, 3, 3)]),  # the maximal ideal: no pair above c = 0
    (3, [()]),  # the unit ideal alone: no column count at all
    (1, [(4,), (2,), (6,)]),  # n = 1: each seed is (c,) or ()
    # the truncations at c = 2 are both (2, 2), of heights 2 and 1: the
    # least height wins, whichever generator seeds the cell first
    (3, [(3, 3), (4, 2)]),
    (3, [(4, 2), (3, 3)]),
    # every generator has the largest first row, which no cell reaches, so
    # the containment index holds none of them
    (4, [(4, 4), (4, 1, 1, 1)]),
    # at c = 2 the truncation (3, 2) of (5, 2), of height 1, and the
    # generator (3, 3), of height 2, give the same seed (2, 2)
    (3, [(5, 2), (3, 3)]),
    # columns whose seeds all come from truncations several columns above:
    # c = 5..0 from (7, 1), and c = 4..2 from (6, 6, 6)
    (3, [(7, 1)]),
    (4, [(6, 6, 6), (2, 2, 2, 2)]),
    # the one cell tested, (2, 2, 1), strictly contains the generator (2, 2):
    # the lookup misses, and the index, built then, finds it
    (3, [(3, 1, 1), (2, 2)]),
    # the first miss, (3, 3, 1), is out of the ideal and a pair; the next,
    # (3, 3, 2), is in, through (3, 2, 2)
    (3, [(4, 4), (3, 2, 2)]),
    # the lookup finds the generator (3, 3, 1) before the misses (3, 2, 2)
    # and (3, 3, 2) build the index
    (3, [(4,), (3, 3, 1)]),
])
def test_zset_walk_equals_box_table_on_edge_cases(n, gens):
    got = _plain(zset_of_generators(MatrixContext(n, n), gens))
    assert got == zset_box_table(n, gens)


def test_zset_rejects_generators_with_too_many_parts():
    with pytest.raises(ValueError, match="more than 3 parts"):
        zset_of_generators(MatrixContext(3, 3), [(2, 1), (1, 1, 1, 1)])


@pytest.mark.parametrize("query", [
    lambda ctx, zp: ext_jzl(ctx, zp, DegreeWindow(-9, 0)),
    attainable_indices,
    lambda ctx, zp: ext_min_degree(ctx, zp, 0),
])
def test_factor_queries_reject_z_with_more_than_n_parts(query):
    with pytest.raises(ValueError, match=r"^z=\(1, 1, 1\) has more than 2 parts$"):
        query(MatrixContext(3, 2), ZPair((1, 1, 1), 0))


@pytest.mark.parametrize("gens", [[(1, 2)], [(2, -1)], [(True, 1)]])
def test_zset_rejects_generators_that_are_not_partitions(gens):
    with pytest.raises(ValueError):
        zset_of_generators(MatrixContext(3, 3), gens)


@pytest.mark.parametrize("n, pairs, cells", [(8, 83, 112), (10, 94, 131)])
def test_zset_walk_tests_cells_that_follow_the_pairs(monkeypatch, n, pairs, cells):
    # the n x c boxes of c < 10 hold 48,620 cells at n = 8 and 167,960 at
    # n = 10; the walk reaches only the pairs and the cells one box above
    # them that lie in the ideal, so the cells are the pairs plus the cells
    # it drops. It tests only cells that growth alone reached, each at most
    # once, since a seed is never in the ideal; here each tested cell is a
    # generator, found by lookup in the walk's set of generators, so it
    # drops cells - pairs of them (29 and 37) and never builds the
    # containment index. The set is observed by standing in for the
    # module's set
    tested, inside = [], []

    class Recorded(set):
        def __contains__(self, z):
            tested.append(z)
            found = set.__contains__(self, z)
            if found:
                inside.append(z)
            return found

    def unused(*args):
        raise AssertionError("the walk asked the containment index")

    monkeypatch.setattr(homology, "set", Recorded, raising=False)
    monkeypatch.setattr(homology, "_index", unused)
    monkeypatch.setattr(homology, "_in_ideal", unused)
    got = zset(symbolic_power(MatrixContext(n, n), 4, 10))
    assert len(got) == pairs
    assert len(tested) == len(set(tested)) == len(inside) == cells - pairs
    assert len(got) + len(inside) == cells


@pytest.mark.parametrize("gens, lookups", [([(3, 3)], 0), ([(4,), (2, 2, 2)], 6)])
def test_zset_walk_tests_no_cell_below_the_smallest_indexed_generator(monkeypatch, gens,
                                                                      lookups):
    # a cell smaller than every indexed generator contains none of them, so
    # the walk does not look it up. (3, 3) is not indexed, as no cell
    # reaches its first row, so no cell is looked up; a walk that tested
    # every cell growth reached would look up 3 here, and 15 on the second
    # ideal, whose cells of size 6 or more it looks up 6 times
    tested = []

    class Recorded(set):
        def __contains__(self, z):
            tested.append(z)
            return set.__contains__(self, z)

    monkeypatch.setattr(homology, "set", Recorded, raising=False)
    got = _plain(zset(make_ideal(MatrixContext(3, 3), gens)))
    assert got == zset_box_table(3, gens)
    assert len(tested) == lookups and all(sum(z) >= 6 for z in tested)


def test_zset_of_maximal_ideal_powers():
    for n in (1, 2, 3):
        ctx = MatrixContext(n + 1, n)
        for d in range(1, 5):
            expect = frozenset(
                ZPair(z, 0)
                for z in enumerate_in_box(n, d - 1)
                if size(z) <= d - 1
            )
            assert zset(power_of_minors(ctx, 1, d)) == expect


def test_saturation_filter_matches_saturated_zset():
    ctx = MatrixContext(4, 4)
    cube = power_of_minors(ctx, 3, 3)
    for p in range(5):
        assert saturation_filter(zset(cube), p) == zset(saturate(cube, p))
    with pytest.raises(ValueError):
        saturation_filter(zset(cube), -1)


def test_saturation_filter_golden():
    ctx = MatrixContext(4, 4)
    sq = power_of_minors(ctx, 2, 2)
    assert saturation_filter(zset(sq), 1) == zset(symbolic_power(ctx, 2, 2))


ORACLE_CASES = [
    (3, 3, (), 1, -8, -4),
    (3, 3, (1, 1), 1, -9, -5),
    (4, 3, (2, 2), 1, -12, -8),
    (4, 4, (2, 2, 2, 1), 1, -16, -12),
    (4, 4, (2, 2, 2), 2, -14, -10),
]


def _ext_terms(m, n, z, l, lo, hi):
    """Summands of ext_jzl in the window, repeated by multiplicity, as the
    sorted (j, wm, wn, degree) list that ext_lambda_first returns."""
    terms = ext_jzl(MatrixContext(m, n), ZPair(z, l), DegreeWindow(lo, hi)).items()
    assert all(lo <= t.degree <= hi for _, t in terms)
    return sorted((j, t.wm, t.wn, t.degree) for j, t in terms for _ in range(t.multiplicity))


@pytest.mark.parametrize("m,n,z,l,lo,hi", ORACLE_CASES)
def test_ext_components_match_weight_first_oracle(m, n, z, l, lo, hi):
    assert _ext_terms(m, n, z, l, lo, hi) == ext_lambda_first(m, n, z, l, lo, hi)


def _factors(n, cmax):
    """Every valid factor index (z, l) with at most n rows and z_1 <= cmax."""
    for l in range(n):
        for z in enumerate_in_box(n, cmax):
            try:
                yield ZPair(z, l)
            except ValueError:
                continue


def test_ext_components_match_weight_first_oracle_on_every_small_factor():
    # every factor with n <= 3, z_1 <= 3 and m - n in {0, 1, 2}, in three
    # windows from the factor's least degree up: this runs the weight walk
    # at s = 0, at s = l, and with a block of m - n >= 2 entries inside wm
    windows = nonempty = 0
    for n in range(1, 4):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for zp in _factors(n, 3):
                least = min(homology._least_degrees(ctx, zp).values())
                for lo, hi in ((least - 2, least), (least + 1, least + 3),
                               (least + 4, least + 7)):
                    want = ext_lambda_first(m, n, zp.z, zp.l, lo, hi)
                    got = _ext_terms(m, n, zp.z, zp.l, lo, hi)
                    assert got == want, (m, n, zp, lo, hi)
                    # _ext_terms repeats a term by its multiplicity: all are 1
                    assert len(set(got)) == len(got), (m, n, zp, lo, hi)
                    windows += 1
                    nonempty += bool(want)
    assert (windows, nonempty) == (468, 263)


def _free_runs(lower, upper):
    """Runs of consecutive free positions of a tight 0-based box (free where
    the bounds differ), or None when the box is empty."""
    if any(x > u for x, u in zip(lower, upper)):
        return None
    free = [i for i in range(len(lower)) if lower[i] < upper[i]]
    return sum(1 for k, i in enumerate(free) if not k or free[k - 1] != i - 1)


def _tight(lower, upper):
    """The box that _lambdas reads: upper to the minimum from the left,
    lower to the maximum from the right, which every dominant weight in
    the box meets."""
    return ([max(lower[i:]) for i in range(len(lower))], list(accumulate(upper, min)))


def test_ext_components_match_weight_first_oracle_on_four_rows():
    # every factor with n = 4, z_1 <= 2 and m - n in {0, 1, 2}, in the three
    # windows of the sweep above and one 25 wide, against the same oracle;
    # the weight walk meets data whose free positions split into two runs
    windows = nonempty = 0
    runs = Counter()
    for m in (4, 5, 6):
        ctx = MatrixContext(m, 4)
        for zp in _factors(4, 2):
            runs.update(_free_runs(lower, upper)
                        for _, _, lower, upper in homology._st_data(ctx, zp))
            least = min(homology._least_degrees(ctx, zp).values())
            for lo, hi in ((least - 2, least), (least + 1, least + 3),
                           (least + 4, least + 7), (least - 1, least + 23)):
                want = ext_lambda_first(m, 4, zp.z, zp.l, lo, hi)
                got = _ext_terms(m, 4, zp.z, zp.l, lo, hi)
                assert got == want, (m, zp, lo, hi)
                assert len(set(got)) == len(got), (m, zp, lo, hi)
                windows += 1
                nonempty += bool(want)
    assert (windows, nonempty) == (408, 314)
    # data by the number of runs of free positions
    assert runs == {0: 81, 1: 90, 2: 3}


def _random_box(rng, n):
    """Loose 0-based lower and upper bound lists around a random weakly
    decreasing weight with entries in [-5, 3], so that a later run of free
    entries can have a positive largest sum: each upper is inf, the
    weight's entry or a little above it, each lower the entry or a little
    below it; now and then one lower is raised above an earlier upper,
    which empties the box only after tightening."""
    lam = sorted((rng.randint(-5, 3) for _ in range(n)), reverse=True)
    lower, upper = [], []
    for v in lam:
        lower.append(v - rng.choice((0, 0, 1, 2)))
        upper.append(rng.choice((inf, v, v, v + 1, v + 2)))
    if n > 1 and rng.random() < 0.15:
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        if upper[i] < inf:
            lower[j] = max(lower[j], upper[i] + 1)
            upper[j] = max(upper[j], lower[j])
    return lower, upper


def test_lambdas_match_box_brute_force():
    # _lambdas on the tightened box against the unpruned enumeration on the
    # loose one, on seeded random boxes with n <= 6, m - n <= 2 and every s,
    # in windows that miss the box, cut through it or hold all of it, and on
    # the D_0 bounds of ds_character
    rng = random.Random(23)
    seen = Counter()  # features of the boxes and of their windows
    cases = []
    for _ in range(400):
        n = rng.randint(1, 6)
        lower, upper = _random_box(rng, n)
        tight = _tight(lower, upper)
        runs = _free_runs(*tight)
        seen["inf upper"] += inf in upper
        seen[f"{runs} runs"] += 1
        if runs is None:
            assert all(x <= u for x, u in zip(lower, upper))  # only tightening empties it
        least, most = map(sum, tight)
        start = least + rng.randint(-4, 6)
        windows = [(least - 5, least - 1), (start, start + rng.randint(0, 6))]
        if runs is not None and most < inf:
            windows += [(least - rng.randint(0, 2), most + rng.randint(0, 2)),
                        (most + 1, most + 3)]
        for lo, hi in windows:
            if runs is not None:
                seen["window misses" if hi < least or lo > most else
                     "window holds all" if lo <= least and most <= hi else "window cuts"] += 1
            cases.append((n + rng.randint(0, 2), n, rng.randint(0, n - 1),
                          (lower, upper), tight, lo, hi))
    for n in range(1, 5):
        for m in (n, n + 1, n + 2):
            top = -m * n
            for lo, hi in ((top - 9, top), (top - 6, top - 3), (top - 3, top + 4),
                           (top + 1, top + 5)):
                box = ([lo + (n - 1) * m] * n, [-m] * n)
                cases.append((m, n, 0, box, box, lo, hi))
    nonempty = 0
    for m, n, s, loose, tight, lo, hi in cases:
        flat = homology._lambdas(MatrixContext(m, n), s, *tight, DegreeWindow(lo, hi))
        # flat terms (degree, 1, *wm, *lam), read back as (wm, lam, degree)
        assert all(len(term) == 2 + m + n and term[1] == 1 for term in flat)
        got = [(term[2:2 + m], term[2 + m:], term[0]) for term in flat]
        want = lambdas_box_brute(m, n, s, *loose, lo, hi)
        assert sorted(got) == want, (m, n, s, loose, lo, hi)
        # each weight once, in decreasing order of lam
        assert [lam for _, lam, _ in got] == sorted((lam for _, lam, _ in want), reverse=True)
        nonempty += bool(want)
    assert (len(cases), nonempty) == (1398, 584)
    # two or more runs put a forced entry between free ones
    assert seen == {"0 runs": 15, "1 runs": 279, "2 runs": 63, "3 runs": 5, "None runs": 38,
                    "inf upper": 222, "window misses": 726, "window cuts": 244,
                    "window holds all": 304}


def test_scan_matches_weight_first_oracle():
    # Entries of lam are at least -(z_1 + m), and the least lam of a datum
    # has entries <= -1, so [-n(z_1 + m), -n] holds every least degree.
    for n in range(1, 5):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for zp in _factors(n, 3):
                lo = -n * (part(zp.z, 1) + m)
                least = {}
                for j, _, _, deg in ext_lambda_first(m, n, zp.z, zp.l, lo, -n):
                    least[j] = min(deg, least.get(j, deg))
                assert attainable_indices(ctx, zp) == sorted(least), (m, zp)
                for j in range(m * n + 2):
                    assert ext_min_degree(ctx, zp, j) == least.get(j), (m, zp, j)


def _family_factors():
    """The distinct factors of the three families over n <= 7,
    m in {n, n+1, n+2}, p <= n and d <= 5, with their contexts."""
    seen = set()
    for n in range(1, 8):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                for d in range(1, 6):
                    for family in (power_of_minors, symbolic_power, saturated_power):
                        for zp in zset(family(ctx, p, d)):
                            if (m, zp) not in seen:
                                seen.add((m, zp))
                                yield ctx, zp


def _closed(ctx, zp):
    # the largest -deg - j of a factor, as regularity reads it
    return homology._factor_regularity(ctx.n, zp.z, zp.l)


def _walked(ctx, zp):
    # the data _st_data yields, as a multiset comparable with _scanned's;
    # each box is tight: both bounds weakly decrease and lower <= upper
    walked = Counter()
    for s, j, lower, upper in homology._st_data(ctx, zp):
        for bound in (lower, upper):
            assert all(a >= b for a, b in zip(bound, bound[1:])), (ctx, zp, s, bound)
        assert all(a <= b for a, b in zip(lower, upper)), (ctx, zp, s, lower, upper)
        walked[s, j, tuple(lower), tuple(upper)] += 1
    return walked


def _scanned(m, n, z, l):
    # the data st_data_scan finds feasible, upper tightened to its prefix minimum
    return Counter((s, j, lower, tuple(accumulate(upper, min)))
                   for s, j, lower, upper in st_data_scan(m, n, z, l))


def test_least_degrees_match_scan_on_the_families():
    # _st_data yields the data the full scan finds feasible, each once,
    # and the least degrees read from those data are the scan's
    count = 0
    for ctx, zp in _family_factors():
        data = st_data_scan(ctx.m, ctx.n, zp.z, zp.l)
        assert _walked(ctx, zp) == _scanned(ctx.m, ctx.n, zp.z, zp.l), (ctx, zp)
        least = {}
        for _, j, lower, _ in data:
            least[j] = min(sum(lower), least.get(j, sum(lower)))
        assert homology._least_degrees(ctx, zp) == least, (ctx, zp)
        assert _closed(ctx, zp) == factor_regularity_scan(ctx.m, ctx.n, zp.z, zp.l), (ctx, zp)
        count += 1
    assert count == 1497


def test_least_degrees_match_scan_on_random_raw_families():
    rng = random.Random(1013)
    factors = 0
    for _ in range(320):
        n = rng.randint(1, 6)
        m = n + rng.randint(0, 2)
        ctx = MatrixContext(m, n)
        gens = [sorted((rng.randint(1, 5) for _ in range(rng.randint(0, n))), reverse=True)
                for _ in range(rng.randint(1, 5))]
        for zp in zset_of_generators(ctx, gens):
            assert homology._least_degrees(ctx, zp) == least_degrees_scan(m, n, zp.z, zp.l), (
                m, n, gens, zp)
            assert _walked(ctx, zp) == _scanned(m, n, zp.z, zp.l), (m, n, gens, zp)
            assert _closed(ctx, zp) == factor_regularity_scan(m, n, zp.z, zp.l), (
                m, n, gens, zp)
            factors += 1
    assert factors == 3363


@pytest.mark.parametrize("m, n, z, l", [
    (1, 1, (), 0),
    (3, 1, (4,), 0),
    (4, 4, (3, 1), 0),  # l = 0: one datum, s = 0 and t = 0
    (6, 4, (2, 2, 2, 1), 0),
    (4, 4, (2, 2, 2, 2), 3),  # l = n - 1: t = (l,)
    (6, 4, (1, 1, 1, 1), 3),
    (3, 3, (), 2),  # z = ()
    (5, 5, (), 0),
    (7, 5, (), 4),
    (6, 6, (3, 3, 3, 2, 2), 2),  # m = n, blocks of equal rows
    (8, 6, (4, 4, 3, 1, 1, 1), 1),  # m = n + 2
    (8, 6, (5, 5, 5, 5, 2), 3),
])
def test_least_degree_program_matches_scan_on_edge_cases(m, n, z, l):
    ctx, zp = MatrixContext(m, n), ZPair(z, l)
    least = least_degrees_scan(m, n, z, l)
    assert least and homology._least_degrees(ctx, zp) == least
    assert _walked(ctx, zp) == _scanned(m, n, z, l)
    assert attainable_indices(ctx, zp) == sorted(least)
    assert _closed(ctx, zp) == factor_regularity_scan(m, n, z, l)


def test_factor_regularity_matches_scan_on_every_small_factor():
    # every (z, l) with n <= 7, z_1 <= 5 and rows 1..l+1 of z equal
    count = 0
    for n in range(1, 8):
        for z in box_partitions(n, 5):
            for l in range(n):
                if any(part(z, i) != part(z, 1) for i in range(2, l + 2)):
                    continue
                for m in (n, n + 1, n + 2):
                    want = factor_regularity_scan(m, n, z, l)
                    assert homology._factor_regularity(n, z, l) == want, (m, n, z, l)
                    count += 1
    assert count == 10272


def test_ext_of_maximal_ideal_powers():
    # For the ideal of entries of a one-column matrix, Ext is concentrated
    # in cohomological index N with one weight per filtration factor.
    N, d = 3, 3
    ctx = MatrixContext(N, 1)
    ideal = power_of_minors(ctx, 1, d)
    ch = ext_quotient(ideal, DegreeWindow(-5, -3))
    assert ch.indices() == [N]
    assert ch.dimension_table(N, 1) == {(N, -3): 1, (N, -4): 3, (N, -5): 6}
    assert not ext_quotient(ideal, DegreeWindow(-9, -6))
    for zp in zset(ideal):
        assert attainable_indices(ctx, zp) == [N]


def test_ext_quotient_of_trivial_ideals_is_empty():
    ctx = MatrixContext(3, 3)
    w = DegreeWindow(-10, 0)
    assert not ext_quotient(make_ideal(ctx, []), w)
    assert not ext_quotient(make_ideal(ctx, [[]]), w)


def test_ext_map_analysis_identity():
    ctx = MatrixContext(3, 3)
    sq = power_of_minors(ctx, 2, 2)
    w = DegreeWindow(-10, -6)
    kernel, image, cokernel = ext_map_analysis(sq, sq, w)
    assert not kernel and not cokernel
    assert image == ext_quotient(sq, w)


def test_ext_map_analysis_saturation_map():
    ctx = MatrixContext(4, 4)
    cube = power_of_minors(ctx, 3, 3)
    sat = saturate(cube, 2)
    w = DegreeWindow(-16, -10)
    kernel, image, cokernel = ext_map_analysis(sat, cube, w)
    assert not kernel
    assert image == ext_quotient(sat, w)
    dropped = zset(cube) - zset(sat)
    assert dropped == {ZPair((2, 2, 2, 2), 0), ZPair((2, 2, 2, 1), 1)}
    assert all(zp.l < 2 for zp in dropped)
    expect = ext_jzl(ctx, ZPair((2, 2, 2, 2), 0), w) + ext_jzl(ctx, ZPair((2, 2, 2, 1), 1), w)
    assert cokernel == expect
    with pytest.raises(ValueError):
        ext_map_analysis(cube, sat, w)


def _least_ext_degree(a):
    ctx = a.ctx
    return min(ext_min_degree(ctx, zp, j)
               for zp in zset(a) for j in attainable_indices(ctx, zp))


def _factor_sum(ctx, pairs, w):
    return sum((ext_jzl(ctx, zp, w) for zp in pairs), EquivariantCharacter())


def test_ext_engines_equal_the_sum_of_their_factors():
    # ext_quotient and ext_map_analysis add every factor's terms into the
    # character they return; the sum of the factor characters must agree.
    # Each window starts at the least Ext degree, so no character is empty
    # for want of a low enough window.
    quotients = cokernels = 0
    for n in range(1, 5):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                for d in range(1, 4):
                    for family in (power_of_minors, symbolic_power, saturated_power):
                        a = family(ctx, p, d)
                        if not zset(a):
                            continue
                        lo = _least_ext_degree(a)
                        w = DegreeWindow(lo, lo + 3)
                        ch = ext_quotient(a, w)
                        assert ch and ch == _factor_sum(ctx, zset(a), w)
                        quotients += 1
                    a, b = symbolic_power(ctx, p, d), power_of_minors(ctx, p, d)
                    za, zb = zset(a), zset(b)
                    lo = min(_least_ext_degree(a), _least_ext_degree(b))
                    w = DegreeWindow(lo, lo + 3)
                    kernel, image, cokernel = ext_map_analysis(a, b, w)
                    assert kernel == _factor_sum(ctx, za - zb, w)
                    assert image == _factor_sum(ctx, za & zb, w)
                    assert cokernel == _factor_sum(ctx, zb - za, w)
                    cokernels += bool(cokernel)
    assert (quotients, cokernels) == (156, 12)


def test_attainable_indices_golden():
    assert attainable_indices(MatrixContext(3, 1), ZPair((1,), 0)) == [3]
    assert attainable_indices(MatrixContext(3, 3), ZPair((), 1)) == [4]


def test_ext_min_degree_one_column():
    ctx = MatrixContext(3, 1)
    for i in range(3):
        zp = ZPair((i,) if i else (), 0)
        assert ext_min_degree(ctx, zp, 3) == -i - 3
        assert ext_min_degree(ctx, zp, 2) is None


def test_ext_min_degree_is_attained():
    ctx = MatrixContext(3, 3)
    zp = ZPair((), 1)
    lo = ext_min_degree(ctx, zp, 4)
    assert lo == -6
    hit = ext_jzl(ctx, zp, DegreeWindow(lo, lo))
    assert hit and hit.indices() == [4]
    assert 4 not in ext_jzl(ctx, zp, DegreeWindow(lo - 5, lo - 1)).indices()


def test_regularity_of_determinantal_powers():
    ctx3 = MatrixContext(3, 3)
    for d in (1, 2, 3):
        assert regularity(power_of_minors(ctx3, 3, d)) == 3 * d
    ctx4 = MatrixContext(4, 4)
    for d in (1, 2, 3):
        assert regularity(power_of_minors(ctx4, 2, d)) == d + 3
        assert regularity(power_of_minors(ctx4, 4, d)) == 4 * d
    assert regularity(power_of_minors(ctx4, 3, 3)) == 10
    assert regularity(symbolic_power(ctx4, 3, 3)) == 9


def test_regularity_is_one_more_than_the_largest_factor_scan(capsys):
    # seeded random raw ideals; half of them go through the CLI with the
    # sides given wide, which the CLI transposes back
    rng = random.Random(2018)
    checked = 0
    for case in range(200):
        n = rng.randint(1, 6)
        m = n + rng.randint(0, 2)
        gens = [sorted((rng.randint(1, 5) for _ in range(rng.randint(1, n))), reverse=True)
                for _ in range(rng.randint(1, 4))]
        gens += rng.sample(gens, rng.randint(0, 1))
        ideal = make_ideal(MatrixContext(m, n), gens)
        want = 1 + max(factor_regularity_scan(m, n, zp.z, zp.l) for zp in zset(ideal))
        if case % 2:
            assert regularity(ideal) == want, (m, n, gens)
        else:
            code = main(["reg", "-m", str(n), "-n", str(m), "--gens", json.dumps(gens),
                         "--format", "json"])
            out = capsys.readouterr()
            assert code == 0 and json.loads(out.out)["regularity"] == want, (m, n, gens)
            assert ("transposing" in out.err) == (m > n)
        checked += 1
    assert checked == 200


def _duality_cases():
    """Ideals of S for the local duality identity: seeded random raw
    families (repeated, redundant and empty generators allowed), then the
    three families, all with n <= 3 and m in {n, n+1, n+2}."""
    rng = random.Random(4551)
    for _ in range(90):
        n = rng.randint(1, 3)
        m = n + rng.randint(0, 2)
        gens = [sorted((rng.randint(1, 4) for _ in range(rng.randint(0, n))), reverse=True)
                for _ in range(rng.randint(1, 4))]
        gens += rng.sample(gens, rng.randint(0, 1))
        yield make_ideal(MatrixContext(m, n), gens)
    for n in range(1, 4):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for family in (power_of_minors, symbolic_power, saturated_power):
                for p in range(1, n + 1):
                    for d in range(1, 4):
                        yield family(ctx, p, d)


def test_local_duality_against_the_hilbert_function():
    # HF(S/I, d) - HP(S/I, d) = sum_j (-1)^(N-j) dim Ext^j(S/I, S)_{-d-N},
    # N = mn (Grothendieck-Serre and graded local duality), for every d
    # from below 0 to past the regularity; the left side is computed from
    # the Cauchy decomposition alone. Every term of every character has
    # multiplicity 1
    checked = keys = 0
    for ideal in _duality_cases():
        if ideal.is_unit:
            continue
        m, n = ideal.ctx.m, ideal.ctx.n
        N = m * n
        top = regularity(ideal)  # past reg(S/I) = top - 1, so HF = HP from here on
        degrees = range(-N - 2, top + 1)
        window = DegreeWindow(-top - N, -degrees[0] - N)
        ch = ext_quotient(ideal, window)
        terms = ch.items()
        assert all(term.multiplicity == 1 for _, term in terms), ideal
        keys += len(terms)
        table = ch.dimension_table(m, n)
        # the window starts below the least Ext degree
        assert all(deg > window.lo for _, deg in table), ideal
        right = dict.fromkeys(degrees, 0)
        for (j, deg), dim in table.items():
            right[-deg - N] += (-1) ** (N - j) * dim
        assert hilbert_excess(m, n, ideal.gens, degrees, top) == right, ideal
        checked += 1
    assert (checked, keys) == (172, 3374)


def test_regularity_rejects_trivial_ideals():
    ctx = MatrixContext(3, 3)
    with pytest.raises(ValueError):
        regularity(make_ideal(ctx, []))
    with pytest.raises(ValueError):
        regularity(make_ideal(ctx, [[]]))
