import random

import pytest

import glinv.partitions as partitions
from glinv import (
    InvariantIdeal,
    MatrixContext,
    ideal_leq,
    make_ideal,
    minimalize,
    power_of_minors,
    saturate,
    saturated_power,
    saturation_generators,
    strip_short_columns,
    succ_min,
    symbolic_power,
)

from _oracles import ideal_leq_scan, minimalize_scan, succ_min_brute, symbolic_generators_dep

CTX3 = MatrixContext(3, 3)
CTX4 = MatrixContext(4, 4)


def test_context_requires_ordered_sides():
    MatrixContext(5, 3)
    MatrixContext(1, 1)
    with pytest.raises(ValueError):
        MatrixContext(2, 3)
    with pytest.raises(ValueError):
        MatrixContext(3, 0)


@pytest.mark.parametrize("m, n", [(3.5, 2), (3, 2.0), (True, True), (2, True), ("3", 2)])
def test_context_rejects_non_integer_sides(m, n):
    with pytest.raises(ValueError, match="integers"):
        MatrixContext(m, n)


def test_make_ideal_normalizes():
    ideal = make_ideal(CTX3, [[2, 2], [2, 1], [3, 3, 3]])
    assert ideal.gens == ((2, 1),)
    assert make_ideal(CTX3, []).is_zero
    assert make_ideal(CTX3, [[]]).is_unit
    assert make_ideal(CTX3, [[1], []]).is_unit


def test_make_ideal_is_order_insensitive():
    a = make_ideal(CTX3, [[3, 1], [2, 2]])
    b = make_ideal(CTX3, [[2, 2], [3, 1]])
    assert a == b
    assert a.gens == ((3, 1), (2, 2))


def test_make_ideal_rejects_tall_generators():
    with pytest.raises(ValueError):
        make_ideal(CTX3, [[1, 1, 1, 1]])


def test_make_ideal_rejects_non_integer_rows():
    with pytest.raises(ValueError, match="integers"):
        make_ideal(CTX3, [[2.7, 1]])


def test_make_ideal_rejects_boolean_rows():
    with pytest.raises(ValueError, match="booleans"):
        make_ideal(CTX3, [[True]])


def test_direct_constructor_validates():
    with pytest.raises(ValueError):
        InvariantIdeal(CTX3, ((2, 1), (2, 2)))  # not sorted descending
    with pytest.raises(ValueError):
        InvariantIdeal(CTX3, ((2, 2), (2, 1)))  # not an antichain
    with pytest.raises(ValueError):
        InvariantIdeal(CTX3, ((2, 1, 0),))  # not canonical
    with pytest.raises(ValueError):
        InvariantIdeal(CTX3, ((1,), (1,)))  # duplicate


def test_ideal_leq_is_reverse_containment():
    minors1 = make_ideal(CTX3, [[1]])
    minors2 = make_ideal(CTX3, [[1, 1]])
    assert ideal_leq(minors1, minors2)
    assert not ideal_leq(minors2, minors1)
    unit = make_ideal(CTX3, [[]])
    zero = make_ideal(CTX3, [])
    for other in (minors1, minors2, zero, unit):
        assert ideal_leq(unit, other)
        assert ideal_leq(other, zero)
    with pytest.raises(ValueError):
        ideal_leq(minors1, make_ideal(CTX4, [[1]]))


@pytest.mark.parametrize("gens", [[(1,)], []])
def test_constructor_names_the_tuple_it_expects(gens):
    with pytest.raises(ValueError, match="gens must be a tuple of partitions, not list"):
        InvariantIdeal(CTX3, gens)


def test_minimalize_and_ideal_leq_equal_the_scans_on_the_families():
    # raw families from the named ones: each antichain, its stripped
    # generators for every p, and the union of the members at d and d + 1
    for n in range(1, 7):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                ideals = [make_ideal(ctx, []), make_ideal(ctx, [[]])]
                for family in (power_of_minors, symbolic_power, saturated_power):
                    members = [family(ctx, p, d) for d in range(1, 7)]
                    raws = [a.gens + b.gens for a, b in zip(members, members[1:])]
                    raws += [saturation_generators(a, q) for a in members for q in range(n + 1)]
                    for raw in raws + [a.gens for a in members]:
                        assert minimalize(raw) == minimalize_scan(raw), (m, n, p, raw)
                    for d, a in enumerate(members, 1):
                        assert a.gens == minimalize_scan(a.gens), (family, m, n, p, d)
                    ideals += members
                for a in ideals:
                    for b in ideals:
                        assert ideal_leq(a, b) == ideal_leq_scan(a.gens, b.gens), (a, b)


def test_minimalize_and_ideal_leq_equal_the_scans_on_random_raw_families():
    # mixed sizes, repeats and the occasional empty partition; each ideal is
    # compared with the previous one of the same n and with zero and unit
    rng = random.Random(3011)
    previous = {}
    for _ in range(3000):
        n = rng.randint(1, 6)
        raw = [tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, n))), reverse=True))
               for _ in range(rng.randint(0, 8))]
        raw += rng.sample(raw, min(len(raw), rng.randint(0, 2)))
        if rng.random() < 0.05:
            raw.append(())
        rng.shuffle(raw)
        assert minimalize(raw) == minimalize_scan(raw), raw
        ctx = MatrixContext(n, n)
        a = InvariantIdeal(ctx, minimalize(raw))
        for b in (previous.get(n, a), make_ideal(ctx, []), make_ideal(ctx, [[]])):
            assert ideal_leq(a, b) == ideal_leq_scan(a.gens, b.gens), (a, b)
            assert ideal_leq(b, a) == ideal_leq_scan(b.gens, a.gens), (b, a)
        previous[n] = a


@pytest.mark.parametrize("family, p, d, inserted, queried", [
    (saturated_power, 4, 10, 1128, 1459),
    (power_of_minors, 5, 12, 0, 0),
])
def test_constructor_check_queries_the_index_once_per_generator_above_the_least_size(
        monkeypatch, family, p, d, inserted, queried):
    # the saturated family has 1,468 generators, 9 of them of the least size
    # 34 and 340 of the largest size 40; the power has 16,660 of one size
    calls = {"inserted": 0, "queried": 0}
    insert, in_ideal = partitions._insert, partitions._in_ideal

    def counted_insert(trie, x):
        calls["inserted"] += 1
        return insert(trie, x)

    def counted_in_ideal(trie, z):
        calls["queried"] += 1
        return in_ideal(trie, z)

    # the builders skip the check, so it runs on their output directly
    a = family(MatrixContext(10, 10), p, d)
    monkeypatch.setattr(partitions, "_insert", counted_insert)
    monkeypatch.setattr(partitions, "_in_ideal", counted_in_ideal)
    assert InvariantIdeal(a.ctx, a.gens) == a
    assert calls == {"inserted": inserted, "queried": queried}
    assert queried <= len(a.gens)


def test_family_builders_pass_the_constructor_check():
    # the builders skip the check on their closed forms; this sweep is its
    # oracle: n <= 8, m in {n, n + 1}, every p, d <= 10, 2,376 builds
    for n in range(1, 9):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                for d in range(11):
                    for family in (power_of_minors, symbolic_power, saturated_power):
                        a = family(ctx, p, d)
                        assert InvariantIdeal(ctx, a.gens) == a, (family, m, n, p, d)


CTX54 = MatrixContext(5, 4)
CUBE54 = power_of_minors(CTX54, 3, 2)


@pytest.mark.parametrize("build, want", [
    (lambda: make_ideal(CTX54, [[2, 2], [2, 1], [3, 3, 3]]), 1),
    (lambda: saturate(CUBE54, 1), 1),
    (lambda: power_of_minors(CTX54, 2, 3), 0),
    (lambda: symbolic_power(CTX54, 2, 3), 0),
    (lambda: saturated_power(CTX54, 2, 3), 0),
], ids=["make_ideal", "saturate", "power_of_minors", "symbolic_power", "saturated_power"])
def test_each_build_minimalizes_at_most_once(monkeypatch, build, want):
    # make_ideal and saturate reduce their family once; the builders' closed
    # forms are canonical, so they do not minimalize at all
    calls = []

    def counted(xs):
        calls.append(xs)
        return minimalize(xs)

    monkeypatch.setattr("glinv.ideals.minimalize", counted)
    build()
    assert len(calls) == want


def test_power_edge_cases():
    assert power_of_minors(CTX3, 2, 0).is_unit
    assert power_of_minors(CTX3, 3, 2).gens == ((2, 2, 2),)
    assert power_of_minors(CTX3, 2, 1).gens == ((1, 1),)
    with pytest.raises(ValueError):
        power_of_minors(CTX3, 4, 1)
    with pytest.raises(ValueError):
        power_of_minors(CTX3, 0, 1)
    with pytest.raises(ValueError):
        power_of_minors(CTX3, 2, -1)


def test_symbolic_collapses_for_extreme_minor_sizes():
    for d in range(5):
        assert symbolic_power(CTX3, 1, d) == power_of_minors(CTX3, 1, d)
        assert symbolic_power(CTX3, 3, d) == power_of_minors(CTX3, 3, d)


def test_saturated_power_small():
    assert saturated_power(CTX3, 2, 3).gens == ((3, 3), (2, 2, 1))
    assert saturated_power(CTX3, 1, 4).is_unit
    assert saturated_power(MatrixContext(5, 1), 1, 3).is_unit
    assert saturated_power(CTX3, 2, 0).is_unit


def test_strip_short_columns():
    assert strip_short_columns((3, 2, 1), 1) == (2, 2, 1)
    assert strip_short_columns((3, 3, 2, 1), 2) == (2, 2, 2, 1)
    assert strip_short_columns((4, 4), 1) == (4, 4)
    assert strip_short_columns((3, 2, 1), 0) == (3, 2, 1)
    assert strip_short_columns((2, 2), 2) == ()
    with pytest.raises(ValueError):
        strip_short_columns((1,), -1)


def test_saturation_generators_keeps_redundant_members():
    cube = power_of_minors(CTX4, 3, 3)
    raw = saturation_generators(cube, 2)
    assert set(raw) == {(3, 3, 3), (2, 2, 2, 1), (2, 2, 2, 2)}
    assert saturate(cube, 2).gens == ((3, 3, 3), (2, 2, 2, 1))


def test_saturate_identity_and_collapse():
    sq = power_of_minors(CTX3, 2, 2)
    assert saturate(sq, 0) == sq
    assert saturate(sq, 3).is_unit
    assert saturate(make_ideal(CTX3, []), 2).is_zero
    assert saturate(make_ideal(CTX3, [[]]), 2).is_unit
    with pytest.raises(ValueError):
        saturate(sq, 4)


def test_saturation_reproduces_symbolic_and_saturated_powers():
    for n in range(1, 8):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for p in range(1, n + 1):
                for d in range(8):
                    base = power_of_minors(ctx, p, d)
                    assert saturate(base, p - 1) == symbolic_power(ctx, p, d), (m, n, p, d)
                    assert saturate(base, 1) == saturated_power(ctx, p, d), (m, n, p, d)


def test_symbolic_power_matches_dep_criterion():
    for n in range(1, 7):
        ctx = MatrixContext(n, n)
        for p in range(1, n + 1):
            for d in range(7):
                want = symbolic_generators_dep(n, p, d)
                assert symbolic_power(ctx, p, d).gens == want, (n, p, d)


def test_power_saturated_symbolic_chain():
    for n in (2, 3, 4):
        ctx = MatrixContext(n + 1, n)
        for p in range(2, n + 1):
            for d in range(1, 5):
                base = power_of_minors(ctx, p, d)
                sat = saturated_power(ctx, p, d)
                symb = symbolic_power(ctx, p, d)
                assert ideal_leq(sat, base)
                assert ideal_leq(symb, sat)


def test_chain_direction_for_one_by_one_minors():
    for d in range(1, 4):
        base = power_of_minors(CTX3, 1, d)
        assert symbolic_power(CTX3, 1, d) == base
        assert saturated_power(CTX3, 1, d).is_unit


def test_succ_min_reference_values():
    assert set(succ_min(CTX3, (2, 2), 1)) == {(3, 3), (2, 2, 1)}
    assert set(succ_min(CTX3, (2, 2, 2), 2)) == {(3, 3, 3)}
    assert set(succ_min(CTX4, (2, 2, 2), 2)) == {(3, 3, 3), (2, 2, 2, 1)}
    assert set(succ_min(CTX3, (3, 1), 0)) == {(4, 1), (3, 2), (3, 1, 1)}


def test_succ_min_against_brute_force():
    from glinv import enumerate_in_box

    for n in (2, 3):
        ctx = MatrixContext(n, n)
        for z in enumerate_in_box(n, 2):
            for l in range(n):
                got = set(succ_min(ctx, z, l))
                assert got == succ_min_brute(n, z, l), (n, z, l)
    ctx = MatrixContext(4, 4)
    for z in ((2, 2, 1), (3, 1, 1, 1), ()):
        for l in range(4):
            assert set(succ_min(ctx, z, l)) == succ_min_brute(4, z, l)


def test_succ_min_validates_input():
    with pytest.raises(ValueError):
        succ_min(CTX3, (1,), 3)
    with pytest.raises(ValueError):
        succ_min(CTX3, (1, 1, 1, 1), 0)
