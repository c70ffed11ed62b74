"""Frozen reference values and the selftest harness built on them.

Every check here pins an externally worked-out value: small classification
tables, Z-sets, Ext weights, local cohomology grids, and Betti tables that
were computed by hand. The CLI selftest runs the whole corpus; the test
suite reuses it so the published values live in exactly one place.

A check joins the corpus by being a module-level function named check_*:
GOLDEN_CHECKS holds every such function, in the order written, under its
name without "check_" and with "-" for "_".
"""

from __future__ import annotations

from .betti import betti_table, h_rect
from .homology import (
    DegreeWindow,
    ZPair,
    ext_jzl,
    ext_quotient,
    regularity,
    saturation_filter,
    zset,
)
from .ideals import (
    MatrixContext,
    ideal_leq,
    make_ideal,
    power_of_minors,
    saturated_power,
    saturation_generators,
    succ_min,
    symbolic_power,
)
from .loccoh import ds_character, lc_support, lc_table
from .partitions import attach, conjugate, dual_weight, qbinomial
from .schur import dim_schur


def _eq(actual, expected, what: str) -> None:
    if actual != expected:
        raise AssertionError(f"{what}: expected {expected!r}, got {actual!r}")


def check_conjugate() -> None:
    _eq(conjugate((4, 2, 1)), (3, 2, 1, 1), "conjugate of (4,2,1)")
    _eq(conjugate((3, 3)), (2, 2, 2), "conjugate of (3,3)")
    _eq(conjugate(()), (), "conjugate of the zero partition")


def check_qbinomial() -> None:
    _eq(qbinomial(4, 2), (1, 1, 2, 1, 1), "qbinomial(4,2)")
    _eq(qbinomial(3, 1), (1, 1, 1), "qbinomial(3,1)")
    _eq(sum(qbinomial(4, 2)), 6, "qbinomial(4,2) at q=1")


def check_attach() -> None:
    _eq(attach(4, 5, (4, 2, 1), (3, 2)), (9, 7, 6, 5, 3, 2), "attach 4x5 example")
    _eq(attach(1, 1, (), ()), (1,), "attach of the bare 1x1 rectangle")


def check_dual_weight() -> None:
    _eq(dual_weight((3, 1, 1)), (-1, -1, -3), "dual of a hook weight")
    _eq(dual_weight((0, 0, 0)), (0, 0, 0), "dual of the trivial weight")


def check_schur_dimensions() -> None:
    table = {
        (2, 2): 6, (3, 2): 15, (2, 2, 1): 3,
        (3, 3): 10, (2, 2, 2): 1, (3, 2, 1): 8,
        (3, 2, 2): 3, (3, 3, 1): 6, (3, 3, 2): 3,
    }
    for w, want in table.items():
        _eq(dim_schur(w, 3), want, f"dim of S_{w} for GL_3")
    _eq(dim_schur((2, 1), 3), 8, "dim of S_(2,1) for GL_3")


def check_power_tables() -> None:
    ctx = MatrixContext(3, 3)
    table = {
        1: {(1, 1)},
        2: {(2, 2), (2, 1, 1)},
        3: {(3, 3), (3, 2, 1), (2, 2, 2)},
        4: {(4, 4), (4, 3, 1), (4, 2, 2), (3, 3, 2)},
        5: {(5, 5), (5, 4, 1), (5, 3, 2), (4, 4, 2), (4, 3, 3)},
    }
    for d, want in table.items():
        _eq(set(power_of_minors(ctx, 2, d).gens), want,
            f"generators of the 2x2 minors to the d={d}")


def check_saturation_tables() -> None:
    ctx = MatrixContext(3, 3)
    raw = {
        1: {(1, 1)},
        2: {(2, 2), (1, 1, 1)},
        3: {(3, 3), (2, 2, 1), (2, 2, 2)},
        4: {(4, 4), (3, 3, 1), (2, 2, 2), (3, 3, 2)},
        5: {(5, 5), (4, 4, 1), (3, 3, 2), (4, 4, 2), (3, 3, 3)},
    }
    for d, want in raw.items():
        got = set(saturation_generators(power_of_minors(ctx, 2, d), 1))
        _eq(got, want, f"raw column-stripped generators, p=2, d={d}")


def check_symbolic_tables() -> None:
    ctx = MatrixContext(3, 3)
    table = {
        1: {(1, 1)},
        2: {(2, 2), (1, 1, 1)},
        3: {(3, 3), (2, 2, 1)},
        4: {(4, 4), (3, 3, 1), (2, 2, 2)},
        5: {(5, 5), (4, 4, 1), (3, 3, 2)},
    }
    for d, want in table.items():
        _eq(set(symbolic_power(ctx, 2, d).gens), want, f"symbolic square, p=2, d={d}")


def check_three_by_three_family() -> None:
    ctx = MatrixContext(4, 4)
    cube = power_of_minors(ctx, 3, 3)
    sat = saturated_power(ctx, 3, 3)
    symb = symbolic_power(ctx, 3, 3)
    _eq(set(cube.gens), {(3, 3, 3), (3, 3, 2, 1), (3, 2, 2, 2)}, "cube of the 3x3 minors, n=4")
    _eq(set(sat.gens), {(3, 3, 3), (3, 3, 2, 1), (2, 2, 2, 2)}, "saturated cube, n=4")
    _eq(set(symb.gens), {(3, 3, 3), (2, 2, 2, 1)}, "symbolic cube, n=4")
    for small, big in ((cube, sat), (sat, symb)):
        if not (ideal_leq(big, small) and not ideal_leq(small, big)):
            raise AssertionError("the power/saturated/symbolic chain is not strict for p=3, d=3, n=4")


def check_succ_min() -> None:
    ctx = MatrixContext(3, 3)
    for l in range(3):
        _eq(set(succ_min(ctx, (), l)), {(1,) * (l + 1)}, f"successors of the zero partition, l={l}")
    _eq(set(succ_min(ctx, (1,), 0)), {(2,), (1, 1)}, "successors of (1), l=0")


def check_zset_minors() -> None:
    ctx = MatrixContext(3, 3)
    for l in range(3):
        ideal = make_ideal(ctx, [(1,) * (l + 1)])
        _eq(zset(ideal), frozenset({ZPair((), l)}), f"factors of the minors ideal, l={l}")
    one_row = MatrixContext(4, 1)
    for d in (1, 2, 3):
        got = zset(make_ideal(one_row, [(d,)]))
        want = frozenset(ZPair((i,) if i else (), 0) for i in range(d))
        _eq(got, want, f"factors of the d={d} power of the variables, one column")


def check_zset_cube() -> None:
    ctx = MatrixContext(4, 4)
    pairs = zset(power_of_minors(ctx, 3, 3))
    want = frozenset({
        ZPair((2, 2, 2), 2), ZPair((1, 1, 1), 2), ZPair((1, 1, 1, 1), 2),
        ZPair((), 2), ZPair((2, 2, 2, 1), 1), ZPair((2, 2, 2, 2), 0),
    })
    _eq(pairs, want, "factor pairs of the cube of the 3x3 minors, n=4")
    _eq(saturation_filter(pairs, 1), frozenset(zp for zp in want if zp.l >= 1),
        "pairs surviving saturation by the entries")
    _eq(len(saturation_filter(pairs, 2)), 4, "pairs surviving saturation by the 2x2 minors")


def check_zset_square_powers() -> None:
    ctx = MatrixContext(3, 3)
    symbolic_new = {
        1: {ZPair((), 1)},
        2: {ZPair((1, 1), 1)},
        3: {ZPair((2, 2), 1), ZPair((1, 1, 1), 1)},
        4: {ZPair((3, 3), 1), ZPair((2, 2, 1), 1)},
        5: {ZPair((4, 4), 1), ZPair((3, 3, 1), 1), ZPair((2, 2, 2), 1)},
    }
    # the l = 0 stratum is a per-d difference, not a running union
    low_diff = {
        1: set(),
        2: {ZPair((1, 1, 1), 0)},
        3: {ZPair((2, 2, 1), 0)},
        4: {ZPair((2, 2, 2), 0), ZPair((3, 2, 2), 0), ZPair((3, 3, 1), 0)},
        5: {ZPair((3, 3, 2), 0), ZPair((3, 3, 3), 0), ZPair((4, 4, 1), 0), ZPair((4, 3, 2), 0)},
    }
    symb_seen: set[ZPair] = set()
    for d in range(1, 6):
        symb_seen |= symbolic_new[d]
        _eq(zset(symbolic_power(ctx, 2, d)), frozenset(symb_seen),
            f"factors of the symbolic square power, d={d}")
        _eq(zset(power_of_minors(ctx, 2, d)), frozenset(symb_seen | low_diff[d]),
            f"factors of the ordinary square power, d={d}")


def check_ext_one_column() -> None:
    ctx = MatrixContext(3, 1)
    ch = ext_quotient(make_ideal(ctx, [(2,)]), DegreeWindow(-5, -3))
    _eq(ch.indices(), [3], "Ext indices for the square of the variables, one column")
    _eq(ch.multiplicity(3, (-1, -1, -1), (-3,), -3), 1, "top Ext term, i=0")
    _eq(ch.multiplicity(3, (-1, -1, -2), (-4,), -4), 1, "top Ext term, i=1")
    _eq(len(ch), 2, "number of windowed Ext terms, one column")


def check_ext_single_weight() -> None:
    ctx = MatrixContext(4, 1)
    ch = ext_jzl(ctx, ZPair((2,), 0), DegreeWindow(-6, -6))
    _eq(ch.indices(), [4], "Ext index of one factor, N=4")
    _eq(ch.multiplicity(4, (-1, -1, -1, -3), (-6,), -6), 1, "Ext weight of one factor, N=4, i=2")
    _eq(len(ch), 1, "single windowed Ext term, N=4, i=2")


def check_lc_square() -> None:
    ctx = MatrixContext(5, 5)
    table = lc_table(ctx, 3)
    want = {
        9: {0: 1, 1: 1, 2: 1},
        11: {0: 1, 1: 1},
        13: {0: 2, 1: 1},
        15: {0: 1},
        17: {0: 1},
    }
    _eq(table.rows, want, "factor multiplicities, 3x3 minors in a 5x5 matrix")
    _eq(lc_support(ctx, 3), (9, 17), "cohomology support, 3x3 minors in a 5x5 matrix")


def check_lc_one_column() -> None:
    for N in (2, 3, 4):
        ctx = MatrixContext(N, 1)
        _eq(lc_table(ctx, 1).rows, {N: {0: 1}}, f"one-column cohomology table, N={N}")
        _eq(lc_support(ctx, 1), (N, N), f"one-column cohomology support, N={N}")


def check_ds_one_column() -> None:
    N = 3
    ctx = MatrixContext(N, 1)
    ch = ds_character(ctx, 0, DegreeWindow(-N - 1, -N))
    _eq(ch.multiplicity(0, (-1, -1, -1), (-3,), -3), 1, "bottom weight of D_0, one column")
    _eq(ch.multiplicity(0, (-1, -1, -2), (-4,), -4), 1, "next weight of D_0, one column")
    _eq(len(ch), 2, "windowed D_0 terms, one column")


def check_h_rect() -> None:
    ctx = MatrixContext(3, 3)
    h22 = h_rect(ctx, 2, 2)
    want = [
        (0, (2, 2), (2, 2)),
        (1, (3, 2), (2, 2, 1)),
        (1, (2, 2, 1), (3, 2)),
        (2, (3, 3), (2, 2, 2)),
        (2, (3, 2, 1), (3, 2, 1)),
        (2, (2, 2, 2), (3, 3)),
        (3, (3, 3, 1), (3, 2, 2)),
        (3, (3, 2, 2), (3, 3, 1)),
        (4, (3, 3, 2), (3, 3, 2)),
    ]
    got = [(k, term.wm, term.wn) for k, term in h22.items()]
    _eq(sorted(got), sorted(want), "terms of the 2x2 rectangle block, 3x3 matrix")
    for k, term in h22.items():
        _eq(term.degree, 4 + k, "degree of a 2x2 rectangle block term")
    h33 = h_rect(ctx, 3, 3)
    _eq([(k, term.wm, term.wn, term.degree) for k, term in h33.items()],
        [(0, (3, 3, 3), (3, 3, 3), 9)], "the 3x3 rectangle block, 3x3 matrix")


def check_betti_square() -> None:
    ctx = MatrixContext(3, 3)
    table = betti_table(ctx, 2, 2)
    want = {
        (0, 4): 36, (1, 5): 90, (2, 6): 84,
        (3, 7): 36, (3, 9): 1, (4, 8): 9, (5, 9): 1,
    }
    _eq(table.entries, want, "Betti table of the square of the 2x2 minors, 3x3 matrix")
    _eq(table.totals(), {0: 36, 1: 90, 2: 84, 3: 37, 4: 9, 5: 1},
        "total Betti numbers of the square of the 2x2 minors")


def check_betti_one_column() -> None:
    ctx = MatrixContext(3, 1)
    table = betti_table(ctx, 1, 2)
    _eq(table.entries, {(0, 2): 6, (1, 3): 8, (2, 4): 3},
        "Betti table of the square of the variables, one column")


def check_regularity() -> None:
    ctx3 = MatrixContext(3, 3)
    _eq(regularity(power_of_minors(ctx3, 2, 1)), 3, "regularity of the 2x2 minors, 3x3")
    _eq(regularity(power_of_minors(ctx3, 2, 2)), 4, "regularity of the square, 3x3")
    _eq(regularity(power_of_minors(ctx3, 2, 3)), 6, "regularity of the cube, 3x3")
    _eq(regularity(symbolic_power(ctx3, 2, 3)), 6, "regularity of the symbolic cube, 3x3")
    for d in (1, 2, 3):
        _eq(regularity(power_of_minors(ctx3, 1, d)), d, f"regularity of the d={d} power of the entries")
    one_col = MatrixContext(4, 1)
    for d in (1, 2, 3):
        _eq(regularity(make_ideal(one_col, [(d,)])), d, f"one-column regularity, d={d}")


GOLDEN_CHECKS = tuple((name[len("check_"):].replace("_", "-"), fn)
                      for name, fn in globals().items() if name.startswith("check_"))


def run_golden_checks() -> list[tuple[str, str | None]]:
    """Run the whole corpus; return (name, error message or None) per check."""
    results = []
    for name, fn in GOLDEN_CHECKS:
        try:
            fn()
        except AssertionError as exc:
            results.append((name, str(exc)))
        except Exception as exc:  # named by its type, so selftest ends in its summary
            results.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, None))
    return results
