"""The renderers of glinv.cli against the text the dict and join forms give.

glinv.cli writes each term with one % operation: on one format per call for
the sorted runs of an Ext or D_0 character, and on a format built per pair
of weight lengths for a Betti polynomial. tests/_oracles.py keeps the forms
that preceded it: dicts encoded by json.dumps with sorted keys, and weights
joined by ",".join(map(str, w)), both read from the public characters. Both
must give the same bytes on every sweep below. The ideal, compare, zset, reg
and schurdim answers are % templates too, held here to json.dumps of their
dicts, built from the library's ideals and ZPair records.
"""

import contextlib
import io
import json
import random

import pytest

import glinv.cli as cli
from glinv import (DegreeWindow, MatrixContext, betti_polynomial, dim_schur, ext_jzl,
                   make_ideal, saturate, zset)
from glinv.cli import _print_betti_json, _print_character, main
from glinv.loccoh import _ds_terms, ds_character

import glinv.homology as homology
from _oracles import betti_json_dumps, character_json_dumps, character_pretty
from test_homology import _factors


def _printed(render, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        render(*args)
    return buf.getvalue()


def _ext_windows():
    """(context, runs, character, window) of every factor with n <= 3,
    z_1 <= 3 and m - n in {0, 1, 2}, in the three windows of the
    small-factor Ext sweep of test_homology, empty windows included: the
    runs the CLI prints and the public character of the same window."""
    for n in range(1, 4):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            for zp in _factors(n, 3):
                least = min(homology._least_degrees(ctx, zp).values())
                for lo, hi in ((least - 2, least), (least + 1, least + 3),
                               (least + 4, least + 7)):
                    window = DegreeWindow(lo, hi)
                    yield (ctx, homology._ext_terms(ctx, (zp,), window),
                           ext_jzl(ctx, zp, window), window)


def _d0_windows():
    """(context, runs, character, window) of D_0 for n <= 3,
    m in {n, n+1, n+2}: the top degree -mn alone, a window below it, and the
    empty window above it."""
    for n in range(1, 4):
        for m in (n, n + 1, n + 2):
            ctx = MatrixContext(m, n)
            top = -m * n
            for lo, hi in ((top, top), (top - 6, top - 2), (top + 1, top + 4)):
                window = DegreeWindow(lo, hi)
                yield ctx, _ds_terms(ctx, 0, window), ds_character(ctx, 0, window), window


def _labelled():
    for case in _ext_windows():
        yield *case, "Ext"
    for case in _d0_windows():
        yield *case, "D"


def test_character_json_equals_json_dumps_of_the_dicts():
    count = empty = 0
    for ctx, runs, ch, window, label in _labelled():
        want = character_json_dumps(ch._sorted_terms(), window.lo, window.hi)
        got = _printed(_print_character, runs, ctx, window, "json", label)
        assert got == want + "\n", window
        count += 1
        empty += not ch
    assert (count, empty) == (468 + 27, 205 + 9)


def test_character_pretty_lines_equal_the_joined_weights():
    one_entry = 0
    for ctx, runs, ch, window, label in _labelled():
        terms = ch._sorted_terms()
        lines = _printed(_print_character, runs, ctx, window, "pretty", label).split("\n")
        assert lines.pop() == ""
        assert lines == character_pretty(terms, window.lo, window.hi, label), window
        one_entry += sum(len(wm) == 1 for (_, _, wm, _), _ in terms)
    assert one_entry  # n = m = 1: weights of one entry


def test_betti_json_equals_json_dumps_of_the_dicts():
    # b = 3 reaches 10 homological indices, whose key "10" sorts before "2"
    widest = 0
    lengths = set()
    for n in range(1, 7):
        ctx = MatrixContext(n, n)
        for a in range(1, n + 1):
            for b in range(1, 4):
                bp = betti_polynomial(ctx, a, b)
                want = betti_json_dumps(bp._sorted_terms(), n, n, a, b)
                assert _printed(_print_betti_json, bp, ctx, a, b) == want + "\n", (n, a, b)
                widest = max(widest, len(bp.indices()))
                lengths.update(len(wm) for (_, _, wm, _), _ in bp._sorted_terms())
    assert widest >= 11 and len(lengths) > 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _answer(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of main(argv + ["--format", "json"])."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, buf.getvalue()


def _ideal_dict(ideal) -> dict:
    return {"m": ideal.ctx.m, "n": ideal.ctx.n, "gens": [list(g) for g in ideal.gens]}


def _raw_families():
    """(m, n, gens) for n <= 6, m in {n, n + 1}: the zero ideal, the unit
    ideal given as [0, 0], one generator, and seeded raw families with
    repeated, redundant and zero-padded generators."""
    rng = random.Random(3434)
    for n in range(1, 7):
        for m in (n, n + 1):
            yield m, n, []
            yield m, n, [[0, 0]]
            yield m, n, [[rng.randint(1, 5)] * rng.randint(1, n)]
            for _ in range(6):
                gens = []
                for _ in range(rng.randint(1, 7)):
                    rows = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, n))),
                                  reverse=True)
                    gens.append(rows + [0] * rng.randint(0, 2))
                gens += rng.sample(gens, min(len(gens), rng.randint(0, 2)))
                yield m, n, gens


def _zset_dict(ideal) -> dict:
    pairs = sorted(zset(ideal), key=lambda zp: (-zp.l, sum(zp.z), zp.z))
    return {"m": ideal.ctx.m, "n": ideal.ctx.n,
            "pairs": [{"z": list(zp.z), "l": zp.l} for zp in pairs]}


def _reg_answer(ideal) -> tuple[int, str]:
    try:
        return 0, _dumps({"regularity": cli.regularity(ideal), **_ideal_dict(ideal)})
    except ValueError as exc:
        return 1, _dumps({"error": str(exc)})


def _check_ideal_answers(ideal, source: list[str]) -> None:
    """zset and reg of the ideal that source names, against their dicts."""
    assert _answer(["zset", *source]) == (0, _dumps(_zset_dict(ideal))), source
    assert _answer(["reg", *source]) == _reg_answer(ideal), source


def test_ideal_zset_reg_saturate_json_equal_json_dumps_on_raw_families():
    errors, empty, gens_lengths = set(), 0, set()
    for m, n, gens in _raw_families():
        ideal = make_ideal(MatrixContext(m, n), gens)
        source = ["-m", str(m), "-n", str(n), "--gens", json.dumps(gens)]
        assert _answer(["normalize", *source]) == (0, _dumps(_ideal_dict(ideal))), source
        _check_ideal_answers(ideal, source)
        for p in range(n + 1):
            want = _dumps(_ideal_dict(saturate(ideal, p)))
            assert _answer(["saturate", *source, "-p", str(p)]) == (0, want), (source, p)
        code, out = _reg_answer(ideal)
        errors.update(json.loads(out).values() if code else ())
        empty += not zset(ideal)
        gens_lengths.update(map(len, ideal.gens))
    assert errors == {"the zero ideal has no regularity", "the unit ideal has no regularity"}
    assert empty > 24 and gens_lengths == set(range(7))


@pytest.mark.parametrize("kind", sorted(cli._FAMILIES))
def test_family_json_equals_json_dumps(kind):
    for n in range(1, 7):
        for m in (n, n + 1):
            for p in range(1, n + 1):
                for d in range(4):
                    ideal = cli._FAMILIES[kind](MatrixContext(m, n), p, d)
                    size = ["-m", str(m), "-n", str(n), "-p", str(p), "-d", str(d)]
                    assert _answer([kind, *size]) == (0, _dumps(_ideal_dict(ideal))), size
                    _check_ideal_answers(ideal, ["--kind", kind, *size])


def test_compare_json_equals_json_dumps_in_all_four_relations():
    families = {}
    for m, n, gens in _raw_families():
        families.setdefault((m, n), []).append(gens)
    relations = set()
    for (m, n), members in families.items():
        ctx = MatrixContext(m, n)
        for left in members:
            for right in members[:4]:
                a, b = make_ideal(ctx, left), make_ideal(ctx, right)
                relation = cli._RELATIONS[(cli.ideal_leq(a, b), cli.ideal_leq(b, a))][0]
                want = {"relation": relation, "left": _ideal_dict(a), "right": _ideal_dict(b)}
                argv = ["compare", "-m", str(m), "-n", str(n),
                        "--left", json.dumps(left), "--right", json.dumps(right)]
                assert _answer(argv) == (0, _dumps(want)), argv
                relations.add(relation)
    assert relations == {"equal", "contains", "contained-in", "incomparable"}


def test_schurdim_json_equals_json_dumps():
    for weight, N in [((), 1), ((2, 1), 3), ((5, 0, -2), 3), ((-1, -1), 2), ((7, 7, 3), 9)]:
        want = _dumps({"N": N, "weight": list(weight), "dim": dim_schur(weight, N)})
        assert _answer(["schurdim", "-N", str(N), "--weight", json.dumps(weight)]) == (0, want)


# one call of each JSON answer written by a template
_TEMPLATE_ANSWERS = [
    ["normalize", "-m", "4", "-n", "3", "--gens", "[[2, 1], [3, 1, 1], [2, 2]]"],
    ["normalize", "-m", "3", "-n", "3", "--gens", "[]"],
    ["power", "-m", "4", "-n", "4", "-p", "2", "-d", "2"],
    ["symbolic", "-m", "4", "-n", "4", "-p", "2", "-d", "2"],
    ["saturated", "-m", "4", "-n", "4", "-p", "2", "-d", "2"],
    ["saturate", "-m", "4", "-n", "4", "--gens", "[[3, 2, 1]]", "-p", "2"],
    ["compare", "-m", "3", "-n", "3", "--left", "[[1]]", "--right", "[[2]]"],
    ["zset", "-m", "4", "-n", "4", "--kind", "power", "-p", "2", "-d", "2"],
    ["zset", "-m", "3", "-n", "3", "--gens", "[[0]]"],
    ["reg", "-m", "4", "-n", "4", "--gens", "[[3, 1], [2, 2]]"],
    ["schurdim", "-N", "3", "--weight", "[2, 1]"],
]


def test_template_answers_never_call_json_dumps(monkeypatch):
    expected = {tuple(argv): _answer(argv) for argv in _TEMPLATE_ANSWERS}

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    for argv in _TEMPLATE_ANSWERS:
        code, out = _answer(argv)
        assert (code, out) == expected[tuple(argv)] and code == 0 and out[0] == "{", argv
