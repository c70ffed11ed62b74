"""The renderers of characters against the text the dict and join forms give.

glinv.cli writes each term with one % operation: on one format per call for
the sorted runs of an Ext or D_0 character, and on a format built per pair
of weight lengths for a Betti polynomial. tests/_oracles.py keeps the forms
that preceded it: dicts encoded by json.dumps with sorted keys, and weights
joined by ",".join(map(str, w)), both read from the public characters. Both
must give the same bytes on every sweep below.
"""

import contextlib
import io

from glinv import DegreeWindow, MatrixContext, betti_polynomial, ext_jzl
from glinv.cli import _print_betti_json, _print_character
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
